#include "html/entities.h"

#include <cstdint>

namespace webdis::html {

namespace {

struct NamedEntity {
  std::string_view name;
  char value;
};

constexpr NamedEntity kEntities[] = {
    {"amp", '&'}, {"lt", '<'},   {"gt", '>'},
    {"quot", '"'}, {"apos", '\''}, {"nbsp", ' '},
};

/// Decodes the entity body between '&' and ';' into `*c`; false if the body
/// names no entity this decoder knows.
bool DecodeEntity(std::string_view body, char* c) {
  if (!body.empty() && body[0] == '#') {
    if (body.size() < 2) return false;
    uint32_t code = 0;
    for (size_t j = 1; j < body.size(); ++j) {
      if (body[j] < '0' || body[j] > '9') return false;
      code = code * 10 + static_cast<uint32_t>(body[j] - '0');
      if (code > 0x10FFFF) return false;
    }
    // Non-ASCII (and NUL) becomes a placeholder, like 1990s terminals.
    *c = code > 0 && code < 128 ? static_cast<char>(code) : '?';
    return true;
  }
  for (const NamedEntity& e : kEntities) {
    if (body == e.name) {
      *c = e.value;
      return true;
    }
  }
  return false;
}

}  // namespace

void AppendDecoded(std::string_view s, std::string* out) {
  size_t i = 0;
  while (i < s.size()) {
    const size_t amp = s.find('&', i);
    if (amp == std::string_view::npos) {
      out->append(s.substr(i));
      return;
    }
    out->append(s.substr(i, amp - i));
    // An entity ends at the first ';' within 10 bytes of its '&'.
    const size_t body_size = s.substr(amp + 1, 10).find(';');
    char c = 0;
    if (body_size != std::string_view::npos &&
        DecodeEntity(s.substr(amp + 1, body_size), &c)) {
      out->push_back(c);
      i = amp + body_size + 2;
    } else {
      out->push_back('&');
      i = amp + 1;
    }
  }
}

void AppendEscaped(std::string_view s, std::string* out) {
  size_t i = 0;
  while (i < s.size()) {
    const size_t special = s.find_first_of("&<>\"", i);
    if (special == std::string_view::npos) {
      out->append(s.substr(i));
      return;
    }
    out->append(s.substr(i, special - i));
    switch (s[special]) {
      case '&':
        out->append("&amp;");
        break;
      case '<':
        out->append("&lt;");
        break;
      case '>':
        out->append("&gt;");
        break;
      default:
        out->append("&quot;");
        break;
    }
    i = special + 1;
  }
}

}  // namespace webdis::html
