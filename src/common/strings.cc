#include "common/strings.h"

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace webdis {

std::string ToLower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    out.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

bool Contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

namespace {

/// std::tolower in the C locale, which the process never leaves: only
/// 'A'-'Z' map, every other byte (0x80 and up included) is itself.
char FoldAscii(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

}  // namespace

bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  // Candidate starts are the occurrences of either case of the needle's
  // first byte, found with memchr; each cursor only moves forward.
  const char first = FoldAscii(needle[0]);
  const char first_upper =
      first >= 'a' && first <= 'z' ? static_cast<char>(first - 'a' + 'A')
                                   : first;
  const char* const end =
      haystack.data() + (haystack.size() - needle.size() + 1);
  const auto next = [end](const char* from, char c) {
    const void* hit = std::memchr(from, c, static_cast<size_t>(end - from));
    return hit == nullptr ? end : static_cast<const char*>(hit);
  };
  const char* lower = next(haystack.data(), first);
  const char* upper =
      first_upper == first ? end : next(haystack.data(), first_upper);
  while (lower != end || upper != end) {
    const char* const start = std::min(lower, upper);
    size_t i = 1;
    while (i < needle.size() && FoldAscii(start[i]) == FoldAscii(needle[i])) {
      ++i;
    }
    if (i == needle.size()) return true;
    if (start == lower) {
      lower = next(start + 1, first);
    } else {
      upper = next(start + 1, first_upper);
    }
  }
  return false;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

std::string StringPrintf(const char* format, ...) {
  va_list ap;
  va_start(ap, format);
  va_list ap_copy;
  va_copy(ap_copy, ap);
  const int len = std::vsnprintf(nullptr, 0, format, ap);
  va_end(ap);
  std::string out;
  if (len > 0) {
    out.resize(static_cast<size_t>(len));
    std::vsnprintf(out.data(), out.size() + 1, format, ap_copy);
  }
  va_end(ap_copy);
  return out;
}

bool ParseUint64(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

}  // namespace webdis
