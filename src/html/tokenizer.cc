#include "html/tokenizer.h"

#include <algorithm>

namespace webdis::html {

namespace {

bool IsNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '-' || c == '_';
}

char LowerAscii(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

bool EqualsIgnoreCase(std::string_view raw, std::string_view lower) {
  if (raw.size() != lower.size()) return false;
  for (size_t i = 0; i < raw.size(); ++i) {
    if (LowerAscii(raw[i]) != lower[i]) return false;
  }
  return true;
}

enum class AttributeItem : uint8_t { kEnd, kSlash, kAttribute };

/// Reads the next item of a start tag's attribute region from `*pos`: a
/// stray '/' (what makes <hr/> self-closing), or one attribute with its raw
/// value — quoted, or bare up to whitespace or '/', or empty when there is
/// no '='. Junk bytes where a name should start are skipped.
AttributeItem NextAttribute(std::string_view s, size_t* pos,
                            std::string_view* name, std::string_view* value) {
  size_t i = *pos;
  while (true) {
    while (i < s.size() && IsHtmlSpace(s[i])) ++i;
    if (i >= s.size()) {
      *pos = i;
      return AttributeItem::kEnd;
    }
    if (s[i] == '/') {
      *pos = i + 1;
      return AttributeItem::kSlash;
    }
    const size_t name_start = i;
    while (i < s.size() && IsNameChar(s[i])) ++i;
    if (i == name_start) {
      ++i;  // skip junk byte
      continue;
    }
    *name = s.substr(name_start, i - name_start);
    *value = {};
    while (i < s.size() && IsHtmlSpace(s[i])) ++i;
    if (i < s.size() && s[i] == '=') {
      ++i;
      while (i < s.size() && IsHtmlSpace(s[i])) ++i;
      if (i < s.size() && (s[i] == '"' || s[i] == '\'')) {
        const char quote = s[i++];
        const size_t value_start = i;
        while (i < s.size() && s[i] != quote) ++i;
        *value = s.substr(value_start, i - value_start);
        if (i < s.size()) ++i;  // closing quote
      } else {
        const size_t value_start = i;
        while (i < s.size() && !IsHtmlSpace(s[i]) && s[i] != '/') ++i;
        *value = s.substr(value_start, i - value_start);
      }
    }
    *pos = i;
    return AttributeItem::kAttribute;
  }
}

}  // namespace

bool Token::NameIs(std::string_view lower_name) const {
  return EqualsIgnoreCase(text, lower_name);
}

std::string_view Token::Attr(std::string_view lower_name) const {
  size_t pos = 0;
  std::string_view name;
  std::string_view value;
  while (true) {
    switch (NextAttribute(attributes, &pos, &name, &value)) {
      case AttributeItem::kEnd:
        return {};
      case AttributeItem::kSlash:
        break;
      case AttributeItem::kAttribute:
        if (EqualsIgnoreCase(name, lower_name)) return value;
        break;
    }
  }
}

bool Token::SelfClosing() const {
  size_t pos = 0;
  std::string_view name;
  std::string_view value;
  while (true) {
    switch (NextAttribute(attributes, &pos, &name, &value)) {
      case AttributeItem::kEnd:
        return false;
      case AttributeItem::kSlash:
        return true;
      case AttributeItem::kAttribute:
        break;
    }
  }
}

bool Tokenizer::Next(Token* token) {
  token->attributes = {};
  if (!pending_text_.empty()) {
    token->kind = TokenKind::kText;
    token->text = pending_text_;
    pending_text_ = {};
    return true;
  }
  const std::string_view html = html_;
  const size_t i = pos_;
  if (i >= html.size()) return false;
  if (html[i] != '<') {
    const size_t end = std::min(html.find('<', i), html.size());
    token->kind = TokenKind::kText;
    token->text = html.substr(i, end - i);
    pos_ = end;
    return true;
  }
  // Comment.
  if (html.substr(i).starts_with("<!--")) {
    const size_t end = html.find("-->", i + 4);
    token->kind = TokenKind::kComment;
    token->text = html.substr(i + 4, end == std::string_view::npos
                                         ? std::string_view::npos
                                         : end - i - 4);
    pos_ = end == std::string_view::npos ? html.size() : end + 3;
    return true;
  }
  // Declaration (<!DOCTYPE ...>).
  if (i + 1 < html.size() && html[i + 1] == '!') {
    const size_t end = html.find('>', i);
    token->kind = TokenKind::kDoctype;
    token->text = html.substr(i + 2, end == std::string_view::npos
                                         ? std::string_view::npos
                                         : end - i - 2);
    pos_ = end == std::string_view::npos ? html.size() : end + 1;
    return true;
  }
  const size_t end = html.find('>', i);
  if (end == std::string_view::npos) {
    // Unterminated tag: the rest is text.
    token->kind = TokenKind::kText;
    token->text = html.substr(i);
    pos_ = html.size();
    return true;
  }
  pos_ = end + 1;
  std::string_view inside = html.substr(i + 1, end - i - 1);
  const bool is_end = !inside.empty() && inside[0] == '/';
  if (is_end) inside.remove_prefix(1);
  size_t j = 0;
  while (j < inside.size() && IsNameChar(inside[j])) ++j;
  if (j == 0) {
    // "<>" or "< junk>": literal text. A nameless end tag reads without its
    // '/' ("</ x>" is the text "< x>"), so it comes out in two pieces.
    token->kind = TokenKind::kText;
    if (is_end) {
      token->text = "<";
      pending_text_ = html.substr(i + 2, end - i - 1);
    } else {
      token->text = html.substr(i, end - i + 1);
    }
    return true;
  }
  token->kind = is_end ? TokenKind::kEndTag : TokenKind::kStartTag;
  token->text = inside.substr(0, j);
  if (!is_end) token->attributes = inside.substr(j);
  return true;
}

}  // namespace webdis::html
