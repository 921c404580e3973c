#ifndef WEBDIS_HTML_TOKENIZER_H_
#define WEBDIS_HTML_TOKENIZER_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace webdis::html {

/// HTML token kinds produced by the tokenizer. The grammar targeted is
/// HTML 2.0 (RFC 1866) — the paper's node model assumes documents of that
/// era — but the tokenizer is tolerant of malformed input: it never fails,
/// it only degrades (real web pages were already broken in 1999).
enum class TokenKind : uint8_t {
  kText,      // character data between tags
  kStartTag,  // <name attr="v" ...> ; SelfClosing() for <name/>
  kEndTag,    // </name>
  kComment,   // <!-- ... -->
  kDoctype,   // <!DOCTYPE ...> and other <! ...> declarations
};

/// The whitespace of HTML text and tags: the C locale's isspace set.
constexpr bool IsHtmlSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// A single HTML token. Every field is a view into the tokenized document
/// (or, for the "<" of a nameless end tag, a static literal): tokens copy
/// nothing and are only valid while the document is.
struct Token {
  TokenKind kind = TokenKind::kText;
  /// Text: raw character data, entities undecoded. Comment and declaration:
  /// the body. Tags: the name as written — compare it with NameIs.
  std::string_view text;
  /// Start tags: the raw attribute region between the name and the '>'.
  std::string_view attributes;

  /// True if this tag's name is `lower_name`, ignoring ASCII case.
  bool NameIs(std::string_view lower_name) const;

  /// The raw value of the first attribute called `lower_name` (attribute
  /// names are case-insensitive), or an empty view if it is absent or has
  /// no value.
  std::string_view Attr(std::string_view lower_name) const;

  /// True if a '/' stands where an attribute name could begin, as in <hr/>.
  bool SelfClosing() const;
};

/// Pulls tokens from one HTML document, left to right, without allocating.
/// Never fails; unterminated constructs are emitted as best-effort text.
class Tokenizer {
 public:
  explicit Tokenizer(std::string_view html) : html_(html) {}

  /// Stores the next token in `*token`; false once the input is consumed.
  bool Next(Token* token);

 private:
  std::string_view html_;
  size_t pos_ = 0;
  /// The tail of a nameless end tag ("</ x>" reads as the text "< x>"),
  /// emitted as a second text token after the static "<".
  std::string_view pending_text_;
};

}  // namespace webdis::html

#endif  // WEBDIS_HTML_TOKENIZER_H_
