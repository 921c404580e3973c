#ifndef WEBDIS_TESTS_HTML_REFERENCE_H_
#define WEBDIS_TESTS_HTML_REFERENCE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "html/parser.h"

// The specification of html::ParseDocument: a deliberately simple
// token-vector pipeline (tokenize into owned strings, decode entities per
// text token, re-collapse whitespace at every rel-infon boundary). It is
// slow, which is why it lives here and not in src/, and it is obviously
// correct, which is why html_test and the fuzz_html harness hold the
// single-pass parser to it field for field. Change it only together with a
// deliberate change of the parser's output.
namespace webdis::html::reference {

enum class TokenKind : uint8_t {
  kText,      // character data between tags
  kStartTag,  // <name attr="v" ...> ; self_closing for <name/>
  kEndTag,    // </name>
  kComment,   // <!-- ... -->
  kDoctype,   // <!DOCTYPE ...> and other <! ...> declarations
};

/// One attribute on a start tag. Names are lower-cased; values are raw.
struct Attribute {
  std::string name;
  std::string value;
};

struct Token {
  TokenKind kind = TokenKind::kText;
  std::string text;                   // text / comment body / tag name
  std::vector<Attribute> attributes;  // start tags only
  bool self_closing = false;          // start tags only

  /// Returns the attribute value, or empty string_view if absent.
  std::string_view Attr(std::string_view name) const;
};

/// Tokenizes an entire HTML document. Never fails; unterminated constructs
/// are emitted as best-effort text.
std::vector<Token> Tokenize(std::string_view html);

/// Decodes &amp; &lt; &gt; &quot; &apos; &nbsp; and numeric &#NN;. Unknown
/// entities pass through verbatim.
std::string DecodeEntities(std::string_view s);

/// Collapses runs of whitespace into single spaces and trims.
std::string CollapseWhitespace(std::string_view s);

/// Reference parse, with the rel-infon rules documented on
/// html::ParseDocument.
ParsedDocument ParseDocument(const Url& url, std::string_view html);

/// Empty if `got` and `want` agree in every field; otherwise names the first
/// field that differs, with both values.
std::string FirstDifference(const ParsedDocument& got,
                            const ParsedDocument& want);

/// Hand-picked documents, one or more per special case of the grammar
/// (case, self-closing and unterminated tags, bare attribute values, split
/// and numeric entities, exotic whitespace, script skipping, mis-nesting,
/// separator runs). html_test checks each against the reference, and
/// `fuzz_replay --write-seeds` writes them as the html fuzz corpus.
std::vector<std::string> EdgeCaseDocuments();

}  // namespace webdis::html::reference

#endif  // WEBDIS_TESTS_HTML_REFERENCE_H_
