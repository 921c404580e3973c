// Verbatim copy of the token-vector HTML pipeline that html::ParseDocument
// replaced; see html_reference.h. Keep it byte-for-byte boring.
#include "html_reference.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdint>

#include "common/strings.h"
#include "html/url.h"

namespace webdis::html::reference {

std::string_view Token::Attr(std::string_view name) const {
  for (const Attribute& a : attributes) {
    if (a.name == name) return a.value;
  }
  return {};
}

namespace {

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_';
}

/// Parses attributes from the inside of a tag (after the name, before '>').
void ParseAttributes(std::string_view s, Token* token) {
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() &&
           std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (i >= s.size()) break;
    if (s[i] == '/') {
      token->self_closing = true;
      ++i;
      continue;
    }
    // Attribute name.
    const size_t name_start = i;
    while (i < s.size() && IsNameChar(s[i])) ++i;
    if (i == name_start) {
      ++i;  // skip junk byte
      continue;
    }
    Attribute attr;
    attr.name = ToLower(s.substr(name_start, i - name_start));
    while (i < s.size() &&
           std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (i < s.size() && s[i] == '=') {
      ++i;
      while (i < s.size() &&
             std::isspace(static_cast<unsigned char>(s[i]))) {
        ++i;
      }
      if (i < s.size() && (s[i] == '"' || s[i] == '\'')) {
        const char quote = s[i++];
        const size_t val_start = i;
        while (i < s.size() && s[i] != quote) ++i;
        attr.value = std::string(s.substr(val_start, i - val_start));
        if (i < s.size()) ++i;  // closing quote
      } else {
        const size_t val_start = i;
        while (i < s.size() &&
               !std::isspace(static_cast<unsigned char>(s[i])) &&
               s[i] != '/') {
          ++i;
        }
        attr.value = std::string(s.substr(val_start, i - val_start));
      }
    }
    token->attributes.push_back(std::move(attr));
  }
}

}  // namespace

std::vector<Token> Tokenize(std::string_view html) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < html.size()) {
    if (html[i] != '<') {
      const size_t start = i;
      while (i < html.size() && html[i] != '<') ++i;
      Token t;
      t.kind = TokenKind::kText;
      t.text = std::string(html.substr(start, i - start));
      tokens.push_back(std::move(t));
      continue;
    }
    // Comment.
    if (html.substr(i).starts_with("<!--")) {
      const size_t end = html.find("-->", i + 4);
      Token t;
      t.kind = TokenKind::kComment;
      if (end == std::string_view::npos) {
        t.text = std::string(html.substr(i + 4));
        i = html.size();
      } else {
        t.text = std::string(html.substr(i + 4, end - i - 4));
        i = end + 3;
      }
      tokens.push_back(std::move(t));
      continue;
    }
    // Declaration (<!DOCTYPE ...>).
    if (i + 1 < html.size() && html[i + 1] == '!') {
      const size_t end = html.find('>', i);
      Token t;
      t.kind = TokenKind::kDoctype;
      if (end == std::string_view::npos) {
        t.text = std::string(html.substr(i + 2));
        i = html.size();
      } else {
        t.text = std::string(html.substr(i + 2, end - i - 2));
        i = end + 1;
      }
      tokens.push_back(std::move(t));
      continue;
    }
    const size_t end = html.find('>', i);
    if (end == std::string_view::npos) {
      // Unterminated tag: emit the rest as text.
      Token t;
      t.kind = TokenKind::kText;
      t.text = std::string(html.substr(i));
      tokens.push_back(std::move(t));
      break;
    }
    std::string_view inside = html.substr(i + 1, end - i - 1);
    i = end + 1;
    const bool is_end = !inside.empty() && inside[0] == '/';
    if (is_end) inside = inside.substr(1);
    // Tag name.
    size_t j = 0;
    while (j < inside.size() && IsNameChar(inside[j])) ++j;
    if (j == 0) {
      // "<>" or "< junk": treat as literal text.
      Token t;
      t.kind = TokenKind::kText;
      t.text = "<" + std::string(inside) + ">";
      tokens.push_back(std::move(t));
      continue;
    }
    Token t;
    t.kind = is_end ? TokenKind::kEndTag : TokenKind::kStartTag;
    t.text = ToLower(inside.substr(0, j));
    if (!is_end) {
      ParseAttributes(inside.substr(j), &t);
    }
    tokens.push_back(std::move(t));
  }
  return tokens;
}

namespace {

struct NamedEntity {
  const char* name;
  char value;
};

constexpr NamedEntity kEntities[] = {
    {"amp", '&'}, {"lt", '<'},   {"gt", '>'},
    {"quot", '"'}, {"apos", '\''}, {"nbsp", ' '},
};

}  // namespace

std::string DecodeEntities(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  size_t i = 0;
  while (i < s.size()) {
    if (s[i] != '&') {
      out.push_back(s[i++]);
      continue;
    }
    const size_t semi = s.find(';', i + 1);
    if (semi == std::string_view::npos || semi - i > 10) {
      out.push_back(s[i++]);
      continue;
    }
    const std::string_view body = s.substr(i + 1, semi - i - 1);
    bool decoded = false;
    if (!body.empty() && body[0] == '#') {
      uint32_t code = 0;
      bool valid = body.size() > 1;
      for (size_t j = 1; j < body.size(); ++j) {
        if (!std::isdigit(static_cast<unsigned char>(body[j]))) {
          valid = false;
          break;
        }
        code = code * 10 + static_cast<uint32_t>(body[j] - '0');
        if (code > 0x10FFFF) {
          valid = false;
          break;
        }
      }
      if (valid && code > 0 && code < 128) {
        out.push_back(static_cast<char>(code));
        decoded = true;
      } else if (valid) {
        out.push_back('?');  // non-ASCII: placeholder, like 1990s terminals
        decoded = true;
      }
    } else {
      for (const NamedEntity& e : kEntities) {
        if (body == e.name) {
          out.push_back(e.value);
          decoded = true;
          break;
        }
      }
    }
    if (decoded) {
      i = semi + 1;
    } else {
      out.push_back(s[i++]);
    }
  }
  return out;
}

std::string CollapseWhitespace(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  bool in_space = true;  // drop leading whitespace
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!in_space) out.push_back(' ');
      in_space = true;
    } else {
      out.push_back(c);
      in_space = false;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

namespace {

constexpr std::string_view kContainerTags[] = {
    "b", "i", "em", "strong", "h1", "h2", "h3", "h4", "h5", "h6",
    "p", "li", "td", "th", "pre", "center", "font", "blockquote",
};

constexpr std::string_view kSeparatorTags[] = {"hr", "br"};

bool IsContainerTag(std::string_view name) {
  return std::find(std::begin(kContainerTags), std::end(kContainerTags),
                   name) != std::end(kContainerTags);
}

bool IsSeparatorTag(std::string_view name) {
  return std::find(std::begin(kSeparatorTags), std::end(kSeparatorTags),
                   name) != std::end(kSeparatorTags);
}

/// An open container element awaiting its end tag.
struct OpenElement {
  std::string tag;
  size_t text_offset;  // offset into the raw text accumulator when opened
};

}  // namespace

ParsedDocument ParseDocument(const Url& url, std::string_view html) {
  ParsedDocument doc;
  doc.url = url;
  doc.length = html.size();

  const std::vector<Token> tokens = Tokenize(html);

  std::string text;             // raw visible text accumulator
  std::vector<OpenElement> open_stack;
  bool in_title = false;
  bool in_skip = false;         // inside <script>/<style>
  std::string skip_tag;
  bool in_anchor = false;
  ParsedAnchor current_anchor;
  std::string anchor_label;
  // Per-separator-tag mark of where the current block began.
  size_t hr_mark = 0;
  size_t br_mark = 0;

  for (const Token& token : tokens) {
    switch (token.kind) {
      case TokenKind::kText: {
        if (in_skip) break;
        if (in_title) {
          doc.title += DecodeEntities(token.text);
          break;
        }
        text += DecodeEntities(token.text);
        if (in_anchor) anchor_label += DecodeEntities(token.text);
        break;
      }
      case TokenKind::kStartTag: {
        const std::string& tag = token.text;
        if (in_skip) break;
        if (tag == "script" || tag == "style") {
          in_skip = true;
          skip_tag = tag;
          break;
        }
        if (tag == "title") {
          in_title = true;
          break;
        }
        if (tag == "a") {
          const std::string_view href = token.Attr("href");
          if (!href.empty()) {
            in_anchor = true;
            anchor_label.clear();
            current_anchor = ParsedAnchor();
            current_anchor.href = std::string(href);
          }
          break;
        }
        // Frames and image-map areas hyperlink documents exactly like
        // anchors did in 1999-era sites; they enter the ANCHOR relation
        // with the tag name as label.
        if (tag == "frame" || tag == "iframe" || tag == "area") {
          const std::string_view href =
              tag == "area" ? token.Attr("href") : token.Attr("src");
          if (!href.empty()) {
            ParsedAnchor anchor;
            anchor.href = std::string(href);
            anchor.label = "[" + tag + "]";
            auto resolved = ResolveUrl(url, anchor.href);
            if (resolved.ok()) {
              anchor.resolved = std::move(resolved).value();
              anchor.ltype = ClassifyLink(url, anchor.resolved);
              doc.anchors.push_back(std::move(anchor));
            }
          }
          break;
        }
        if (IsSeparatorTag(tag)) {
          size_t& mark = (tag == "hr") ? hr_mark : br_mark;
          const std::string block =
              CollapseWhitespace(std::string_view(text).substr(mark));
          if (!block.empty()) {
            doc.rel_infons.push_back({tag, block});
          }
          mark = text.size();
          // <br> also ends the running line for <hr> purposes? No: the
          // paper's hr rel-infon spans the visual block above the rule,
          // which may contain line breaks, so hr_mark is left untouched.
          break;
        }
        if (IsContainerTag(tag) && !token.self_closing) {
          open_stack.push_back({tag, text.size()});
        }
        break;
      }
      case TokenKind::kEndTag: {
        const std::string& tag = token.text;
        if (in_skip) {
          if (tag == skip_tag) in_skip = false;
          break;
        }
        if (tag == "title") {
          in_title = false;
          break;
        }
        if (tag == "a") {
          if (in_anchor) {
            in_anchor = false;
            current_anchor.label = CollapseWhitespace(anchor_label);
            auto resolved = ResolveUrl(url, current_anchor.href);
            if (resolved.ok()) {
              current_anchor.resolved = std::move(resolved).value();
              current_anchor.ltype =
                  ClassifyLink(url, current_anchor.resolved);
              doc.anchors.push_back(std::move(current_anchor));
            }
            // Unresolvable hrefs (e.g. "mailto:") are dropped: they are not
            // part of the paper's web graph model.
          }
          break;
        }
        if (IsContainerTag(tag)) {
          // Pop to the innermost matching open element, discarding
          // mis-nested entries (tolerant recovery).
          for (size_t i = open_stack.size(); i > 0; --i) {
            if (open_stack[i - 1].tag == tag) {
              const std::string body = CollapseWhitespace(
                  std::string_view(text).substr(open_stack[i - 1].text_offset));
              if (!body.empty()) {
                doc.rel_infons.push_back({tag, body});
              }
              open_stack.erase(open_stack.begin() +
                                   static_cast<std::ptrdiff_t>(i - 1),
                               open_stack.end());
              break;
            }
          }
        }
        break;
      }
      case TokenKind::kComment:
      case TokenKind::kDoctype:
        break;
    }
  }

  doc.title = CollapseWhitespace(doc.title);
  doc.text = CollapseWhitespace(text);
  return doc;
}

namespace {

std::string Mismatch(const std::string& field, std::string_view got,
                     std::string_view want) {
  return field + ": got \"" + std::string(got) + "\", want \"" +
         std::string(want) + "\"";
}

}  // namespace

std::string FirstDifference(const ParsedDocument& got,
                            const ParsedDocument& want) {
  if (got.url.ToString() != want.url.ToString()) {
    return Mismatch("url", got.url.ToString(), want.url.ToString());
  }
  if (got.title != want.title) return Mismatch("title", got.title, want.title);
  if (got.text != want.text) return Mismatch("text", got.text, want.text);
  if (got.length != want.length) {
    return Mismatch("length", std::to_string(got.length),
                    std::to_string(want.length));
  }
  if (got.anchors.size() != want.anchors.size()) {
    return Mismatch("anchors.size()", std::to_string(got.anchors.size()),
                    std::to_string(want.anchors.size()));
  }
  for (size_t i = 0; i < got.anchors.size(); ++i) {
    const ParsedAnchor& g = got.anchors[i];
    const ParsedAnchor& w = want.anchors[i];
    const std::string at = "anchors[" + std::to_string(i) + "].";
    if (g.label != w.label) return Mismatch(at + "label", g.label, w.label);
    if (g.href != w.href) return Mismatch(at + "href", g.href, w.href);
    if (!(g.resolved == w.resolved)) {
      return Mismatch(at + "resolved", g.resolved.ToString(),
                      w.resolved.ToString());
    }
    if (g.ltype != w.ltype) {
      return Mismatch(at + "ltype", std::string(1, LinkTypeSymbol(g.ltype)),
                      std::string(1, LinkTypeSymbol(w.ltype)));
    }
  }
  if (got.rel_infons.size() != want.rel_infons.size()) {
    return Mismatch("rel_infons.size()",
                    std::to_string(got.rel_infons.size()),
                    std::to_string(want.rel_infons.size()));
  }
  for (size_t i = 0; i < got.rel_infons.size(); ++i) {
    const ParsedRelInfon& g = got.rel_infons[i];
    const ParsedRelInfon& w = want.rel_infons[i];
    const std::string at = "rel_infons[" + std::to_string(i) + "].";
    if (g.delimiter != w.delimiter) {
      return Mismatch(at + "delimiter", g.delimiter, w.delimiter);
    }
    if (g.text != w.text) return Mismatch(at + "text", g.text, w.text);
  }
  return "";
}

std::vector<std::string> EdgeCaseDocuments() {
  return {
      // Case and self-closing tags.
      "<HTML><BODY><B>Bold</B><P>para</p><Hr/>after<BR/>x</BODY></HTML>",
      "<p/>not a container<b />still not</b><p>real</p>",
      "<TITLE> Upper  Title </TITLE><A HREF='x'>X</A>",
      // Attributes: bare values with '/', duplicates, junk, empty href.
      "<a href=/abs/path/>abs</a><a href=a/b/c>rel</a>",
      "<a href=\"first\" href=\"second\">dup</a><a href=\"\" href=x>e</a>",
      "<a !@ href = \"sp aced\" checked>junk</a><a href=>none</a>",
      "<a / href=\"after-slash\">s</a><frame/ src=f2><p / >p</p>",
      "<frame src=/f><iframe SRC='i'><area href=\"http://far/x\"><frame>",
      // Nameless and unterminated tags and comments.
      "a<>b< >c</ >d</>e<//>f",
      "text<!-- comment <b>hidden</b> -->more<!-->x-->y",
      "<!DOCTYPE html><!decl>body<!",
      "ok<b>open<a href=\"unterminated",
      "tail <!-- never closed <p>para</p>",
      // Entities: named, numeric, NUL, non-ASCII, split across tags.
      "<p>&amp; &lt; &gt; &quot; &apos; x&nbsp;y &#65;&#0;&#200;&#10;z</p>",
      "<b>&am<i></i>p; &#6<br>5; &bogus; &amp &#; &#x41; &1234567890;</b>",
      "<p>&#00000065; (9-byte body) &#000000065; (10-byte body)</p>",
      "<title>A&#10;&#9;B&nbsp;&nbsp;C</title>&#32;lead&#32;",
      // Exotic whitespace.
      "<p>\v a \f b \r\n c \t</p>\v<hr>\f\r<hr> <br>\t<br>",
      // script/style skipping, including a nested end tag of the other.
      "a<script>x</style><b>no</b></script>b<STYLE>p{}</STYLE >c",
      "<script>never closed <p>para</p>",
      // Mis-nesting and back-to-back separators.
      "<b><i>both</b></i> rest</i></b>",
      "<p>one<li>two</p>three</li><td>four",
      "<hr><hr><br><br>x<hr><br>y<br><hr>",
      " <a href=\"#f\"> <b> label </b> </a> <a href=\"o\">a<a href=\"p\">b</a>",
  };
}

}  // namespace webdis::html::reference
