#include "html/parser.h"

#include <cstddef>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "html/entities.h"
#include "html/tokenizer.h"

namespace webdis::html {

namespace {

/// The tags the parser acts on. Container tags, from kB on, make one
/// rel-infon per element; kHr and kBr are separators.
enum class Tag : uint8_t {
  kOther, kA, kTitle, kScript, kStyle, kFrame, kIframe, kArea, kHr, kBr,
  kB, kI, kEm, kStrong, kH1, kH2, kH3, kH4, kH5, kH6,
  kP, kLi, kTd, kTh, kPre, kCenter, kFont, kBlockquote,
};

/// Lower-case names, indexed by Tag.
constexpr std::string_view kTagNames[] = {
    "",  "a",  "title", "script", "style", "frame", "iframe", "area", "hr",
    "br", "b", "i",     "em",     "strong", "h1",   "h2",     "h3",   "h4",
    "h5", "h6", "p",    "li",     "td",     "th",   "pre",    "center",
    "font", "blockquote",
};

std::string_view NameOf(Tag tag) {
  return kTagNames[static_cast<size_t>(tag)];
}

bool IsContainer(Tag tag) { return tag >= Tag::kB; }

Tag LookupTag(const Token& token) {
  // Only names of a known length and initial are compared in full.
  const std::string_view name = token.text;
  if (name.empty() || name.size() > NameOf(Tag::kBlockquote).size()) {
    return Tag::kOther;
  }
  const char initial = static_cast<char>(name[0] | 0x20);  // ASCII lower
  for (size_t i = 1; i < std::size(kTagNames); ++i) {
    if (kTagNames[i].size() == name.size() && kTagNames[i][0] == initial &&
        token.NameIs(kTagNames[i])) {
      return static_cast<Tag>(i);
    }
  }
  return Tag::kOther;
}

/// Whitespace-collapsed text, built as it arrives: every run of whitespace
/// becomes one space and leading whitespace is dropped, as in a one-shot
/// collapse, except that a trailing space is kept (more text may follow).
///
/// The invariant that spares every rel-infon a rescan: collapsing the raw
/// text appended since size() was `offset` yields Since(offset) — the
/// collapsed tail from that offset, minus at most one leading space (left
/// by whitespace that began the tail while the text before it ended in a
/// word) and one trailing space. Since(0) is the whole text, collapsed.
struct CollapsedText {
  std::string out;
  bool in_space = true;

  size_t size() const { return out.size(); }

  void Append(std::string_view s) {
    // Grow to the worst case, write in place, then trim to what was kept.
    // The flag lives in a local: stores through `p` may alias members.
    size_t n = out.size();
    out.resize(n + s.size());
    char* const p = out.data();
    bool after_space = in_space;
    for (const char c : s) {
      const bool space = IsHtmlSpace(c);
      p[n] = space ? ' ' : c;
      n += !(space && after_space);
      after_space = space;
    }
    in_space = after_space;
    out.resize(n);
  }

  std::string_view Since(size_t offset) const {
    std::string_view tail(out);
    tail.remove_prefix(offset);
    if (!tail.empty() && tail.front() == ' ') tail.remove_prefix(1);
    if (!tail.empty() && tail.back() == ' ') tail.remove_suffix(1);
    return tail;
  }
};

/// An open container element awaiting its end tag.
struct OpenElement {
  Tag tag;
  size_t text_offset;  // CollapsedText offset of the body when opened
};

}  // namespace

ParsedDocument ParseDocument(const Url& url, std::string_view html) {
  ParsedDocument doc;
  doc.url = url;
  doc.length = html.size();

  CollapsedText text;   // visible text
  CollapsedText title;  // <title> content
  // Decoding and collapsing only shrink text, so this never reallocates.
  text.out.reserve(html.size());
  std::string decoded;  // entity-decoding scratch, reused for every token
  std::vector<OpenElement> open_stack;
  bool in_title = false;
  Tag skip_tag = Tag::kOther;  // inside <script>/<style> unless kOther
  bool in_anchor = false;
  std::string_view anchor_href;
  size_t anchor_offset = 0;
  // Per-separator-tag mark of where the current block began.
  size_t hr_mark = 0;
  size_t br_mark = 0;

  const auto add_anchor = [&](std::string_view href, std::string_view label) {
    // Unresolvable hrefs (e.g. "mailto:") are dropped: they are not part of
    // the paper's web graph model.
    auto resolved = ResolveUrl(url, href);
    if (!resolved.ok()) return;
    ParsedAnchor& anchor = doc.anchors.emplace_back();
    anchor.label = label;
    anchor.href = std::string(href);
    anchor.resolved = std::move(resolved).value();
    anchor.ltype = ClassifyLink(url, anchor.resolved);
  };
  const auto add_rel_infon = [&](Tag tag, std::string_view body) {
    if (!body.empty()) {
      doc.rel_infons.push_back({std::string(NameOf(tag)), std::string(body)});
    }
  };

  Tokenizer tokenizer(html);
  Token token;
  while (tokenizer.Next(&token)) {
    switch (token.kind) {
      case TokenKind::kText: {
        if (skip_tag != Tag::kOther) break;
        std::string_view chars = token.text;
        if (chars.find('&') != std::string_view::npos) {
          decoded.clear();
          AppendDecoded(chars, &decoded);
          chars = decoded;
        }
        (in_title ? title : text).Append(chars);
        break;
      }
      case TokenKind::kStartTag: {
        if (skip_tag != Tag::kOther) break;
        const Tag tag = LookupTag(token);
        switch (tag) {
          case Tag::kScript:
          case Tag::kStyle:
            skip_tag = tag;
            break;
          case Tag::kTitle:
            in_title = true;
            break;
          case Tag::kA: {
            const std::string_view href = token.Attr("href");
            if (!href.empty()) {
              in_anchor = true;
              anchor_href = href;
              anchor_offset = text.size();
            }
            break;
          }
          // Frames and image-map areas hyperlink documents exactly like
          // anchors did in 1999-era sites; they enter the ANCHOR relation
          // with the tag name as label.
          case Tag::kFrame:
          case Tag::kIframe:
          case Tag::kArea: {
            const std::string_view href =
                token.Attr(tag == Tag::kArea ? "href" : "src");
            if (!href.empty()) {
              add_anchor(href, "[" + std::string(NameOf(tag)) + "]");
            }
            break;
          }
          case Tag::kHr:
          case Tag::kBr: {
            // The paper's hr rel-infon spans the visual block above the
            // rule, which may contain line breaks, so each separator keeps
            // its own mark.
            size_t& mark = tag == Tag::kHr ? hr_mark : br_mark;
            add_rel_infon(tag, text.Since(mark));
            mark = text.size();
            break;
          }
          default:
            if (IsContainer(tag) && !token.SelfClosing()) {
              open_stack.push_back({tag, text.size()});
            }
            break;
        }
        break;
      }
      case TokenKind::kEndTag: {
        const Tag tag = LookupTag(token);
        if (skip_tag != Tag::kOther) {
          if (tag == skip_tag) skip_tag = Tag::kOther;
          break;
        }
        if (tag == Tag::kTitle) {
          in_title = false;
        } else if (tag == Tag::kA) {
          if (in_anchor) {
            in_anchor = false;
            add_anchor(anchor_href, text.Since(anchor_offset));
          }
        } else if (IsContainer(tag)) {
          // Pop to the innermost matching open element, discarding
          // mis-nested entries (tolerant recovery).
          for (size_t i = open_stack.size(); i > 0; --i) {
            if (open_stack[i - 1].tag == tag) {
              add_rel_infon(tag, text.Since(open_stack[i - 1].text_offset));
              open_stack.resize(i - 1);
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

  // Copies, not moves: the documents outlive the parse, so their strings
  // should not carry the scratch buffer's spare capacity.
  doc.title = title.Since(0);
  doc.text = text.Since(0);
  return doc;
}

}  // namespace webdis::html
