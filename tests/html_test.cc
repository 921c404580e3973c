#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "html/entities.h"
#include "html/parser.h"
#include "html/tokenizer.h"
#include "html/url.h"
#include "html_reference.h"
#include "web/graph.h"
#include "web/synth.h"
#include "web/university.h"

namespace webdis::html {
namespace {

// -- URL ----------------------------------------------------------------------

TEST(UrlTest, ParseFullUrl) {
  auto url = ParseUrl("http://www.csa.iisc.ernet.in/Labs#top");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->scheme, "http");
  EXPECT_EQ(url->host, "www.csa.iisc.ernet.in");
  EXPECT_EQ(url->path, "/Labs");
  EXPECT_EQ(url->fragment, "top");
  EXPECT_EQ(url->ToString(), "http://www.csa.iisc.ernet.in/Labs#top");
  EXPECT_EQ(url->ResourceKey(), "http://www.csa.iisc.ernet.in/Labs");
}

TEST(UrlTest, HostOnlyGetsRootPath) {
  auto url = ParseUrl("http://dsl.serc.iisc.ernet.in");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->path, "/");
}

TEST(UrlTest, SchemeDefaultsToHttp) {
  auto url = ParseUrl("example.com/page");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->scheme, "http");
  EXPECT_EQ(url->host, "example.com");
}

TEST(UrlTest, EmptyAndHostlessRejected) {
  EXPECT_FALSE(ParseUrl("").ok());
  EXPECT_FALSE(ParseUrl("   ").ok());
  EXPECT_FALSE(ParseUrl("http:///path").ok());
}

TEST(UrlTest, PathNormalization) {
  auto url = ParseUrl("http://h/a/b/../c/./d");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->path, "/a/c/d");
  auto url2 = ParseUrl("http://h/../..");
  ASSERT_TRUE(url2.ok());
  EXPECT_EQ(url2->path, "/");
  // Paths already normal are kept as written; any empty, "." or ".."
  // segment sends the path through normalization.
  const std::pair<const char*, const char*> cases[] = {
      {"http://h/", "/"},          {"http://h/a/b", "/a/b"},
      {"http://h/a/b/", "/a/b/"},  {"http://h//a", "/a"},
      {"http://h/a//", "/a/"},     {"http://h/./a", "/a"},
      {"http://h/a/.", "/a"},      {"http://h/a/..", "/"},
      {"http://h/a/../", "/"},     {"http://h/.a/..b/", "/.a/..b/"},
  };
  for (const auto& [input, path] : cases) {
    auto parsed = ParseUrl(input);
    ASSERT_TRUE(parsed.ok()) << input;
    EXPECT_EQ(parsed->path, path) << input;
  }
}

TEST(UrlTest, TildePathsSupported) {
  auto url = ParseUrl("http://www2.csa.iisc.ernet.in/~gang/lab");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->path, "/~gang/lab");
}

struct ResolveCase {
  const char* base;
  const char* href;
  const char* expected;  // ResourceKey + optional #fragment
};

// Names each instance by its inputs. The default printer dumps the three
// pointers, whose values change from run to run, and the test names with them.
void PrintTo(const ResolveCase& c, std::ostream* os) {
  *os << '"' << c.base << "\" + \"" << c.href << '"';
}

class ResolveUrlTest : public ::testing::TestWithParam<ResolveCase> {};

TEST_P(ResolveUrlTest, Resolves) {
  const ResolveCase& c = GetParam();
  auto base = ParseUrl(c.base);
  ASSERT_TRUE(base.ok());
  auto resolved = ResolveUrl(base.value(), c.href);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  EXPECT_EQ(resolved->ToString(), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ResolveUrlTest,
    ::testing::Values(
        ResolveCase{"http://a/b/c", "http://x/y", "http://x/y"},
        ResolveCase{"http://a/b/c", "/root", "http://a/root"},
        ResolveCase{"http://a/b/c", "sibling", "http://a/b/sibling"},
        ResolveCase{"http://a/b/c", "../up", "http://a/up"},
        ResolveCase{"http://a/b/c", "#frag", "http://a/b/c#frag"},
        ResolveCase{"http://a/b/", "leaf", "http://a/b/leaf"},
        ResolveCase{"http://a/", "d/e", "http://a/d/e"},
        ResolveCase{"http://a/b/c", "d#f", "http://a/b/d#f"}));

TEST(UrlTest, ResolveEmptyHrefRejected) {
  auto base = ParseUrl("http://a/b");
  ASSERT_TRUE(base.ok());
  EXPECT_FALSE(ResolveUrl(base.value(), "").ok());
}

TEST(ClassifyLinkTest, InteriorLocalGlobal) {
  const Url base = ParseUrl("http://a/page").value();
  EXPECT_EQ(ClassifyLink(base, ParseUrl("http://a/page#sec").value()),
            LinkType::kInterior);
  EXPECT_EQ(ClassifyLink(base, ParseUrl("http://a/other").value()),
            LinkType::kLocal);
  EXPECT_EQ(ClassifyLink(base, ParseUrl("http://b/page").value()),
            LinkType::kGlobal);
}

TEST(LinkTypeTest, SymbolRoundTrip) {
  for (LinkType t : {LinkType::kInterior, LinkType::kLocal,
                     LinkType::kGlobal, LinkType::kNull}) {
    auto parsed = LinkTypeFromSymbol(LinkTypeSymbol(t));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), t);
  }
  EXPECT_FALSE(LinkTypeFromSymbol('X').ok());
}

// -- Entities -------------------------------------------------------------------

std::string Decode(std::string_view s) {
  std::string out;
  AppendDecoded(s, &out);
  return out;
}

std::string Escape(std::string_view s) {
  std::string out;
  AppendEscaped(s, &out);
  return out;
}

TEST(EntitiesTest, NamedEntities) {
  EXPECT_EQ(Decode("a &amp; b &lt;c&gt; &quot;d&quot;"), "a & b <c> \"d\"");
  EXPECT_EQ(Decode("x&nbsp;y"), "x y");
}

TEST(EntitiesTest, NumericEntities) {
  EXPECT_EQ(Decode("&#65;&#66;"), "AB");
  EXPECT_EQ(Decode("&#200;"), "?");  // non-ASCII placeholder
}

TEST(EntitiesTest, UnknownAndMalformedPassThrough) {
  EXPECT_EQ(Decode("&bogus; &amp"), "&bogus; &amp");
  EXPECT_EQ(Decode("lone & ampersand"), "lone & ampersand");
}

TEST(EntitiesTest, EscapeRoundTrip) {
  const std::string original = "a & b < c > \"d\"";
  EXPECT_EQ(Decode(Escape(original)), original);
}

TEST(EntitiesTest, AppendKeepsExistingContent) {
  std::string out = "x";
  AppendDecoded("&lt;", &out);
  AppendEscaped("<", &out);
  EXPECT_EQ(out, "x<&lt;");
}

TEST(EntitiesTest, DecodeMatchesReference) {
  for (const char* s :
       {"&amp;&amp;", "&#0;&#10;&#127;&#128;&#1114111;&#1114112;", "&#;&#a;",
        "&a;mp;", "&&amp;", "&amp", "&nbsp", "&1234567890;", "&123456789;",
        "&#00000065;", "&#000000065;", "&quot;;", "; &lt ; &gt;", "&"}) {
    EXPECT_EQ(Decode(s), reference::DecodeEntities(s)) << s;
  }
}

// -- Tokenizer ------------------------------------------------------------------

std::vector<Token> TokenizeAll(std::string_view html) {
  std::vector<Token> tokens;
  Tokenizer tokenizer(html);
  Token token;
  while (tokenizer.Next(&token)) tokens.push_back(token);
  return tokens;
}

TEST(TokenizerTest, BasicTags) {
  auto tokens = TokenizeAll("<html><body>Hi</body></html>");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kStartTag);
  EXPECT_EQ(tokens[0].text, "html");
  EXPECT_EQ(tokens[2].kind, TokenKind::kText);
  EXPECT_EQ(tokens[2].text, "Hi");
  EXPECT_EQ(tokens[3].kind, TokenKind::kEndTag);
  EXPECT_EQ(tokens[3].text, "body");
}

TEST(TokenizerTest, AttributesQuotedAndBare) {
  auto tokens = TokenizeAll("<a href=\"http://x/y\" target=_top checked>");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].Attr("href"), "http://x/y");
  EXPECT_EQ(tokens[0].Attr("target"), "_top");
  EXPECT_EQ(tokens[0].Attr("checked"), "");
  EXPECT_EQ(tokens[0].Attr("absent"), "");
}

TEST(TokenizerTest, AttributeNamesLowerCased) {
  auto tokens = TokenizeAll("<A HREF='x'>");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_TRUE(tokens[0].NameIs("a"));
  EXPECT_EQ(tokens[0].Attr("href"), "x");
}

TEST(TokenizerTest, CommentsAndDoctype) {
  auto tokens = TokenizeAll("<!DOCTYPE html><!-- note -->text");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kDoctype);
  EXPECT_EQ(tokens[1].kind, TokenKind::kComment);
  EXPECT_EQ(tokens[1].text, " note ");
  EXPECT_EQ(tokens[2].kind, TokenKind::kText);
}

TEST(TokenizerTest, SelfClosingTag) {
  auto tokens = TokenizeAll("<hr/>");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_TRUE(tokens[0].SelfClosing());
}

TEST(TokenizerTest, MalformedInputNeverCrashes) {
  for (const char* input :
       {"<", "<>", "< >", "<a", "<!--", "<a href=\"unterminated",
        "</", "<<<>>>", "a<b>c<", "<a href=>"}) {
    auto tokens = TokenizeAll(input);
    (void)tokens;  // tolerance: any output is fine, just no crash
  }
}

TEST(TokenizerTest, MatchesReferenceTokenStream) {
  // Adjacent text tokens merged (the new tokenizer splits "</ x>" in two),
  // then kind, name, self-closing flag and href/src compared one for one.
  for (const std::string& html : reference::EdgeCaseDocuments()) {
    std::vector<reference::Token> want = reference::Tokenize(html);
    std::vector<Token> got = TokenizeAll(html);
    std::vector<std::string> got_text;
    size_t g = 0;
    for (size_t w = 0; w < want.size(); ++w, ++g) {
      ASSERT_LT(g, got.size()) << html;
      EXPECT_EQ(static_cast<int>(got[g].kind), static_cast<int>(want[w].kind))
          << html;
      if (want[w].kind == reference::TokenKind::kText) {
        std::string text(got[g].text);
        while (text.size() < want[w].text.size() && g + 1 < got.size() &&
               got[g + 1].kind == TokenKind::kText) {
          text += got[++g].text;
        }
        EXPECT_EQ(text, want[w].text) << html;
        continue;
      }
      if (want[w].kind == reference::TokenKind::kStartTag ||
          want[w].kind == reference::TokenKind::kEndTag) {
        EXPECT_TRUE(got[g].NameIs(want[w].text)) << html;
      } else {
        EXPECT_EQ(got[g].text, want[w].text) << html;
      }
      if (want[w].kind == reference::TokenKind::kStartTag) {
        EXPECT_EQ(got[g].SelfClosing(), want[w].self_closing) << html;
        EXPECT_EQ(got[g].Attr("href"), want[w].Attr("href")) << html;
        EXPECT_EQ(got[g].Attr("src"), want[w].Attr("src")) << html;
      }
    }
    EXPECT_EQ(g, got.size()) << html;
  }
}

// -- Document parser --------------------------------------------------------------

Url TestUrl() { return ParseUrl("http://host.example/dir/page").value(); }

TEST(ParserTest, TitleAndText) {
  const ParsedDocument doc = ParseDocument(
      TestUrl(),
      "<html><head><title> My   Title </title></head>"
      "<body><p>Hello  world</p></body></html>");
  EXPECT_EQ(doc.title, "My Title");
  EXPECT_EQ(doc.text, "Hello world");
  EXPECT_GT(doc.length, 0u);
}

TEST(ParserTest, AnchorsExtractedAndClassified) {
  const ParsedDocument doc = ParseDocument(
      TestUrl(),
      "<a href=\"other\">Sibling</a>"
      "<a href=\"http://elsewhere.example/\">Away</a>"
      "<a href=\"#sec\">Here</a>"
      "<a href=\"\">skipped</a>");
  ASSERT_EQ(doc.anchors.size(), 3u);
  EXPECT_EQ(doc.anchors[0].label, "Sibling");
  EXPECT_EQ(doc.anchors[0].resolved.ToString(), "http://host.example/dir/other");
  EXPECT_EQ(doc.anchors[0].ltype, LinkType::kLocal);
  EXPECT_EQ(doc.anchors[1].ltype, LinkType::kGlobal);
  EXPECT_EQ(doc.anchors[2].ltype, LinkType::kInterior);
}

TEST(ParserTest, AnchorLabelDecodedAndCollapsed) {
  const ParsedDocument doc = ParseDocument(
      TestUrl(), "<a href=\"x\">  A &amp;  B  </a>");
  ASSERT_EQ(doc.anchors.size(), 1u);
  EXPECT_EQ(doc.anchors[0].label, "A & B");
}

TEST(ParserTest, ContainerRelInfons) {
  const ParsedDocument doc = ParseDocument(
      TestUrl(), "<b>bold bit</b><h2>head</h2><p>para text</p>");
  ASSERT_EQ(doc.rel_infons.size(), 3u);
  EXPECT_EQ(doc.rel_infons[0].delimiter, "b");
  EXPECT_EQ(doc.rel_infons[0].text, "bold bit");
  EXPECT_EQ(doc.rel_infons[1].delimiter, "h2");
  EXPECT_EQ(doc.rel_infons[2].delimiter, "p");
}

TEST(ParserTest, HrRelInfonsCaptureBlockBeforeRule) {
  const ParsedDocument doc = ParseDocument(
      TestUrl(),
      "intro words<hr>CONVENER Jayant Haritsa<hr>MEMBERS others<hr>");
  std::vector<std::string> hr_texts;
  for (const ParsedRelInfon& r : doc.rel_infons) {
    if (r.delimiter == "hr") hr_texts.push_back(r.text);
  }
  ASSERT_EQ(hr_texts.size(), 3u);
  EXPECT_EQ(hr_texts[0], "intro words");
  EXPECT_EQ(hr_texts[1], "CONVENER Jayant Haritsa");
  EXPECT_EQ(hr_texts[2], "MEMBERS others");
}

TEST(ParserTest, NestedContainersEachProduceRelInfon) {
  const ParsedDocument doc =
      ParseDocument(TestUrl(), "<p>outer <b>inner</b> tail</p>");
  ASSERT_EQ(doc.rel_infons.size(), 2u);
  EXPECT_EQ(doc.rel_infons[0].delimiter, "b");
  EXPECT_EQ(doc.rel_infons[0].text, "inner");
  EXPECT_EQ(doc.rel_infons[1].delimiter, "p");
  EXPECT_EQ(doc.rel_infons[1].text, "outer inner tail");
}

TEST(ParserTest, ScriptAndStyleContentSkipped) {
  const ParsedDocument doc = ParseDocument(
      TestUrl(),
      "before<script>var x = '<b>not text</b>';</script>after"
      "<style>b { color: red }</style>");
  EXPECT_EQ(doc.text, "beforeafter");
  EXPECT_TRUE(doc.rel_infons.empty());
}

TEST(ParserTest, MisnestedTagsRecovered) {
  const ParsedDocument doc =
      ParseDocument(TestUrl(), "<b><i>both</b></i> rest");
  // No crash; the <b> rel-infon covers "both".
  bool found_b = false;
  for (const ParsedRelInfon& r : doc.rel_infons) {
    if (r.delimiter == "b") {
      found_b = true;
      EXPECT_EQ(r.text, "both");
    }
  }
  EXPECT_TRUE(found_b);
}

TEST(ParserTest, UnresolvableHrefDropped) {
  const ParsedDocument doc =
      ParseDocument(TestUrl(), "<a href=\"   \">blank</a>ok");
  EXPECT_TRUE(doc.anchors.empty());
}

TEST(ParserTest, FramesAndAreasAreAnchors) {
  const ParsedDocument doc = ParseDocument(
      TestUrl(),
      "<frameset><frame src=\"/nav.html\"><frame src=\"body.html\">"
      "</frameset>"
      "<map><area href=\"http://far.example/x\"></map>"
      "<iframe src=\"/embedded\"></iframe>"
      "<frame>");  // src-less frame ignored
  ASSERT_EQ(doc.anchors.size(), 4u);
  EXPECT_EQ(doc.anchors[0].label, "[frame]");
  EXPECT_EQ(doc.anchors[0].resolved.ToString(), "http://host.example/nav.html");
  EXPECT_EQ(doc.anchors[0].ltype, LinkType::kLocal);
  EXPECT_EQ(doc.anchors[1].resolved.ToString(),
            "http://host.example/dir/body.html");
  EXPECT_EQ(doc.anchors[2].label, "[area]");
  EXPECT_EQ(doc.anchors[2].ltype, LinkType::kGlobal);
  EXPECT_EQ(doc.anchors[3].label, "[iframe]");
}

TEST(ParserTest, EntitiesDecodedInTextAndTitle) {
  const ParsedDocument doc = ParseDocument(
      TestUrl(), "<title>A &amp; B</title><p>x &lt; y</p>");
  EXPECT_EQ(doc.title, "A & B");
  EXPECT_EQ(doc.text, "x < y");
}

// -- Differential oracle: ParseDocument against the reference ---------------------

// The reference pipeline (tests/html_reference.h) is the parser's
// specification: every field of every parse must match it exactly.

std::string DifferenceFromReference(const Url& url, std::string_view html) {
  return reference::FirstDifference(ParseDocument(url, html),
                                    reference::ParseDocument(url, html));
}

TEST(StringsTest, CollapseWhitespace) {
  EXPECT_EQ(reference::CollapseWhitespace("  a\n\t b   c "), "a b c");
  EXPECT_EQ(reference::CollapseWhitespace("\n \t"), "");
}

TEST(HtmlDifferentialTest, EdgeCasesMatchReference) {
  for (const std::string& html : reference::EdgeCaseDocuments()) {
    EXPECT_EQ(DifferenceFromReference(TestUrl(), html), "") << html;
  }
}

TEST(HtmlDifferentialTest, BenchmarkWebPagesMatchReference) {
  // The page shapes of the three benchmark workloads at reduced size: the
  // lazy wide web (six 60-word paragraphs a page), the eager shared web
  // (generator defaults) and the campus web. Each graph's own parse, made
  // when the page was materialized, is checked.
  for (const uint64_t seed : {1, 7919}) {
    std::vector<web::WebGraph> webs;
    web::SynthWebOptions wide;
    wide.seed = seed;
    wide.num_sites = 10;
    wide.docs_per_site = 10;
    wide.filler_paragraphs = 6;
    wide.words_per_paragraph = 60;
    wide.lazy_pages = true;
    webs.push_back(web::GenerateSynthWeb(wide));
    web::SynthWebOptions shared;
    shared.seed = seed;
    shared.num_sites = 8;
    shared.docs_per_site = 8;
    webs.push_back(web::GenerateSynthWeb(shared));
    web::UniversityOptions campus;
    campus.seed = seed;
    campus.departments = 2;
    campus.labs_per_department = 2;
    webs.push_back(web::GenerateUniversityWeb(campus).web);
    size_t pages = 0;
    for (const web::WebGraph& web : webs) {
      for (const std::string& key : web.AllUrls()) {
        const web::WebGraph::Document* doc = web.Find(key);
        ASSERT_NE(doc, nullptr) << key;
        EXPECT_EQ(reference::FirstDifference(
                      doc->parsed,
                      reference::ParseDocument(doc->url, doc->raw_html)),
                  "")
            << key;
        ++pages;
      }
    }
    EXPECT_GE(pages, 180u) << "seed " << seed;
  }
}

/// One seeded tag-soup document: tags, text and debris drawn with a bias
/// toward the grammar's special cases.
std::string TagSoup(Rng* rng) {
  static constexpr std::string_view kNames[] = {
      "a",      "A",     "b",      "B",     "i",      "em",     "strong",
      "h1",     "H2",    "h3",     "h6",    "p",      "P",      "li",
      "td",     "th",    "pre",    "center", "font",  "blockquote",
      "hr",     "HR",    "br",     "Br",    "title",  "TITLE",  "script",
      "Script", "style", "frame",  "iframe", "area",  "AREA",   "ul",
      "div",    "h7",    "x-y",    "_u",
  };
  static constexpr std::string_view kAttributes[] = {
      "",
      "",
      " href=\"x\"",
      " href='/a/b'",
      " href=a/b/c",
      " HREF=/abs/",
      " href=x/",
      " href=\"\"",
      " href=\"http://other.example/p#f\"",
      " href=#frag",
      " href=../up/./x",
      " href=//d",
      " href=\"mailto:x\"",
      " href=\"  \"",
      " src=f",
      " SRC=\"/g\"",
      " href=\"first\" href=\"second\"",
      " href=\"\" href=x",
      " checked",
      " a=1 / b",
      " / href=\"s\"",
      " !@#",
      " href = \"sp aced\"",
      " title=\"a>b\"",
  };
  static constexpr std::string_view kTagEnds[] = {">", ">", ">", "/>",
                                                  " />", "/ >", " >"};
  static constexpr std::string_view kText[] = {
      "alpha", "beta",   "CONVENER", "x",       " ",     "  ",     "\t",
      "\n",    "\v",     "\f",       "\r",      "&amp;", "&lt;",   "&gt;",
      "&quot;", "&apos;", "&nbsp;",  "&#0;",    "&#10;", "&#65;",  "&#200;",
      "&#;",   "&bogus;", "&amp",    "&am",     "p;",    "&#1",    "0;",
      "&",     ";",      "&#1114111;", "&#9999999;", "&#00000065;",
      "&#000000065;",
  };
  static constexpr std::string_view kDebris[] = {
      "<>",   "< >", "</ >", "</>",   "<//>", "<!-- c -->", "<!---->",
      "<!-->", "-->", "<!DOCTYPE html>", "<!x>", ">",    "</ x&amp;y>",
  };
  static constexpr std::string_view kUnterminated[] = {
      "<", "<a href=\"x", "<!--", "<!-- <b>x</b>", "<!x", "</b", "<p"};
  const auto pick = [rng](const auto& table) {
    return table[rng->Uniform(std::size(table))];
  };

  std::string html;
  const uint64_t pieces = rng->UniformRange(1, 40);
  for (uint64_t n = 0; n < pieces; ++n) {
    const uint64_t kind = rng->Uniform(20);
    if (kind < 7) {
      html += pick(kText);
    } else if (kind < 13) {
      html += "<";
      html += pick(kNames);
      html += pick(kAttributes);
      html += pick(kTagEnds);
    } else if (kind < 18) {
      html += "</";
      html += pick(kNames);
      html += rng->Bernoulli(0.2) ? " >" : ">";
    } else {
      html += pick(kDebris);
    }
  }
  if (rng->Bernoulli(0.1)) html += pick(kUnterminated);
  return html;
}

TEST(HtmlDifferentialTest, TagSoupMatchesReference) {
  const Url bases[] = {TestUrl(), ParseUrl("http://h/").value(),
                       ParseUrl("http://other.example/a/b/").value()};
  Rng rng(20240614);
  for (int i = 0; i < 100000; ++i) {
    const std::string html = TagSoup(&rng);
    const Url& base = bases[static_cast<size_t>(i) % std::size(bases)];
    const std::string difference = DifferenceFromReference(base, html);
    ASSERT_EQ(difference, "") << "document " << i << ": " << html;
  }
}

}  // namespace
}  // namespace webdis::html
