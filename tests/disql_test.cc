#include <gtest/gtest.h>

#include "common/strings.h"
#include "disql/ast.h"
#include "disql/compiler.h"
#include "disql/lexer.h"
#include "query/node_query.h"
#include "serialize/encoder.h"

namespace webdis::disql {
namespace {

// -- Lexer ----------------------------------------------------------------------

TEST(LexerTest, KeywordsCaseInsensitive) {
  auto tokens = Lex("SELECT from Where DOCUMENT");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 5u);  // 4 + end
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ((*tokens)[static_cast<size_t>(i)].kind, TokenKind::kKeyword);
  }
  EXPECT_EQ((*tokens)[0].text, "select");
  EXPECT_EQ((*tokens)[3].text, "document");
}

TEST(LexerTest, IdentifiersKeepCase) {
  auto tokens = Lex("d0 myAlias");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIdent);
  EXPECT_EQ((*tokens)[1].text, "myAlias");
}

TEST(LexerTest, StringsAndNumbers) {
  auto tokens = Lex("\"http://x/y\" 42");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[0].text, "http://x/y");
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kNumber);
  EXPECT_EQ((*tokens)[1].number, 42u);
}

TEST(LexerTest, OperatorsAndPunctuation) {
  auto tokens = Lex(", . * | ( ) = != <> < <= > >=");
  ASSERT_TRUE(tokens.ok());
  const std::vector<TokenKind> expected{
      TokenKind::kComma, TokenKind::kDot,   TokenKind::kStar,
      TokenKind::kPipe,  TokenKind::kLParen, TokenKind::kRParen,
      TokenKind::kEq,    TokenKind::kNe,    TokenKind::kNe,
      TokenKind::kLt,    TokenKind::kLe,    TokenKind::kGt,
      TokenKind::kGe,    TokenKind::kEnd};
  ASSERT_EQ(tokens->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*tokens)[i].kind, expected[i]) << i;
  }
}

TEST(LexerTest, MiddleDotIsDot) {
  auto tokens = Lex("G\xC2\xB7L");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 4u);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kDot);
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = Lex("select -- this is a comment\n d0");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 3u);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Lex("\"unterminated").ok());
  EXPECT_FALSE(Lex("a ! b").ok());
  EXPECT_FALSE(Lex("$").ok());
  EXPECT_FALSE(Lex("99999999999999999999").ok());
}

// -- Parser ---------------------------------------------------------------------

constexpr const char* kExample1 =
    "select a.base, a.href\n"
    "from document d such that \"http://dsl.serc.iisc.ernet.in\" L* d\n"
    "     anchor a\n"
    "where a.ltype = \"G\"\n";

constexpr const char* kExample2 =
    "select d0.url, d1.url, r.text\n"
    "from document d0 such that \"http://csa.iisc.ernet.in\" L d0,\n"
    "where d0.title contains \"lab\"\n"
    "    document d1 such that d0 G.(L*1) d1,\n"
    "    relinfon r such that r.delimiter = \"hr\",\n"
    "where (r.text contains \"convener\")\n";

TEST(ParserTest, PaperExampleQuery1) {
  auto q = ParseDisql(kExample1);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->select.size(), 2u);
  EXPECT_EQ(q->select[0].Label(), "a.base");
  ASSERT_EQ(q->steps.size(), 1u);
  const Step& step = q->steps[0];
  EXPECT_EQ(step.doc_alias, "d");
  ASSERT_EQ(step.start_urls.size(), 1u);
  EXPECT_EQ(step.start_urls[0], "http://dsl.serc.iisc.ernet.in");
  EXPECT_TRUE(step.pre.Equals(pre::Pre::Parse("L*").value()));
  ASSERT_EQ(step.aux.size(), 1u);
  EXPECT_EQ(step.aux[0].relation, "anchor");
  EXPECT_EQ(step.aux[0].alias, "a");
  ASSERT_NE(step.where, nullptr);
  EXPECT_EQ(step.where->ToString(), "(a.ltype = \"G\")");
}

TEST(ParserTest, PaperExampleQuery2) {
  auto q = ParseDisql(kExample2);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->steps.size(), 2u);
  const Step& s0 = q->steps[0];
  EXPECT_EQ(s0.doc_alias, "d0");
  EXPECT_TRUE(s0.pre.Equals(pre::Pre::Parse("L").value()));
  EXPECT_EQ(s0.where->ToString(), "(d0.title contains \"lab\")");
  const Step& s1 = q->steps[1];
  EXPECT_EQ(s1.doc_alias, "d1");
  EXPECT_EQ(s1.source_alias, "d0");
  EXPECT_TRUE(s1.pre.Equals(pre::Pre::Parse("G.(L*1)").value()));
  ASSERT_EQ(s1.aux.size(), 1u);
  EXPECT_EQ(s1.aux[0].relation, "relinfon");
  EXPECT_EQ(s1.aux[0].such_that->ToString(), "(r.delimiter = \"hr\")");
  EXPECT_EQ(s1.where->ToString(), "(r.text contains \"convener\")");
}

TEST(ParserTest, MultipleStartNodes) {
  auto q = ParseDisql(
      "select d.url from document d such that "
      "(\"http://a/\", \"http://b/\") L*1 d");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->steps[0].start_urls,
            (std::vector<std::string>{"http://a/", "http://b/"}));
}

TEST(ParserTest, ToStringReparses) {
  for (const char* text : {kExample1, kExample2}) {
    auto q = ParseDisql(text);
    ASSERT_TRUE(q.ok());
    auto again = ParseDisql(q->ToString());
    ASSERT_TRUE(again.ok()) << q->ToString() << "\n"
                            << again.status().ToString();
    EXPECT_EQ(q->ToString(), again->ToString());
  }
}

TEST(ParserTest, ErrorMissingSelect) {
  EXPECT_FALSE(ParseDisql("from document d such that \"u\" L d").ok());
}

TEST(ParserTest, ErrorTargetAliasMismatch) {
  auto q = ParseDisql("select d.url from document d such that \"u\" L e");
  EXPECT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("does not match"), std::string::npos);
}

TEST(ParserTest, ErrorLinkSymbolAlias) {
  EXPECT_FALSE(
      ParseDisql("select L.url from document L such that \"u\" G L").ok());
}

TEST(ParserTest, ErrorNoSteps) {
  EXPECT_FALSE(ParseDisql("select a.b from").ok());
}

TEST(ParserTest, ErrorTrailingGarbage) {
  EXPECT_FALSE(
      ParseDisql("select d.url from document d such that \"u\" L d banana")
          .ok());
}

// -- Compiler ---------------------------------------------------------------------

TEST(CompilerTest, Example2SplitsSelectAcrossNodeQueries) {
  auto compiled = CompileDisql(kExample2);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const query::WebQuery& wq = compiled->web_query;
  ASSERT_EQ(wq.remaining_queries.size(), 2u);
  ASSERT_EQ(wq.future_pres.size(), 1u);
  // q1 projects only d0.url.
  EXPECT_EQ(wq.remaining_queries[0].select.select.size(), 1u);
  EXPECT_EQ(wq.remaining_queries[0].select.select[0].Label(), "d0.url");
  // q2 projects d1.url and r.text.
  ASSERT_EQ(wq.remaining_queries[1].select.select.size(), 2u);
  EXPECT_EQ(wq.remaining_queries[1].select.select[0].Label(), "d1.url");
  EXPECT_EQ(wq.remaining_queries[1].select.select[1].Label(), "r.text");
  // q2's where merges the relinfon such-that with the step where.
  EXPECT_NE(wq.remaining_queries[1].select.where, nullptr);
  const std::string where = wq.remaining_queries[1].select.where->ToString();
  EXPECT_NE(where.find("r.delimiter"), std::string::npos);
  EXPECT_NE(where.find("convener"), std::string::npos);
  // PRE pipeline: rem = L, future = G.(L*1).
  EXPECT_TRUE(wq.rem_pre.Equals(pre::Pre::Parse("L").value()));
  EXPECT_TRUE(wq.future_pres[0].Equals(pre::Pre::Parse("G.(L*1)").value()));
  // The formal notation renders.
  EXPECT_NE(compiled->ToString().find("Q = {http://csa.iisc.ernet.in}"),
            std::string::npos);
}

TEST(CompilerTest, StepWithNoSelectedColumnsProjectsUrl) {
  auto compiled = CompileDisql(
      "select d1.url\n"
      "from document d0 such that \"http://a/\" L d0,\n"
      "where d0.title contains \"x\"\n"
      "     document d1 such that d0 G d1\n");
  ASSERT_TRUE(compiled.ok());
  // d0 has no user columns; the compiler projects d0.url so the
  // answer-found test is meaningful.
  EXPECT_EQ(compiled->web_query.remaining_queries[0].select.select[0].Label(),
            "d0.url");
}

TEST(CompilerTest, ErrorChainBroken) {
  auto compiled = CompileDisql(
      "select d1.url\n"
      "from document d0 such that \"http://a/\" L d0,\n"
      "     document d1 such that dX G d1\n");
  EXPECT_FALSE(compiled.ok());
  EXPECT_NE(compiled.status().message().find("chain"), std::string::npos);
}

TEST(CompilerTest, ErrorDuplicateAlias) {
  EXPECT_FALSE(CompileDisql(
                   "select d.url\n"
                   "from document d such that \"http://a/\" L d,\n"
                   "     anchor d\n")
                   .ok());
}

TEST(CompilerTest, ErrorCrossStepPredicate) {
  // d0 referenced in step 2's where: node-queries must be locally evaluable.
  auto compiled = CompileDisql(
      "select d1.url\n"
      "from document d0 such that \"http://a/\" L d0,\n"
      "     document d1 such that d0 G d1,\n"
      "where d0.title contains \"x\"\n");
  EXPECT_FALSE(compiled.ok());
  EXPECT_NE(compiled.status().message().find("locally"), std::string::npos);
}

TEST(CompilerTest, ErrorUnknownColumn) {
  EXPECT_FALSE(CompileDisql(
                   "select d.bogus\n"
                   "from document d such that \"http://a/\" L d\n")
                   .ok());
  EXPECT_FALSE(CompileDisql(
                   "select d.url\n"
                   "from document d such that \"http://a/\" L d,\n"
                   "where d.nope = \"x\"\n")
                   .ok());
}

TEST(CompilerTest, ErrorSelectUndeclaredAlias) {
  EXPECT_FALSE(CompileDisql(
                   "select z.url\n"
                   "from document d such that \"http://a/\" L d\n")
                   .ok());
}

TEST(CompilerTest, ExplainRendersEveryStage) {
  auto compiled = CompileDisql(kExample2);
  ASSERT_TRUE(compiled.ok());
  const std::string plan = ExplainQuery(compiled.value());
  EXPECT_NE(plan.find("StartNodes (1)"), std::string::npos);
  EXPECT_NE(plan.find("stage 1"), std::string::npos);
  EXPECT_NE(plan.find("stage 2"), std::string::npos);
  EXPECT_NE(plan.find("PRE: L"), std::string::npos);
  EXPECT_NE(plan.find("PRE: G.L*1"), std::string::npos);
  // Stage 1's PRE L is not nullable; stage 2's G.(L*1) is not either.
  EXPECT_NE(plan.find("evaluated at traversal distance zero: no"),
            std::string::npos);
  EXPECT_NE(plan.find("fans out on link types: {L}"), std::string::npos);
  EXPECT_NE(plan.find("clone wire size"), std::string::npos);
}

TEST(CompilerTest, ExplainShowsNullableStage) {
  auto compiled = CompileDisql(
      "select d.url from document d such that \"http://a/\" L*2 d");
  ASSERT_TRUE(compiled.ok());
  const std::string plan = ExplainQuery(compiled.value());
  EXPECT_NE(plan.find("evaluated at traversal distance zero: yes"),
            std::string::npos);
}

TEST(CompilerTest, CompiledWebQuerySerializes) {
  auto compiled = CompileDisql(kExample2);
  ASSERT_TRUE(compiled.ok());
  query::WebQuery wq = compiled->web_query.Clone();
  wq.dest_urls.push_back("http://csa.iisc.ernet.in/");
  serialize::Encoder enc;
  wq.EncodeTo(&enc);
  serialize::Decoder dec(enc.data());
  query::WebQuery out;
  ASSERT_TRUE(query::WebQuery::DecodeFrom(&dec, &out).ok());
  EXPECT_EQ(out.remaining_queries.size(), 2u);
  EXPECT_TRUE(out.rem_pre.Equals(wq.rem_pre));
  EXPECT_EQ(out.remaining_queries[1].ToString(),
            wq.remaining_queries[1].ToString());
}

TEST(CompilerTest, CheapConjunctsComeFirst) {
  // Example Query 2's second step: its where clause scans r.text, its
  // such-that condition compares r.delimiter. The comparison goes first, so
  // the scan runs only on hr rel-infons.
  auto campus = CompileDisql(kExample2);
  ASSERT_TRUE(campus.ok()) << campus.status().ToString();
  EXPECT_EQ(campus->web_query.remaining_queries[1].select.where->ToString(),
            "((r.delimiter = \"hr\") and (r.text contains \"convener\"))");

  // The where clause's conjuncts, then the such-that conditions', form one
  // left-deep conjunction. Every conjunct without a `contains` precedes
  // every conjunct with one (an `or` holding a `contains` counts as one);
  // source order holds otherwise.
  auto mixed = CompileDisql(
      "select d.url from document d such that \"http://a/\" N d,\n"
      "    relinfon r such that r.text contains \"z\" and r.length < 40,\n"
      "where d.title contains \"x\" and d.length > 3 and\n"
      "    (d.text contains \"y\" or d.length < 9) and not d.url = \"u\"\n");
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  EXPECT_EQ(mixed->web_query.remaining_queries[0].select.where->ToString(),
            "((((((d.length > 3) and (not (d.url = \"u\"))) and "
            "(r.length < 40)) and (d.title contains \"x\")) and "
            "((d.text contains \"y\") or (d.length < 9))) and "
            "(r.text contains \"z\"))");
}

TEST(CompilerTest, SingleConjunctStepsCompileAsBefore) {
  // Wire bytes of node-queries whose step has one conjunct or none, pinned
  // from the compiler before it ordered conjuncts: the benchmark workloads'
  // queries, Example Query 2's first step, and a such-that-only step.
  const struct {
    const char* disql;
    const char* hex;
  } kCases[] = {
      {"select d.url, d.title from document d such that "
       "\"http://site0.example/\" (L|G)*3 d where d.title contains \"alpha\"",
       "01640108646f63756d656e7401640103010164057469746c65000205616c706861"
       "0201640375726c0164057469746c6501"},
      {"select d.url from document d such that \"http://site1.example/\" "
       "(L|G)*3 d where d.length > 321",
       "01640108646f63756d656e740164010204010164066c656e67746800014101000000"
       "0000000101640375726c01"},
      {"select d0.url from document d0 such that \"http://www.univ.edu/\" "
       "G.L d0, where d0.title contains \"laborator\"",
       "0264300108646f63756d656e74026430010301026430057469746c650002096c6162"
       "6f7261746f72010264300375726c01"},
      {"select a.href from document d such that \"http://h/\" N d, "
       "anchor a such that a.ltype = \"G\"",
       "01640208646f63756d656e74016406616e63686f720161010200010161056c747970"
       "6500020147010161046872656601"},
      {"select d.url from document d such that \"http://a/\" L d",
       "01640108646f63756d656e740164000101640375726c01"},
  };
  for (const auto& c : kCases) {
    auto compiled = CompileDisql(c.disql);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    ASSERT_EQ(compiled->web_query.remaining_queries.size(), 1u);
    serialize::Encoder enc;
    compiled->web_query.remaining_queries[0].EncodeTo(&enc);
    std::string hex;
    for (const uint8_t b : enc.data()) hex += StringPrintf("%02x", b);
    EXPECT_EQ(hex, c.hex) << c.disql;
  }
}

}  // namespace
}  // namespace webdis::disql
