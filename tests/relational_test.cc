#include <gtest/gtest.h>

#include <cctype>
#include <set>

#include "common/rng.h"
#include "common/strings.h"
#include "relational/eval.h"
#include "relational/expr.h"
#include "relational/table.h"
#include "relational/value.h"
#include "relational_reference.h"
#include "serialize/encoder.h"
#include "server/db_constructor.h"
#include "web/synth.h"
#include "web/university.h"

namespace webdis::relational {
namespace {

// -- Value ----------------------------------------------------------------------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(static_cast<int64_t>(7)).AsInt(), 7);
  EXPECT_EQ(Value(std::string("x")).AsString(), "x");
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_EQ(Value(static_cast<int64_t>(0)).type(), ValueType::kInt);
  EXPECT_EQ(Value(std::string()).type(), ValueType::kString);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(static_cast<int64_t>(-5)).ToString(), "-5");
  EXPECT_EQ(Value(std::string("abc")).ToString(), "abc");
}

TEST(ValueTest, SqlEqualsNullNeverEqual) {
  EXPECT_FALSE(Value().SqlEquals(Value()));
  EXPECT_FALSE(Value().SqlEquals(Value(static_cast<int64_t>(1))));
  EXPECT_TRUE(Value(static_cast<int64_t>(1))
                  .SqlEquals(Value(static_cast<int64_t>(1))));
  EXPECT_FALSE(Value(static_cast<int64_t>(1)).SqlEquals(Value(std::string("1"))));
}

TEST(ValueTest, CompareOrdersWithinAndAcrossTypes) {
  EXPECT_LT(Value(static_cast<int64_t>(1)).Compare(Value(static_cast<int64_t>(2))), 0);
  EXPECT_GT(Value(std::string("b")).Compare(Value(std::string("a"))), 0);
  EXPECT_EQ(Value(std::string("a")).Compare(Value(std::string("a"))), 0);
  // Null sorts first, ints before strings (type-id order).
  EXPECT_LT(Value().Compare(Value(static_cast<int64_t>(0))), 0);
  EXPECT_LT(Value(static_cast<int64_t>(99)).Compare(Value(std::string(""))), 0);
}

TEST(ValueTest, SerializationRoundTrip) {
  for (const Value& v : {Value(), Value(static_cast<int64_t>(-42)),
                         Value(std::string("hello \x01 world"))}) {
    serialize::Encoder enc;
    v.EncodeTo(&enc);
    serialize::Decoder dec(enc.data());
    Value out;
    ASSERT_TRUE(Value::DecodeFrom(&dec, &out).ok());
    EXPECT_TRUE(v == out);
  }
}

// -- Table ----------------------------------------------------------------------

TEST(TableTest, InsertValidatesArity) {
  Table t(DocumentSchema());
  EXPECT_EQ(t.Insert({Value(std::string("u"))}).code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, InsertValidatesTypes) {
  Table t(DocumentSchema());
  // length column must be int.
  EXPECT_EQ(t.Insert({Value(std::string("u")), Value(std::string("t")),
                      Value(std::string("x")), Value(std::string("not int"))})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(t.Insert({Value(std::string("u")), Value(std::string("t")),
                        Value(std::string("x")),
                        Value(static_cast<int64_t>(3))})
                  .ok());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableTest, NullAllowedForAnyColumn) {
  Table t(DocumentSchema());
  EXPECT_TRUE(
      t.Insert({Value(), Value(), Value(), Value()}).ok());
}

TEST(SchemaTest, IndexOf) {
  EXPECT_EQ(DocumentSchema().IndexOf("url"), 0);
  EXPECT_EQ(DocumentSchema().IndexOf("length"), 3);
  EXPECT_EQ(DocumentSchema().IndexOf("nope"), -1);
}

TEST(DatabaseTest, PutFindNames) {
  Database db;
  db.Put("document", Table(DocumentSchema()));
  db.Put("anchor", Table(AnchorSchema()));
  EXPECT_NE(db.Find("document"), nullptr);
  EXPECT_EQ(db.Find("missing"), nullptr);
  EXPECT_EQ(db.RelationNames(),
            (std::vector<std::string>{"anchor", "document"}));
}

// -- Expr ----------------------------------------------------------------------

Tuple DocRow(const std::string& url, const std::string& title,
             const std::string& text, int64_t length) {
  return {Value(url), Value(title), Value(text), Value(length)};
}

/// Runs `where` as the filter of a select over one DOCUMENT row aliased
/// "d": whether the row passes, or the evaluation error.
Result<bool> Holds(ExprPtr where) {
  Database db;
  Table doc(DocumentSchema());
  EXPECT_TRUE(doc.Insert(DocRow("u", "t", "x", 5)).ok());
  db.Put("document", std::move(doc));
  SelectQuery q;
  q.from = {{"document", "d"}};
  q.where = std::move(where);
  q.select = {{"d", "url"}};
  Result<ResultSet> rs = Execute(q, db);
  if (!rs.ok()) return rs.status();
  return !rs->rows.empty();
}

ExprPtr Str(const std::string& s) { return Expr::Literal(Value(s)); }

TEST(ExprTest, ColumnRefLookup) {
  EXPECT_TRUE(Holds(Expr::Compare(CompareOp::kEq,
                                  Expr::ColumnRef("d", "title"), Str("t")))
                  .value());
  EXPECT_FALSE(Holds(Expr::Compare(CompareOp::kEq,
                                   Expr::ColumnRef("d", "title"), Str("u")))
                   .value());
  EXPECT_TRUE(Holds(Expr::Compare(
                        CompareOp::kEq, Expr::ColumnRef("d", "length"),
                        Expr::Literal(Value(static_cast<int64_t>(5)))))
                  .value());
}

TEST(ExprTest, UnboundAliasAndBadColumnError) {
  EXPECT_EQ(Holds(Expr::ColumnRef("z", "title")).status().ToString(),
            "InvalidArgument: unbound alias 'z'");
  EXPECT_EQ(Holds(Expr::ColumnRef("d", "bogus")).status().ToString(),
            "InvalidArgument: relation aliased 'd' has no column 'bogus'");
}

TEST(ExprTest, ComparisonsOnInts) {
  const auto lit = [](int64_t v) { return Expr::Literal(Value(v)); };
  const auto eval = [&](CompareOp op, int64_t a, int64_t b) {
    return Holds(Expr::Compare(op, lit(a), lit(b))).value();
  };
  EXPECT_TRUE(eval(CompareOp::kEq, 3, 3));
  EXPECT_FALSE(eval(CompareOp::kEq, 3, 4));
  EXPECT_TRUE(eval(CompareOp::kNe, 3, 4));
  EXPECT_TRUE(eval(CompareOp::kLt, 3, 4));
  EXPECT_TRUE(eval(CompareOp::kLe, 3, 3));
  EXPECT_TRUE(eval(CompareOp::kGt, 4, 3));
  EXPECT_TRUE(eval(CompareOp::kGe, 4, 4));
}

TEST(ExprTest, ContainsIsCaseInsensitive) {
  EXPECT_TRUE(
      Holds(Expr::Contains(Str("The CONVENER of the lab"), Str("convener")))
          .value());
}

TEST(ExprTest, ContainsOnNonStringIsFalse) {
  EXPECT_FALSE(Holds(Expr::Contains(
                         Expr::Literal(Value(static_cast<int64_t>(5))),
                         Str("5")))
                   .value());
}

TEST(ExprTest, LogicalOperatorsShortCircuit) {
  const auto t = [] { return Expr::Literal(Value(static_cast<int64_t>(1))); };
  const auto f = [] { return Expr::Literal(Value(static_cast<int64_t>(0))); };
  // Right side references an unbound alias: with short-circuit it is never
  // evaluated. The double negation keeps the `and` one conjunct, so only
  // the evaluator's short-circuit (not conjunct splitting) saves it.
  auto and_expr =
      Expr::Not(Expr::Not(Expr::And(f(), Expr::ColumnRef("zz", "url"))));
  EXPECT_FALSE(Holds(std::move(and_expr)).value());
  auto or_expr = Expr::Or(t(), Expr::ColumnRef("zz", "url"));
  EXPECT_TRUE(Holds(std::move(or_expr)).value());
  auto not_expr = Expr::Not(f());
  EXPECT_TRUE(Holds(std::move(not_expr)).value());
}

TEST(ExprTest, NullIsFalsy) {
  EXPECT_FALSE(Holds(Expr::Literal(Value())).value());
  EXPECT_TRUE(Holds(Expr::Not(Expr::Literal(Value()))).value());
}

TEST(ExprTest, CloneIsDeepAndEquivalent) {
  auto original = Expr::And(
      Expr::Contains(Expr::ColumnRef("d", "title"),
                     Expr::Literal(Value(std::string("lab")))),
      Expr::Compare(CompareOp::kGt, Expr::ColumnRef("d", "length"),
                    Expr::Literal(Value(static_cast<int64_t>(10)))));
  auto copy = original->Clone();
  EXPECT_EQ(original->ToString(), copy->ToString());
}

TEST(ExprTest, ToStringRendersDisqlish) {
  auto expr = Expr::Or(
      Expr::Compare(CompareOp::kEq, Expr::ColumnRef("a", "ltype"),
                    Expr::Literal(Value(std::string("G")))),
      Expr::Not(Expr::Contains(Expr::ColumnRef("d", "text"),
                               Expr::Literal(Value(std::string("x"))))));
  EXPECT_EQ(expr->ToString(),
            "((a.ltype = \"G\") or (not (d.text contains \"x\")))");
}

TEST(ExprTest, CollectAliases) {
  auto expr = Expr::And(
      Expr::Compare(CompareOp::kEq, Expr::ColumnRef("a", "x"),
                    Expr::ColumnRef("b", "y")),
      Expr::Contains(Expr::ColumnRef("a", "z"),
                     Expr::Literal(Value(std::string("k")))));
  std::vector<std::string> aliases;
  expr->CollectAliases(&aliases);
  EXPECT_EQ(aliases, (std::vector<std::string>{"a", "b"}));
}

TEST(ExprTest, SerializationRoundTrip) {
  auto original = Expr::And(
      Expr::Contains(Expr::ColumnRef("d", "title"),
                     Expr::Literal(Value(std::string("lab")))),
      Expr::Or(Expr::Compare(CompareOp::kLe, Expr::ColumnRef("d", "length"),
                             Expr::Literal(Value(static_cast<int64_t>(9)))),
               Expr::Not(Expr::Literal(Value()))));
  serialize::Encoder enc;
  original->EncodeTo(&enc);
  serialize::Decoder dec(enc.data());
  auto decoded = Expr::DecodeFrom(&dec);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ((*decoded)->ToString(), original->ToString());
  EXPECT_TRUE(dec.AtEnd());
}

TEST(ExprTest, DecodeRejectsGarbage) {
  const std::vector<uint8_t> garbage{200, 1, 2, 3};
  serialize::Decoder dec(garbage);
  EXPECT_FALSE(Expr::DecodeFrom(&dec).ok());
}

// -- Execute -----------------------------------------------------------------------

Database LabDatabase() {
  Database db;
  Table doc(DocumentSchema());
  EXPECT_TRUE(doc.Insert(DocRow("http://h/p", "Lab page", "welcome", 100))
                  .ok());
  db.Put("document", std::move(doc));
  Table anchor(AnchorSchema());
  EXPECT_TRUE(anchor
                  .Insert({Value(std::string("a1")), Value(std::string("http://h/p")),
                           Value(std::string("http://h/q")), Value(std::string("L"))})
                  .ok());
  EXPECT_TRUE(anchor
                  .Insert({Value(std::string("a2")), Value(std::string("http://h/p")),
                           Value(std::string("http://g/r")), Value(std::string("G"))})
                  .ok());
  db.Put("anchor", std::move(anchor));
  Table rel(RelInfonSchema());
  EXPECT_TRUE(rel.Insert({Value(std::string("hr")), Value(std::string("http://h/p")),
                          Value(std::string("CONVENER X")),
                          Value(static_cast<int64_t>(10))})
                  .ok());
  db.Put("relinfon", std::move(rel));
  return db;
}

TEST(ExecuteTest, SimpleSelectWithFilter) {
  Database db = LabDatabase();
  SelectQuery q;
  q.from = {{"document", "d"}, {"anchor", "a"}};
  q.where = Expr::Compare(CompareOp::kEq, Expr::ColumnRef("a", "ltype"),
                          Expr::Literal(Value(std::string("G"))));
  q.select = {{"a", "base"}, {"a", "href"}};
  auto rs = Execute(q, db);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][1].AsString(), "http://g/r");
  EXPECT_EQ(rs->column_labels, (std::vector<std::string>{"a.base", "a.href"}));
}

TEST(ExecuteTest, CrossProductCardinality) {
  Database db = LabDatabase();
  SelectQuery q;
  q.from = {{"document", "d"}, {"anchor", "a"}};
  q.select = {{"d", "url"}, {"a", "href"}};
  q.distinct = false;
  auto rs = Execute(q, db);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 2u);  // 1 document x 2 anchors
}

TEST(ExecuteTest, DistinctDropsDuplicateProjections) {
  Database db = LabDatabase();
  SelectQuery q;
  q.from = {{"document", "d"}, {"anchor", "a"}};
  q.select = {{"d", "url"}};  // same value for both anchor rows
  q.distinct = true;
  auto rs = Execute(q, db);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 1u);
}

TEST(ExecuteTest, EmptyResultWhenNothingMatches) {
  Database db = LabDatabase();
  SelectQuery q;
  q.from = {{"relinfon", "r"}};
  q.where = Expr::Contains(Expr::ColumnRef("r", "text"),
                           Expr::Literal(Value(std::string("absent"))));
  q.select = {{"r", "text"}};
  auto rs = Execute(q, db);
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->rows.empty());
}

TEST(ExecuteTest, ErrorsOnUnknownRelationAndDuplicateAlias) {
  Database db = LabDatabase();
  SelectQuery q1;
  q1.from = {{"nope", "n"}};
  q1.select = {{"n", "x"}};
  EXPECT_EQ(Execute(q1, db).status().code(), StatusCode::kNotFound);

  SelectQuery q2;
  q2.from = {{"document", "d"}, {"anchor", "d"}};
  q2.select = {{"d", "url"}};
  EXPECT_EQ(Execute(q2, db).status().code(), StatusCode::kInvalidArgument);

  SelectQuery q3;
  EXPECT_EQ(Execute(q3, db).status().code(), StatusCode::kInvalidArgument);
}

TEST(ExecuteTest, PushdownMatchesNaiveOnRandomQueries) {
  // Property: pushdown never changes results — random single-alias and
  // cross-alias conjunct mixes over a database with multi-row tables.
  Rng rng(123);
  Database db = LabDatabase();
  const std::vector<std::pair<std::string, std::string>> columns = {
      {"d", "url"},   {"d", "title"}, {"a", "href"},
      {"a", "ltype"}, {"r", "text"},  {"r", "delimiter"}};
  const std::vector<std::string> needles = {"http", "lab", "G", "L",
                                            "convener", "zzz", ""};
  for (int round = 0; round < 60; ++round) {
    SelectQuery q;
    q.from = {{"document", "d"}, {"anchor", "a"}, {"relinfon", "r"}};
    q.select = {{"d", "url"}, {"a", "href"}, {"r", "delimiter"}};
    q.distinct = false;
    // 1-3 random contains-conjuncts.
    ExprPtr where;
    const int terms = 1 + static_cast<int>(rng.Uniform(3));
    for (int t = 0; t < terms; ++t) {
      const auto& col = columns[rng.Uniform(columns.size())];
      auto term = Expr::Contains(
          Expr::ColumnRef(col.first, col.second),
          Expr::Literal(Value(needles[rng.Uniform(needles.size())])));
      where = where == nullptr ? std::move(term)
                               : Expr::And(std::move(where), std::move(term));
    }
    q.where = std::move(where);
    q.pushdown = true;
    auto with = Execute(q, db);
    q.where = q.where->Clone();
    q.pushdown = false;
    auto without = Execute(q, db);
    ASSERT_TRUE(with.ok());
    ASSERT_TRUE(without.ok());
    ASSERT_EQ(with->rows.size(), without->rows.size()) << round;
    for (size_t i = 0; i < with->rows.size(); ++i) {
      for (size_t c = 0; c < with->rows[i].size(); ++c) {
        EXPECT_TRUE(with->rows[i][c] == without->rows[i][c]) << round;
      }
    }
  }
}

TEST(ExecuteTest, PushdownHandlesOrAsResidual) {
  // An OR spanning two aliases cannot be pushed; it must stay residual and
  // still filter correctly.
  Database db = LabDatabase();
  SelectQuery q;
  q.from = {{"document", "d"}, {"anchor", "a"}};
  q.where = Expr::Or(
      Expr::Compare(CompareOp::kEq, Expr::ColumnRef("a", "ltype"),
                    Expr::Literal(Value(std::string("G")))),
      Expr::Contains(Expr::ColumnRef("d", "title"),
                     Expr::Literal(Value(std::string("nonexistent")))));
  q.select = {{"a", "href"}};
  auto rs = Execute(q, db);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsString(), "http://g/r");
}

TEST(ExecuteTest, ConstantFalseConjunctEmptiesResult) {
  Database db = LabDatabase();
  SelectQuery q;
  q.from = {{"document", "d"}, {"anchor", "a"}};
  q.where = Expr::And(
      Expr::Literal(Value(static_cast<int64_t>(0))),
      Expr::Compare(CompareOp::kEq, Expr::ColumnRef("a", "ltype"),
                    Expr::Literal(Value(std::string("G")))));
  q.select = {{"a", "href"}};
  auto rs = Execute(q, db);
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->rows.empty());
}

TEST(ExecuteTest, PaperConvenerNodeQuery) {
  // The q2 of Example Query 2: relinfon delimited by hr containing
  // "convener".
  Database db = LabDatabase();
  SelectQuery q;
  q.from = {{"document", "d1"}, {"relinfon", "r"}};
  q.where = Expr::And(
      Expr::Compare(CompareOp::kEq, Expr::ColumnRef("r", "delimiter"),
                    Expr::Literal(Value(std::string("hr")))),
      Expr::Contains(Expr::ColumnRef("r", "text"),
                     Expr::Literal(Value(std::string("convener")))));
  q.select = {{"d1", "url"}, {"r", "text"}};
  auto rs = Execute(q, db);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][1].AsString(), "CONVENER X");
}

// -- Differential: Execute against the reference evaluator -------------------

/// Seeded random node-queries over one page's virtual relations: 1-3
/// aliases, `contains`, the six comparisons, and/or/not over int and string
/// literals (words drawn from the page, so some match), distinct and
/// pushdown each on and off. A few draws name an unknown alias, column or
/// relation, or repeat an alias, so the error paths are compared too.
class RandomNodeQueries {
 public:
  RandomNodeQueries(Rng* rng, const html::ParsedDocument& page) : rng_(rng) {
    for (const std::string& word : Split(page.title + " " + page.text, ' ')) {
      if (!word.empty()) words_.push_back(word);
    }
    for (const html::ParsedAnchor& a : page.anchors) {
      words_.push_back(a.label);
    }
    words_.insert(words_.end(), {"", "L", "G", "I", "hr", "http", "alpha"});
  }

  SelectQuery Next() {
    SelectQuery q;
    const size_t aliases = 1 + rng_->Uniform(3);
    for (size_t i = 0; i < aliases; ++i) {
      TableRef ref;
      ref.relation = Chance(40) ? "nowhere" : rng_->Pick(Relations());
      ref.alias = i > 0 && Chance(40) ? q.from[0].alias
                                      : std::string(1, "dars"[i]);
      q.from.push_back(std::move(ref));
    }
    if (!Chance(8)) q.where = Predicate(q, 0);
    const size_t columns = 1 + rng_->Uniform(3);
    for (size_t i = 0; i < columns; ++i) {
      auto [alias, column] = ColumnOf(q);
      q.select.push_back({std::move(alias), std::move(column)});
    }
    q.distinct = rng_->Bernoulli(0.5);
    q.pushdown = rng_->Bernoulli(0.5);
    return q;
  }

 private:
  static const std::vector<std::string>& Relations() {
    static const std::vector<std::string> kRelations = {
        "document", "anchor", "relinfon"};
    return kRelations;
  }

  /// True with probability 1/n.
  bool Chance(uint64_t n) { return rng_->Uniform(n) == 0; }

  std::pair<std::string, std::string> ColumnOf(const SelectQuery& q) {
    const TableRef& ref = rng_->Pick(q.from);
    if (Chance(60)) return {"zz", "url"};
    const Schema* schema = &DocumentSchema();
    if (ref.relation == "anchor") schema = &AnchorSchema();
    if (ref.relation == "relinfon") schema = &RelInfonSchema();
    if (Chance(60)) return {ref.alias, "bogus"};
    return {ref.alias,
            schema->column(rng_->Uniform(schema->num_columns())).name};
  }

  ExprPtr Column(const SelectQuery& q) {
    auto [alias, column] = ColumnOf(q);
    return Expr::ColumnRef(std::move(alias), std::move(column));
  }

  ExprPtr Literal() {
    if (Chance(3)) {
      return Expr::Literal(
          Value(static_cast<int64_t>(rng_->UniformRange(0, 3000)) - 5));
    }
    if (Chance(30)) return Expr::Literal(Value());
    std::string word = rng_->Pick(words_);
    if (!word.empty() && Chance(2)) {
      // A random slice, case-flipped, so matches fall mid-word.
      const size_t from = rng_->Uniform(word.size());
      word = word.substr(from, 1 + rng_->Uniform(word.size() - from));
      for (char& c : word) {
        if (Chance(2)) {
          c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
        }
      }
    }
    return Expr::Literal(Value(std::move(word)));
  }

  ExprPtr Operand(const SelectQuery& q) {
    return Chance(4) ? Literal() : Column(q);
  }

  // Draws are sequenced through locals: the evaluation order of function
  // arguments is unspecified, and the queries must not depend on it.
  ExprPtr Predicate(const SelectQuery& q, int depth) {
    const uint64_t kind =
        depth >= 3 ? 3 + rng_->Uniform(3) : rng_->Uniform(6);
    if (kind == 2) return Expr::Not(Predicate(q, depth + 1));
    if (kind == 5) {
      if (Chance(2)) return Operand(q);
      return Expr::Literal(Value(static_cast<int64_t>(Chance(2))));
    }
    if (kind == 4) {
      const auto op = static_cast<CompareOp>(rng_->Uniform(6));
      ExprPtr lhs = Operand(q);
      ExprPtr rhs = Chance(2) ? Literal() : Operand(q);
      return Expr::Compare(op, std::move(lhs), std::move(rhs));
    }
    ExprPtr lhs = kind == 3 ? Operand(q) : Predicate(q, depth + 1);
    ExprPtr rhs = kind == 3 ? Literal() : Predicate(q, depth + 1);
    if (kind == 3) return Expr::Contains(std::move(lhs), std::move(rhs));
    if (kind == 0) return Expr::And(std::move(lhs), std::move(rhs));
    return Expr::Or(std::move(lhs), std::move(rhs));
  }

  Rng* rng_;
  std::vector<std::string> words_;
};

/// Empty when the two evaluations agree in status, labels and rows.
std::string Difference(const Result<ResultSet>& got,
                       const Result<ResultSet>& want) {
  if (!(got.status() == want.status())) {
    return "status " + got.status().ToString() + " vs " +
           want.status().ToString();
  }
  if (!got.ok()) return "";
  if (got->column_labels != want->column_labels) return "column labels";
  if (got->rows.size() != want->rows.size()) {
    return StringPrintf("%zu rows vs %zu", got->rows.size(),
                        want->rows.size());
  }
  for (size_t i = 0; i < got->rows.size(); ++i) {
    if (!(got->rows[i] == want->rows[i])) return StringPrintf("row %zu", i);
  }
  return "";
}

TEST(RelationalDifferentialTest, BenchmarkWebPagesMatchReference) {
  // The page shapes of the three benchmark workloads at reduced size, as in
  // HtmlDifferentialTest. Execute runs over the relations a query names,
  // built lazily as the server builds them — into an empty database, and
  // into the page's retained one that each query extends — while the
  // reference runs over the full three-relation database.
  constexpr int kQueriesPerPage = 24;
  size_t evaluations = 0, answered = 0;
  std::set<std::string> errors;
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
    Rng rng(seed);
    for (const web::WebGraph& web : webs) {
      for (const std::string& key : web.AllUrls()) {
        const web::WebGraph::Document* doc = web.Find(key);
        ASSERT_NE(doc, nullptr) << key;
        const Database full = server::BuildNodeDatabase(doc->parsed);
        Database retained;
        RandomNodeQueries queries(&rng, doc->parsed);
        for (int i = 0; i < kQueriesPerPage; ++i) {
          const SelectQuery q = queries.Next();
          const Result<ResultSet> want = reference::Execute(q, full);
          Database scratch;
          server::AddNodeRelations(doc->parsed, q.from, &scratch);
          server::AddNodeRelations(doc->parsed, q.from, &retained);
          ASSERT_EQ(Difference(Execute(q, scratch), want), "")
              << key << ": " << (q.where ? q.where->ToString() : "");
          ASSERT_EQ(Difference(Execute(q, retained), want), "")
              << key << ": " << (q.where ? q.where->ToString() : "");
          ++evaluations;
          if (want.ok()) {
            answered += want->rows.empty() ? 0 : 1;
          } else {
            errors.insert(want.status().message().substr(0, 12));
          }
        }
      }
    }
  }
  // Not vacuous: most queries run, a good share answer, and every error
  // kind occurs.
  EXPECT_GE(evaluations, 9000u);
  EXPECT_GE(answered, evaluations / 5);
  EXPECT_EQ(errors, (std::set<std::string>{"duplicate al", "relation ali",
                                           "unbound alia", "unknown rela"}));
}

}  // namespace
}  // namespace webdis::relational
