#include <gtest/gtest.h>

#include "query/node_query.h"
#include "query/query_id.h"
#include "query/report.h"
#include "query/web_query.h"
#include "serialize/encoder.h"

namespace webdis::query {
namespace {

QueryId TestId() {
  QueryId id;
  id.user = "maya";
  id.reply_host = "user.site";
  id.reply_port = 9001;
  id.query_number = 3;
  return id;
}

TEST(QueryIdTest, KeyFormat) {
  EXPECT_EQ(TestId().Key(), "maya@user.site:9001#3");
}

TEST(QueryIdTest, KeyKeepsBytesPastEmbeddedNul) {
  // Fields come off the wire through GetString and may hold any byte.
  QueryId a = TestId();
  a.user = std::string("ma\0ya", 5);
  QueryId b = TestId();
  b.user = std::string("ma\0yb", 5);
  EXPECT_EQ(a.Key(), std::string("ma\0ya@user.site:9001#3", 22));
  EXPECT_NE(a.Key(), b.Key());
  QueryId c = TestId();
  c.reply_host = std::string("user\0a", 6);
  QueryId d = TestId();
  d.reply_host = std::string("user\0b", 6);
  EXPECT_EQ(c.Key(), std::string("maya@user\0a:9001#3", 18));
  EXPECT_NE(c.Key(), d.Key());
}

TEST(QueryIdTest, KeyAtFieldMaxima) {
  QueryId id = TestId();
  id.reply_port = 65535;
  id.query_number = 4294967295u;
  EXPECT_EQ(id.Key(), "maya@user.site:65535#4294967295");
  id.reply_port = 0;
  id.query_number = 0;
  EXPECT_EQ(id.Key(), "maya@user.site:0#0");
}

TEST(QueryIdTest, RoundTrip) {
  serialize::Encoder enc;
  TestId().EncodeTo(&enc);
  serialize::Decoder dec(enc.data());
  QueryId out;
  ASSERT_TRUE(QueryId::DecodeFrom(&dec, &out).ok());
  EXPECT_EQ(out, TestId());
  EXPECT_TRUE(dec.AtEnd());
}

TEST(QueryIdTest, Equality) {
  QueryId a = TestId();
  QueryId b = TestId();
  EXPECT_TRUE(a == b);
  b.query_number = 4;
  EXPECT_FALSE(a == b);
}

NodeQuery TestNodeQuery() {
  NodeQuery nq;
  nq.doc_alias = "d0";
  nq.select.from = {{"document", "d0"}, {"relinfon", "r"}};
  nq.select.where = relational::Expr::Contains(
      relational::Expr::ColumnRef("r", "text"),
      relational::Expr::Literal(relational::Value(std::string("convener"))));
  nq.select.select = {{"d0", "url"}, {"r", "text"}};
  nq.select.distinct = true;
  return nq;
}

TEST(NodeQueryTest, CloneIsDeep) {
  NodeQuery original = TestNodeQuery();
  NodeQuery copy = original.Clone();
  EXPECT_EQ(copy.ToString(), original.ToString());
  EXPECT_NE(copy.select.where.get(), original.select.where.get());
}

TEST(NodeQueryTest, RoundTrip) {
  serialize::Encoder enc;
  TestNodeQuery().EncodeTo(&enc);
  serialize::Decoder dec(enc.data());
  NodeQuery out;
  ASSERT_TRUE(NodeQuery::DecodeFrom(&dec, &out).ok());
  EXPECT_EQ(out.ToString(), TestNodeQuery().ToString());
  EXPECT_TRUE(dec.AtEnd());
}

TEST(NodeQueryTest, RoundTripWithoutWhere) {
  NodeQuery nq = TestNodeQuery();
  nq.select.where = nullptr;
  serialize::Encoder enc;
  nq.EncodeTo(&enc);
  serialize::Decoder dec(enc.data());
  NodeQuery out;
  ASSERT_TRUE(NodeQuery::DecodeFrom(&dec, &out).ok());
  EXPECT_EQ(out.select.where, nullptr);
}

TEST(CloneStateTest, ToStringMatchesPaperNotation) {
  CloneState state{2, pre::Pre::Parse("G.L*1").value()};
  EXPECT_EQ(state.ToString(), "(2, G.L*1)");
}

TEST(CloneStateTest, Equals) {
  CloneState a{2, pre::Pre::Parse("G | L").value()};
  CloneState b{2, pre::Pre::Parse("L | G").value()};
  CloneState c{1, pre::Pre::Parse("G | L").value()};
  EXPECT_TRUE(a.Equals(b));
  EXPECT_FALSE(a.Equals(c));
}

WebQuery TestWebQuery() {
  WebQuery wq;
  wq.id = TestId();
  wq.remaining_queries.push_back(TestNodeQuery());
  NodeQuery q2 = TestNodeQuery();
  q2.doc_alias = "d1";
  wq.remaining_queries.push_back(std::move(q2));
  wq.future_pres.push_back(pre::Pre::Parse("G.(L*1)").value());
  wq.rem_pre = pre::Pre::Parse("L").value();
  wq.dest_urls = {"http://a/x", "http://a/y"};
  return wq;
}

TEST(WebQueryTest, ValidateAcceptsWellFormed) {
  EXPECT_TRUE(TestWebQuery().Validate().ok());
}

TEST(WebQueryTest, ValidateRejectsMalformed) {
  WebQuery no_queries = TestWebQuery();
  no_queries.remaining_queries.clear();
  no_queries.future_pres.clear();
  EXPECT_FALSE(no_queries.Validate().ok());

  WebQuery bad_pipeline = TestWebQuery();
  bad_pipeline.future_pres.push_back(pre::Pre::Parse("L").value());
  EXPECT_FALSE(bad_pipeline.Validate().ok());

  WebQuery no_dest = TestWebQuery();
  no_dest.dest_urls.clear();
  EXPECT_FALSE(no_dest.Validate().ok());
}

TEST(WebQueryTest, StateReflectsPipeline) {
  const WebQuery wq = TestWebQuery();
  EXPECT_EQ(wq.State().num_q, 2u);
  EXPECT_TRUE(wq.State().rem_pre.Equals(pre::Pre::Parse("L").value()));
}

TEST(WebQueryTest, RoundTrip) {
  const WebQuery wq = TestWebQuery();
  serialize::Encoder enc;
  wq.EncodeTo(&enc);
  EXPECT_EQ(enc.size(), wq.WireSize());
  serialize::Decoder dec(enc.data());
  WebQuery out;
  ASSERT_TRUE(WebQuery::DecodeFrom(&dec, &out).ok());
  EXPECT_EQ(out.id, wq.id);
  EXPECT_EQ(out.dest_urls, wq.dest_urls);
  EXPECT_EQ(out.remaining_queries.size(), 2u);
  EXPECT_TRUE(out.State().Equals(wq.State()));
  EXPECT_TRUE(dec.AtEnd());
}

TEST(WebQueryTest, DecodeRejectsTruncation) {
  const WebQuery wq = TestWebQuery();
  serialize::Encoder enc;
  wq.EncodeTo(&enc);
  for (size_t cut : {size_t{1}, enc.size() / 2, enc.size() - 1}) {
    serialize::Decoder dec(enc.data().data(), cut);
    WebQuery out;
    EXPECT_FALSE(WebQuery::DecodeFrom(&dec, &out).ok()) << cut;
  }
}

TEST(WebQueryTest, CloneIsDeep) {
  const WebQuery wq = TestWebQuery();
  WebQuery copy = wq.Clone();
  EXPECT_EQ(copy.dest_urls, wq.dest_urls);
  EXPECT_NE(copy.remaining_queries[0].select.where.get(),
            wq.remaining_queries[0].select.where.get());
}

QueryReport TestReport() {
  QueryReport qr;
  qr.id = TestId();
  NodeReport nr;
  nr.node_url = "http://a/x";
  nr.received_state = CloneState{2, pre::Pre::Parse("L").value()};
  nr.next_entries.push_back(
      ChtEntry{"http://b/y", CloneState{1, pre::Pre::Parse("G").value()}});
  relational::ResultSet rs;
  rs.column_labels = {"d0.url"};
  rs.rows.push_back({relational::Value(std::string("http://a/x"))});
  nr.result_sets.push_back(std::move(rs));
  qr.node_reports.push_back(std::move(nr));

  NodeReport drop;
  drop.node_url = "http://b/z";
  drop.received_state = CloneState{1, pre::Pre::Parse("G").value()};
  drop.duplicate_drop = true;
  qr.node_reports.push_back(std::move(drop));
  return qr;
}

TEST(ReportTest, RoundTrip) {
  const QueryReport qr = TestReport();
  serialize::Encoder enc;
  qr.EncodeTo(&enc);
  serialize::Decoder dec(enc.data());
  QueryReport out;
  ASSERT_TRUE(QueryReport::DecodeFrom(&dec, &out).ok());
  EXPECT_EQ(out.id, qr.id);
  ASSERT_EQ(out.node_reports.size(), 2u);
  EXPECT_EQ(out.node_reports[0].node_url, "http://a/x");
  ASSERT_EQ(out.node_reports[0].next_entries.size(), 1u);
  EXPECT_EQ(out.node_reports[0].next_entries[0].node_url, "http://b/y");
  ASSERT_EQ(out.node_reports[0].result_sets.size(), 1u);
  EXPECT_EQ(out.node_reports[0].result_sets[0].rows.size(), 1u);
  EXPECT_TRUE(out.node_reports[1].duplicate_drop);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(ReportTest, UndeliverableFlagRoundTrips) {
  QueryReport qr;
  qr.id = TestId();
  NodeReport nr;
  nr.node_url = "http://dead/x";
  nr.received_state = CloneState{1, pre::Pre::Parse("L").value()};
  nr.undeliverable = true;
  qr.node_reports.push_back(std::move(nr));
  serialize::Encoder enc;
  qr.EncodeTo(&enc);
  serialize::Decoder dec(enc.data());
  QueryReport out;
  ASSERT_TRUE(QueryReport::DecodeFrom(&dec, &out).ok());
  EXPECT_TRUE(out.node_reports[0].undeliverable);
}

TEST(ReportTest, DecodeRejectsGarbage) {
  const std::vector<uint8_t> garbage{1, 2, 3};
  serialize::Decoder dec(garbage);
  QueryReport out;
  EXPECT_FALSE(QueryReport::DecodeFrom(&dec, &out).ok());
}

}  // namespace
}  // namespace webdis::query
