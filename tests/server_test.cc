#include <gtest/gtest.h>

#include <set>

#include "common/strings.h"
#include "core/engine.h"
#include "disql/compiler.h"
#include "net/sim.h"
#include "query/report.h"
#include "serialize/encoder.h"
#include "server/db_constructor.h"
#include "server/http_server.h"
#include "server/log_table.h"
#include "server/persist.h"
#include "server/query_server.h"
#include "web/pagegen.h"

namespace webdis::server {
namespace {

using query::CloneState;

// Report payloads pinned from the build in which every visit constructed
// all three relations before routing: /a's PureRouter report under L
// (routed to /b, nothing evaluated) and /b's answer to `d.text contains
// "beta"`.
constexpr char kPureRouterReportHex[] =
    "017409757365722e73697465282301000000010a687474703a2f2f682f6101000000"
    "0201010a687474703a2f2f682f62010000000000000000010000000000000000";
constexpr char kAnswerReportHex[] =
    "017409757365722e73697465282301000000010a687474703a2f2f682f6201000000"
    "0000000000010105642e75726c0101020a687474703a2f2f682f6201000000000000"
    "0000";

pre::Pre P(const std::string& s) { return pre::Pre::Parse(s).value(); }

// -- DatabaseConstructor ----------------------------------------------------------

TEST(DbConstructorTest, BuildsAllThreeVirtualRelations) {
  const html::Url url = html::ParseUrl("http://h/p").value();
  const html::ParsedDocument doc = html::ParseDocument(
      url,
      "<title>T</title><p>body text</p>"
      "<a href=\"/q\">local</a><a href=\"http://g/\">global</a>"
      "block<hr>");
  const relational::Database db = BuildNodeDatabase(doc);

  const relational::Table* document = db.Find("document");
  ASSERT_NE(document, nullptr);
  ASSERT_EQ(document->num_rows(), 1u);
  EXPECT_EQ(document->row(0)[0].AsString(), "http://h/p");
  EXPECT_EQ(document->row(0)[1].AsString(), "T");
  EXPECT_EQ(document->row(0)[3].AsInt(),
            static_cast<int64_t>(doc.length));

  const relational::Table* anchor = db.Find("anchor");
  ASSERT_NE(anchor, nullptr);
  ASSERT_EQ(anchor->num_rows(), 2u);
  EXPECT_EQ(anchor->row(0)[3].AsString(), "L");
  EXPECT_EQ(anchor->row(1)[3].AsString(), "G");
  EXPECT_EQ(anchor->row(0)[1].AsString(), "http://h/p");  // base

  const relational::Table* relinfon = db.Find("relinfon");
  ASSERT_NE(relinfon, nullptr);
  ASSERT_GE(relinfon->num_rows(), 1u);
}

// -- LogTable --------------------------------------------------------------------

TEST(LogTableTest, FirstArrivalIsNew) {
  LogTable table;
  const auto d = table.Check("http://a/x", "q1", CloneState{2, P("L*2.G")});
  EXPECT_EQ(d.comparison, pre::LogComparison::kUnrelated);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.stats().new_entries, 1u);
}

TEST(LogTableTest, IdenticalSecondArrivalIsDuplicate) {
  LogTable table;
  table.Check("http://a/x", "q1", CloneState{2, P("L*2.G")});
  const auto d = table.Check("http://a/x", "q1", CloneState{2, P("L*2.G")});
  EXPECT_EQ(d.comparison, pre::LogComparison::kDuplicate);
  EXPECT_EQ(table.stats().duplicates, 1u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(LogTableTest, KeyIncludesNodeQueryAndNumQ) {
  LogTable table;
  table.Check("http://a/x", "q1", CloneState{2, P("L")});
  // Different node: not a duplicate.
  EXPECT_EQ(table.Check("http://a/y", "q1", CloneState{2, P("L")}).comparison,
            pre::LogComparison::kUnrelated);
  // Different query: not a duplicate.
  EXPECT_EQ(table.Check("http://a/x", "q2", CloneState{2, P("L")}).comparison,
            pre::LogComparison::kUnrelated);
  // Different num_q: not a duplicate (Figure 5's visits b vs c).
  EXPECT_EQ(table.Check("http://a/x", "q1", CloneState{1, P("L")}).comparison,
            pre::LogComparison::kUnrelated);
}

TEST(LogTableTest, SubsetDropsSupersetRewrites) {
  LogTable table;
  table.Check("n", "q", CloneState{1, P("L*2.G")});
  EXPECT_EQ(table.Check("n", "q", CloneState{1, P("L*1.G")}).comparison,
            pre::LogComparison::kDuplicate);
  const auto d = table.Check("n", "q", CloneState{1, P("L*4.G")});
  EXPECT_EQ(d.comparison, pre::LogComparison::kSupersetRewrite);
  EXPECT_TRUE(d.rewritten->Equals(P("L.L*3.G")));
  // The entry was replaced by the wider bound: L*3 is now a duplicate.
  EXPECT_EQ(table.Check("n", "q", CloneState{1, P("L*3.G")}).comparison,
            pre::LogComparison::kDuplicate);
}

TEST(LogTableTest, UnrelatedPresCoexistUnderOneKey) {
  LogTable table;
  table.Check("n", "q", CloneState{1, P("L*2.G")});
  EXPECT_EQ(table.Check("n", "q", CloneState{1, P("G*2.L")}).comparison,
            pre::LogComparison::kUnrelated);
  EXPECT_EQ(table.size(), 2u);
  // Each maintains its own duplicate detection.
  EXPECT_EQ(table.Check("n", "q", CloneState{1, P("G*2.L")}).comparison,
            pre::LogComparison::kDuplicate);
}

TEST(LogTableTest, PurgeForgetsEverything) {
  LogTable table;
  table.Check("n", "q", CloneState{1, P("L")});
  table.Purge();
  EXPECT_EQ(table.size(), 0u);
  // Recomputation, not error.
  EXPECT_EQ(table.Check("n", "q", CloneState{1, P("L")}).comparison,
            pre::LogComparison::kUnrelated);
}

TEST(LogTableTest, PurgeQueryIsSelective) {
  LogTable table;
  table.Check("n", "q1", CloneState{1, P("L")});
  table.Check("n", "q2", CloneState{1, P("L")});
  table.PurgeQuery("q1");
  EXPECT_EQ(table.Check("n", "q1", CloneState{1, P("L")}).comparison,
            pre::LogComparison::kUnrelated);
  EXPECT_EQ(table.Check("n", "q2", CloneState{1, P("L")}).comparison,
            pre::LogComparison::kDuplicate);
}

// -- HttpServer --------------------------------------------------------------------

class HttpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(web_.AddDocument("http://h/p", "<title>T</title>").ok());
    ASSERT_TRUE(web_.AddDocument("http://other/x", "elsewhere").ok());
    server_ = std::make_unique<HttpServer>("h", &web_, &net_);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(net_.Listen({"c", 1},
                            [this](const net::Endpoint&, net::MessageType,
                                   const std::vector<uint8_t>& payload) {
                              HttpServer::FetchResponse resp;
                              ASSERT_TRUE(HttpServer::DecodeFetchResponse(
                                              payload, &resp)
                                              .ok());
                              responses_.push_back(resp);
                            })
                    .ok());
  }

  void Fetch(const std::string& url) {
    ASSERT_TRUE(net_.Send({"c", 1}, {"h", kHttpPort},
                          net::MessageType::kFetchRequest,
                          HttpServer::EncodeFetchRequest(url))
                    .ok());
    net_.RunUntilIdle();
  }

  web::WebGraph web_;
  net::SimNetwork net_;
  std::unique_ptr<HttpServer> server_;
  std::vector<HttpServer::FetchResponse> responses_;
};

TEST_F(HttpServerTest, ServesLocalDocument) {
  Fetch("http://h/p");
  ASSERT_EQ(responses_.size(), 1u);
  EXPECT_TRUE(responses_[0].found);
  EXPECT_EQ(responses_[0].html, "<title>T</title>");
  EXPECT_EQ(server_->fetches_served(), 1u);
}

TEST_F(HttpServerTest, NotFoundForMissing) {
  Fetch("http://h/absent");
  ASSERT_EQ(responses_.size(), 1u);
  EXPECT_FALSE(responses_[0].found);
  EXPECT_EQ(server_->not_found_count(), 1u);
}

TEST_F(HttpServerTest, RefusesToProxyOtherHosts) {
  Fetch("http://other/x");  // exists in the graph but hosted elsewhere
  ASSERT_EQ(responses_.size(), 1u);
  EXPECT_FALSE(responses_[0].found);
}

TEST_F(HttpServerTest, StopClosesPort) {
  server_->Stop();
  EXPECT_EQ(net_.Send({"c", 1}, {"h", kHttpPort},
                      net::MessageType::kFetchRequest,
                      HttpServer::EncodeFetchRequest("http://h/p"))
                .code(),
            StatusCode::kConnectionRefused);
}

// -- QueryServer (driven directly over a SimNetwork) ------------------------------

class QueryServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Two pages on host "h": /a links locally to /b; /b has the answer.
    web::PageSpec a;
    a.title = "start alpha";
    a.links = {{"/b", "to b"}};
    ASSERT_TRUE(web_.AddDocument("http://h/a", web::RenderHtml(a)).ok());
    web::PageSpec b;
    b.title = "target alpha";
    b.paragraphs = {"the beta answer"};
    ASSERT_TRUE(web_.AddDocument("http://h/b", web::RenderHtml(b)).ok());

    server_ = std::make_unique<QueryServer>("h", &web_, &net_);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(net_.Listen({"user.site", 9000},
                            [this](const net::Endpoint&, net::MessageType type,
                                   const std::vector<uint8_t>& payload) {
                              ASSERT_EQ(type, net::MessageType::kReport);
                              payloads_.push_back(payload);
                              serialize::Decoder dec(payload);
                              query::QueryReport qr;
                              ASSERT_TRUE(query::QueryReport::DecodeFrom(
                                              &dec, &qr)
                                              .ok());
                              reports_.push_back(std::move(qr));
                            })
                    .ok());
  }

  query::WebQuery MakeClone(const std::string& pre_text,
                            const std::string& where_keyword,
                            std::vector<std::string> dests) {
    return CloneOf(
        "select d.url from document d such that \"http://h/a\" " + pre_text +
            " d where d.text contains \"" + where_keyword + "\"",
        std::move(dests));
  }

  /// Example Query 2's two stages evaluated in one visit: q1 reads
  /// DOCUMENT, q2 (its PRE is N, so it runs at the same node) reads
  /// DOCUMENT and RELINFON.
  query::WebQuery MakeConvenerClone(const std::string& url) {
    return CloneOf("select d0.url, d1.url, r.text\n"
                   "from document d0 such that \"" + url + "\" N d0,\n"
                   "where d0.title contains \"lab\"\n"
                   "     document d1 such that d0 N d1,\n"
                   "     relinfon r such that r.delimiter = \"hr\",\n"
                   "where r.text contains \"convener\"\n",
                   {url});
  }

  query::WebQuery CloneOf(const std::string& disql,
                          std::vector<std::string> dests) {
    auto compiled = disql::CompileDisql(disql);
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    query::WebQuery clone = compiled->web_query.Clone();
    clone.id.user = "t";
    clone.id.reply_host = "user.site";
    clone.id.reply_port = 9000;
    clone.id.query_number = 1;
    clone.dest_urls = std::move(dests);
    return clone;
  }

  void Deliver(const query::WebQuery& clone) {
    serialize::Encoder enc;
    clone.EncodeTo(&enc);
    ASSERT_TRUE(net_.Send({"user.site", 9000}, {"h", kQueryServerPort},
                          net::MessageType::kWebQuery, enc.Release())
                    .ok());
    net_.RunUntilIdle();
  }

  /// Replaces the server with a fresh one running `options`.
  void Restart(const QueryServerOptions& options) {
    server_->Stop();
    server_ = std::make_unique<QueryServer>("h", &web_, &net_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  web::WebGraph web_;
  net::SimNetwork net_;
  std::unique_ptr<QueryServer> server_;
  std::vector<query::QueryReport> reports_;
  std::vector<std::vector<uint8_t>> payloads_;  // raw kReport payloads
};

std::string Hex(const std::vector<uint8_t>& bytes) {
  std::string out;
  for (const uint8_t b : bytes) out += StringPrintf("%02x", b);
  return out;
}

TEST_F(QueryServerTest, EvaluatesAndReports) {
  Deliver(MakeClone("L*1", "beta", {"http://h/a"}));
  // Clone chain: /a evaluated (no beta) + forwarded to /b; /b evaluated.
  ASSERT_EQ(reports_.size(), 2u);
  EXPECT_EQ(reports_[0].node_reports[0].node_url, "http://h/a");
  ASSERT_EQ(reports_[0].node_reports[0].next_entries.size(), 1u);
  EXPECT_EQ(reports_[0].node_reports[0].next_entries[0].node_url,
            "http://h/b");
  ASSERT_EQ(reports_[1].node_reports.size(), 1u);
  ASSERT_EQ(reports_[1].node_reports[0].result_sets.size(), 1u);
  EXPECT_EQ(
      reports_[1].node_reports[0].result_sets[0].rows[0][0].AsString(),
      "http://h/b");
  EXPECT_EQ(server_->stats().node_queries_evaluated, 2u);
  EXPECT_EQ(server_->stats().answers_found, 1u);
  EXPECT_EQ(server_->stats().dead_ends, 1u);
}

TEST_F(QueryServerTest, DuplicateCloneDroppedAndReported) {
  const query::WebQuery clone = MakeClone("L*1", "beta", {"http://h/a"});
  Deliver(clone);
  reports_.clear();
  Deliver(clone.Clone());
  ASSERT_EQ(reports_.size(), 1u);
  EXPECT_TRUE(reports_[0].node_reports[0].duplicate_drop);
  EXPECT_EQ(server_->stats().duplicates_dropped, 1u);
}

TEST_F(QueryServerTest, DedupDisabledRecomputes) {
  QueryServerOptions options;
  options.dedup_enabled = false;
  auto server2 = std::make_unique<QueryServer>("h2", &web_, &net_, options);
  // Reuse the same web but a different host name: documents are on "h", so
  // use the original server with a fresh option set instead.
  server_->Stop();
  server_ = std::make_unique<QueryServer>("h", &web_, &net_, options);
  ASSERT_TRUE(server_->Start().ok());
  const query::WebQuery clone = MakeClone("N", "alpha", {"http://h/a"});
  Deliver(clone);
  Deliver(clone.Clone());
  EXPECT_EQ(server_->stats().node_queries_evaluated, 2u);
  EXPECT_EQ(server_->stats().duplicates_dropped, 0u);
}

TEST_F(QueryServerTest, MissingDocumentReportedNotCrashed) {
  Deliver(MakeClone("N", "alpha", {"http://h/ghost"}));
  ASSERT_EQ(reports_.size(), 1u);
  EXPECT_TRUE(reports_[0].node_reports[0].result_sets.empty());
  EXPECT_EQ(server_->stats().missing_documents, 1u);
}

TEST_F(QueryServerTest, PassiveTerminationOnRefusedReport) {
  net_.CloseListener({"user.site", 9000});
  serialize::Encoder enc;
  MakeClone("L*1", "beta", {"http://h/a"}).EncodeTo(&enc);
  ASSERT_TRUE(net_.Send({"x", 1}, {"h", kQueryServerPort},
                        net::MessageType::kWebQuery, enc.Release())
                  .ok());
  net_.RunUntilIdle();
  EXPECT_EQ(server_->stats().passive_terminations, 1u);
  // No forwarding happened after the refusal.
  EXPECT_EQ(server_->stats().clones_forwarded, 0u);
}

TEST_F(QueryServerTest, ActiveTerminationDropsFutureClones) {
  serialize::Encoder id_enc;
  query::WebQuery clone = MakeClone("L*1", "beta", {"http://h/a"});
  clone.id.EncodeTo(&id_enc);
  ASSERT_TRUE(net_.Send({"user.site", 9000}, {"h", kQueryServerPort},
                        net::MessageType::kTerminate, id_enc.Release())
                  .ok());
  net_.RunUntilIdle();
  EXPECT_EQ(server_->stats().active_terminations, 1u);
  Deliver(clone);
  EXPECT_EQ(server_->stats().node_queries_evaluated, 0u);
  EXPECT_TRUE(reports_.empty());
}

TEST_F(QueryServerTest, MalformedCloneCountedNotCrashed) {
  ASSERT_TRUE(net_.Send({"x", 1}, {"h", kQueryServerPort},
                        net::MessageType::kWebQuery,
                        std::vector<uint8_t>{1, 2, 3})
                  .ok());
  net_.RunUntilIdle();
  EXPECT_EQ(server_->stats().decode_errors, 1u);
}

TEST_F(QueryServerTest, DatabaseCachingCountsHits) {
  QueryServerOptions options;
  options.cache_databases = true;
  options.dedup_enabled = false;  // force recomputation
  server_->Stop();
  server_ = std::make_unique<QueryServer>("h", &web_, &net_, options);
  ASSERT_TRUE(server_->Start().ok());
  const query::WebQuery clone = MakeClone("N", "alpha", {"http://h/a"});
  Deliver(clone);
  Deliver(clone.Clone());
  EXPECT_EQ(server_->stats().db_constructions, 1u);
  EXPECT_EQ(server_->stats().db_cache_hits, 1u);
}

TEST_F(QueryServerTest, DbCacheEvictsLeastRecentlyUsed) {
  // A third, deliberately tiny page so A+C fits where A+B+C does not.
  web::PageSpec c;
  c.title = "c alpha";
  ASSERT_TRUE(web_.AddDocument("http://h/c", web::RenderHtml(c)).ok());

  QueryServerOptions options;
  options.cache_databases = true;
  options.dedup_enabled = false;

  // Measurement pass with an unbounded cache: learn each node DB's cost.
  server_->Stop();
  server_ = std::make_unique<QueryServer>("h", &web_, &net_, options);
  ASSERT_TRUE(server_->Start().ok());
  Deliver(MakeClone("N", "alpha", {"http://h/a"}));
  const uint64_t bytes_a = server_->stats().db_cache_bytes;
  Deliver(MakeClone("N", "alpha", {"http://h/b"}));
  const uint64_t bytes_ab = server_->stats().db_cache_bytes;
  Deliver(MakeClone("N", "alpha", {"http://h/c"}));
  const uint64_t bytes_abc = server_->stats().db_cache_bytes;
  ASSERT_GT(bytes_a, 0u);
  ASSERT_GT(bytes_ab, bytes_a);
  ASSERT_GT(bytes_abc, bytes_ab);
  // C strictly smaller than B, so evicting B alone brings A+B+C under A+B.
  ASSERT_LT(bytes_abc - bytes_ab, bytes_ab - bytes_a);
  EXPECT_EQ(server_->stats().db_cache_evictions, 0u);  // unbounded: never

  // Bounded pass: budget holds exactly {A, B}.
  options.db_cache_max_bytes = bytes_ab;
  server_->Stop();
  server_ = std::make_unique<QueryServer>("h", &web_, &net_, options);
  ASSERT_TRUE(server_->Start().ok());
  Deliver(MakeClone("N", "alpha", {"http://h/a"}));
  Deliver(MakeClone("N", "alpha", {"http://h/b"}));
  EXPECT_EQ(server_->stats().db_cache_evictions, 0u);
  // Re-touching A moves it to the front: B is now least recently used.
  Deliver(MakeClone("N", "alpha", {"http://h/a"}));
  EXPECT_EQ(server_->stats().db_cache_hits, 1u);
  // Inserting C exceeds the budget and must evict B — not A (recently
  // touched) and not C (just inserted).
  Deliver(MakeClone("N", "alpha", {"http://h/c"}));
  EXPECT_EQ(server_->stats().db_cache_evictions, 1u);
  EXPECT_EQ(server_->stats().db_cache_bytes, bytes_a + (bytes_abc - bytes_ab));
  EXPECT_EQ(server_->stats().db_constructions, 3u);
  Deliver(MakeClone("N", "alpha", {"http://h/a"}));  // hit: A survived
  EXPECT_EQ(server_->stats().db_cache_hits, 2u);
  EXPECT_EQ(server_->stats().db_constructions, 3u);
  Deliver(MakeClone("N", "alpha", {"http://h/b"}));  // miss: B was the victim
  EXPECT_EQ(server_->stats().db_constructions, 4u);
}

// -- Node databases are built on need (paper §2.4) ----------------------------

TEST_F(QueryServerTest, PureRouterVisitBuildsNoDatabase) {
  // Under L the empty path is not admitted at /a: the visit only routes, to
  // /b, which evaluates. Only /b's visit builds a database, and both
  // reports carry the bytes they did when every visit built one.
  Deliver(MakeClone("L", "beta", {"http://h/a"}));
  EXPECT_EQ(server_->stats().nodes_processed, 2u);
  EXPECT_EQ(server_->stats().node_queries_evaluated, 1u);
  EXPECT_EQ(server_->stats().db_constructions, 1u);
  ASSERT_EQ(payloads_.size(), 2u);
  EXPECT_EQ(Hex(payloads_[0]), kPureRouterReportHex);
  EXPECT_EQ(Hex(payloads_[1]), kAnswerReportHex);
  // A PureRouter visit with nowhere to go: nothing evaluated, nothing built.
  Deliver(MakeClone("L", "beta", {"http://h/b"}));
  EXPECT_EQ(server_->stats().nodes_processed, 3u);
  EXPECT_EQ(server_->stats().db_constructions, 1u);
}

TEST_F(QueryServerTest, ResultCacheHitBuildsNoDatabase) {
  QueryServerOptions options;
  options.share_results = true;
  options.dedup_enabled = false;  // re-evaluate the same clone
  Restart(options);
  const query::WebQuery clone = MakeClone("N", "beta", {"http://h/b"});
  Deliver(clone);
  EXPECT_EQ(server_->stats().result_cache_misses, 1u);
  EXPECT_EQ(server_->stats().db_constructions, 1u);
  Deliver(clone.Clone());
  EXPECT_EQ(server_->stats().result_cache_hits, 1u);
  EXPECT_EQ(server_->stats().node_queries_evaluated, 2u);
  EXPECT_EQ(server_->stats().db_constructions, 1u);  // the hit built none
  ASSERT_EQ(payloads_.size(), 2u);
  EXPECT_EQ(Hex(payloads_[0]), kAnswerReportHex);
  EXPECT_EQ(payloads_[1], payloads_[0]);
}

TEST_F(QueryServerTest, RetainedDatabaseGainsRelationInPlace) {
  web::PageSpec c;
  c.title = "lab alpha";
  c.hr_blocks = {"The convener is Ada"};
  ASSERT_TRUE(web_.AddDocument("http://h/c", web::RenderHtml(c)).ok());
  const query::WebQuery clone = MakeConvenerClone("http://h/c");
  QueryServerOptions options;
  options.dedup_enabled = false;  // re-evaluate the same clone

  // Purged per visit: both stages answer from one database.
  Restart(options);
  Deliver(clone);
  ASSERT_EQ(reports_.size(), 1u);
  ASSERT_EQ(reports_[0].node_reports[0].result_sets.size(), 2u);
  EXPECT_EQ(server_->stats().node_queries_evaluated, 2u);
  EXPECT_EQ(server_->stats().db_constructions, 1u);
  const std::vector<std::vector<uint8_t>> purged = payloads_;

  // Retained: stage 0 starts the entry with DOCUMENT, stage 1 extends it in
  // place with RELINFON, and the budget counts the grown entry.
  options.cache_databases = true;
  Restart(options);
  payloads_.clear();
  Deliver(clone);
  EXPECT_EQ(payloads_, purged);
  EXPECT_EQ(server_->stats().db_constructions, 1u);
  EXPECT_EQ(server_->stats().db_cache_hits, 0u);
  const html::ParsedDocument& page = web_.Find("http://h/c")->parsed;
  relational::Database document_only;
  AddNodeRelations(page, {{"document", "d0"}}, &document_only);
  relational::Database grown;
  AddNodeRelations(page, {{"document", "d0"}}, &grown);
  AddNodeRelations(page, {{"document", "d1"}, {"relinfon", "r"}}, &grown);
  EXPECT_EQ(grown.RelationNames(),
            (std::vector<std::string>{"document", "relinfon"}));
  EXPECT_GT(grown.ApproxBytes(), document_only.ApproxBytes());
  EXPECT_EQ(server_->stats().db_cache_bytes, grown.ApproxBytes());

  // The next visit finds the entry complete: a hit that builds nothing.
  payloads_.clear();
  Deliver(clone.Clone());
  EXPECT_EQ(payloads_, purged);
  EXPECT_EQ(server_->stats().db_cache_hits, 1u);
  EXPECT_EQ(server_->stats().db_constructions, 1u);
  EXPECT_EQ(server_->stats().db_cache_bytes, grown.ApproxBytes());
}

// -- Cross-query result sharing (PROTOCOL.md §9.1) ---------------------------

TEST_F(QueryServerTest, ResultCacheVersionBumpNeverServesStaleRows) {
  QueryServerOptions options;
  options.share_results = true;
  options.dedup_enabled = false;  // force re-evaluation so the cache is hit
  server_->Stop();
  server_ = std::make_unique<QueryServer>("h", &web_, &net_, options);
  ASSERT_TRUE(server_->Start().ok());

  const query::WebQuery clone = MakeClone("N", "alpha", {"http://h/a"});
  Deliver(clone);
  EXPECT_EQ(server_->stats().result_cache_misses, 1u);
  EXPECT_EQ(server_->stats().result_cache_hits, 0u);
  ASSERT_EQ(reports_.size(), 1u);

  // Same (document, version, node-query form) again: served from the cache,
  // and the hit-path report is byte-identical to the miss-path one — the
  // cache is a wall-clock optimization, never an observable behavior change.
  Deliver(clone.Clone());
  EXPECT_EQ(server_->stats().result_cache_hits, 1u);
  EXPECT_EQ(server_->stats().result_cache_misses, 1u);
  ASSERT_EQ(reports_.size(), 2u);
  serialize::Encoder miss_enc;
  serialize::Encoder hit_enc;
  reports_[0].EncodeTo(&miss_enc);
  reports_[1].EncodeTo(&hit_enc);
  EXPECT_EQ(miss_enc.data(), hit_enc.data());
  ASSERT_FALSE(reports_[1].node_reports[0].result_sets.empty());
  EXPECT_FALSE(reports_[1].node_reports[0].result_sets[0].rows.empty());

  // Editing /a bumps its version, so the cached entry's key no longer
  // matches. The keyword is gone from the edited page: a stale hit would be
  // visible as a phantom row.
  web::PageSpec edited;
  edited.title = "start gamma";
  edited.links = {{"/b", "to b"}};
  ASSERT_TRUE(
      web_.UpdateDocument("http://h/a", web::RenderHtml(edited)).ok());
  Deliver(clone.Clone());
  EXPECT_EQ(server_->stats().result_cache_misses, 2u);
  EXPECT_EQ(server_->stats().result_cache_hits, 1u);
  ASSERT_EQ(reports_.size(), 3u);
  for (const auto& rs : reports_[2].node_reports[0].result_sets) {
    EXPECT_TRUE(rs.rows.empty());
  }
}

TEST_F(QueryServerTest, ResultCacheEvictsLeastRecentlyUsed) {
  // A third page so three distinct (document, node query) entries exist.
  web::PageSpec c;
  c.title = "c alpha";
  ASSERT_TRUE(web_.AddDocument("http://h/c", web::RenderHtml(c)).ok());

  QueryServerOptions options;
  options.share_results = true;
  options.dedup_enabled = false;

  // Measurement pass with an unbounded cache: learn each entry's cost.
  server_->Stop();
  server_ = std::make_unique<QueryServer>("h", &web_, &net_, options);
  ASSERT_TRUE(server_->Start().ok());
  Deliver(MakeClone("N", "alpha", {"http://h/a"}));
  const uint64_t bytes_a = server_->stats().result_cache_bytes;
  Deliver(MakeClone("N", "alpha", {"http://h/b"}));
  const uint64_t bytes_ab = server_->stats().result_cache_bytes;
  Deliver(MakeClone("N", "alpha", {"http://h/c"}));
  const uint64_t bytes_abc = server_->stats().result_cache_bytes;
  ASSERT_GT(bytes_a, 0u);
  ASSERT_GT(bytes_ab, bytes_a);
  ASSERT_GT(bytes_abc, bytes_ab);
  // Evicting B alone must bring A+B+C back under the A+B budget.
  ASSERT_LE(bytes_abc - bytes_ab, bytes_ab - bytes_a);
  EXPECT_EQ(server_->stats().result_cache_evictions, 0u);  // unbounded: never

  // Bounded pass: budget holds exactly {A, B}.
  options.result_cache_max_bytes = bytes_ab;
  server_->Stop();
  server_ = std::make_unique<QueryServer>("h", &web_, &net_, options);
  ASSERT_TRUE(server_->Start().ok());
  Deliver(MakeClone("N", "alpha", {"http://h/a"}));
  Deliver(MakeClone("N", "alpha", {"http://h/b"}));
  EXPECT_EQ(server_->stats().result_cache_evictions, 0u);
  // Re-touching A moves it to the front: B is now least recently used.
  Deliver(MakeClone("N", "alpha", {"http://h/a"}));
  EXPECT_EQ(server_->stats().result_cache_hits, 1u);
  // Inserting C exceeds the budget and must evict B — not A (recently
  // touched) and not C (just inserted).
  Deliver(MakeClone("N", "alpha", {"http://h/c"}));
  EXPECT_EQ(server_->stats().result_cache_evictions, 1u);
  EXPECT_EQ(server_->stats().result_cache_bytes,
            bytes_a + (bytes_abc - bytes_ab));
  Deliver(MakeClone("N", "alpha", {"http://h/a"}));  // hit: A survived
  EXPECT_EQ(server_->stats().result_cache_hits, 2u);
  Deliver(MakeClone("N", "alpha", {"http://h/b"}));  // miss: B was the victim
  EXPECT_EQ(server_->stats().result_cache_misses, 4u);
  EXPECT_EQ(server_->stats().result_cache_hits, 2u);
}

TEST_F(QueryServerTest, ResultCacheColdAfterRestartWhileBatchMembersSurvive) {
  server_->Stop();
  MemoryPersistBackend backend{PersistFaultRules{}};
  QueryServerOptions options;
  options.share_results = true;
  options.dedup_enabled = false;
  options.persist.enabled = true;
  options.persist.snapshot_every_clones = 0;
  options.persist.wal_compact_bytes = 0;
  options.admission.max_pending = 4;
  // Queued clones drain one per second — slow enough that a crash at 500ms
  // catches the batch members still in the admission queue, WAL-admitted
  // but not yet evaluated.
  options.admission.service_time = 1 * kSecond;
  server_ = std::make_unique<QueryServer>("h", &web_, &net_, options);
  server_->SetPersistence(&backend);
  ASSERT_TRUE(server_->Start().ok());

  // Warm the cache: one miss, then one hit proves the entry is live.
  const query::WebQuery warm = MakeClone("N", "alpha", {"http://h/a"});
  Deliver(warm);
  Deliver(warm.Clone());
  EXPECT_EQ(server_->stats().result_cache_misses, 1u);
  EXPECT_EQ(server_->stats().result_cache_hits, 1u);
  ASSERT_EQ(reports_.size(), 2u);

  // A two-member batch envelope: admitted as one kBatchAdmitted WAL record
  // on arrival, then crashed out of the admission queue before the drain
  // timer fires. Note the members re-use the warm clone's node query — if
  // the cache survived the crash they would hit after recovery.
  query::CloneBatch batch;
  batch.clones.push_back(MakeClone("N", "alpha", {"http://h/a"}));
  batch.clones.back().id.query_number = 2;
  batch.clones.push_back(MakeClone("N", "alpha", {"http://h/b"}));
  batch.clones.back().id.query_number = 3;
  serialize::Encoder enc;
  batch.EncodeTo(&enc);
  net_.ScheduleAfter(500 * kMillisecond, [this] { server_->Crash(); });
  ASSERT_TRUE(net_.Send({"user.site", 9000}, {"h", kQueryServerPort},
                        net::MessageType::kCloneBatch, enc.Release())
                  .ok());
  net_.RunUntilIdle();
  EXPECT_EQ(server_->stats().clone_batches_received, 1u);
  EXPECT_EQ(server_->stats().clone_batch_members_received, 2u);
  ASSERT_EQ(reports_.size(), 2u);  // nothing evaluated before the crash
  EXPECT_EQ(server_->stats().result_cache_bytes, 0u);  // cache died with it

  // Restart: both WAL-admitted members are recovered and reprocessed, but
  // the result cache is rebuilt cold — the snapshot/WAL never carry it
  // (DurableServerState has no cache fields), so the warm entry is gone and
  // member 2's identical node query MISSES instead of hitting.
  ASSERT_TRUE(server_->Restart().ok());
  EXPECT_EQ(server_->stats().recovered_clones, 2u);
  net_.RunUntilIdle();
  ASSERT_EQ(reports_.size(), 4u);
  std::multiset<uint32_t> recovered_queries = {reports_[2].id.query_number,
                                               reports_[3].id.query_number};
  EXPECT_EQ(recovered_queries, (std::multiset<uint32_t>{2, 3}));
  EXPECT_EQ(server_->stats().result_cache_misses, 3u);  // both members cold
  EXPECT_EQ(server_->stats().result_cache_hits, 1u);    // no post-crash hit
  EXPECT_GT(server_->stats().result_cache_bytes, 0u);   // rebuilt, not lost
}

TEST_F(QueryServerTest, LogPurgePeriodCausesRecomputationOnly) {
  QueryServerOptions options;
  options.log_purge_every = 1;  // purge after every clone
  server_->Stop();
  server_ = std::make_unique<QueryServer>("h", &web_, &net_, options);
  ASSERT_TRUE(server_->Start().ok());
  const query::WebQuery clone = MakeClone("N", "alpha", {"http://h/a"});
  Deliver(clone);
  Deliver(clone.Clone());
  // Both processed (no dedup across the purge), results identical.
  EXPECT_EQ(server_->stats().node_queries_evaluated, 2u);
  ASSERT_EQ(reports_.size(), 2u);
  ASSERT_FALSE(reports_[0].node_reports[0].result_sets.empty());
  ASSERT_FALSE(reports_[1].node_reports[0].result_sets.empty());
}

// -- Durability: recovery stats (PROTOCOL.md §8) -----------------------------

TEST_F(QueryServerTest, RecoveryStatsDistinguishThreeRestartPaths) {
  server_->Stop();
  MemoryPersistBackend backend{PersistFaultRules{}};
  QueryServerOptions options;
  options.persist.enabled = true;
  options.persist.snapshot_every_clones = 0;  // no cadence snapshots yet
  options.persist.wal_compact_bytes = 0;      // no size-triggered snapshots
  server_ = std::make_unique<QueryServer>("h", &web_, &net_, options);
  server_->SetPersistence(&backend);
  ASSERT_TRUE(server_->Start().ok());

  // Path 1: cold start — storage is empty, the restart recovers nothing.
  server_->Crash();
  ASSERT_TRUE(server_->Restart().ok());
  EXPECT_EQ(server_->stats().cold_starts, 1u);
  EXPECT_EQ(server_->stats().recovered_from_snapshot, 0u);
  EXPECT_EQ(server_->stats().replayed_wal_records, 0u);

  // Path 2: WAL replay — one processed clone leaves an admitted/completed
  // record pair in the log, and no snapshot exists. Replaying a log is NOT
  // a cold start: the cold_starts counter must not move.
  Deliver(MakeClone("N", "alpha", {"http://h/a"}));
  EXPECT_EQ(server_->stats().wal_records_appended, 2u);
  server_->Crash();
  ASSERT_TRUE(server_->Restart().ok());
  EXPECT_EQ(server_->stats().cold_starts, 1u);  // unchanged
  EXPECT_EQ(server_->stats().recovered_from_snapshot, 0u);
  EXPECT_EQ(server_->stats().replayed_wal_records, 2u);
  EXPECT_EQ(server_->stats().recovered_clones, 0u);  // it had completed

  // Path 3: snapshot recovery — a cadence-1 server over the same storage
  // boots by replaying the old log (counted), snapshots after its first
  // clone (truncating the log), and its next restart loads the snapshot
  // with nothing left to replay.
  server_->Stop();
  QueryServerOptions snap_options;
  snap_options.persist.enabled = true;
  snap_options.persist.snapshot_every_clones = 1;
  server_ = std::make_unique<QueryServer>("h", &web_, &net_, snap_options);
  server_->SetPersistence(&backend);
  ASSERT_TRUE(server_->Restart().ok());
  EXPECT_EQ(server_->stats().replayed_wal_records, 2u);
  Deliver(MakeClone("N", "beta", {"http://h/b"}));
  EXPECT_EQ(server_->stats().snapshots_written, 1u);
  EXPECT_EQ(backend.WalBytes(), 0u);  // compaction truncated the log
  server_->Crash();
  ASSERT_TRUE(server_->Restart().ok());
  EXPECT_EQ(server_->stats().recovered_from_snapshot, 1u);
  EXPECT_EQ(server_->stats().replayed_wal_records, 2u);  // unchanged
  EXPECT_EQ(server_->stats().cold_starts, 0u);
}

// -- Durability: the snapshot a live server writes (PROTOCOL.md §8.2) --------

// The image LiveSnapshotHoldsEveryDurableSection reads back, frozen from
// the build that copied the server's state into a DurableServerState before
// encoding it: the in-place encoder must write the same bytes.
constexpr char kLiveSnapshotHex[] =
    "534e4150" "01" "0d010000" "e35d4d38"  // magic, version, length, crc
    "0300000000000000"                     // last_wal_id 3
    "01"                                   // log table: 1 group
    "0a687474703a2f2f682f61"               //   node "http://h/a"
    "0f7440636c69656e743a373030302331"     //   query "t@client:7000#1"
    "01000000" "01" "00"                   //   num_q 1, 1 PRE: empty
    "01"                                   // terminated: 1 key
    "0f7440636c69656e743a373030302339"     //   "t@client:7000#9"
    "02"                                   // seen: 2 transfers
    "0470656572" "0100" "01"               //   ("peer",1) seq 1
    "0470656572" "0100" "02"               //   ("peer",1) seq 2
    "02"                                   // pending: 2 members
    "0200000000000000" "0470656572" "0100" //   record 2 from ("peer",1),
    "01" "0200000000000000"                //   tracked, seq 2:
    "017406636c69656e74581b02000000010164"  //   query 2 at /a
    "0108646f63756d656e74016401030101640474657874000205616c7068610101"
    "640375726c010000010a687474703a2f2f682f610000"
    "0300000000000000" "0470656572" "0100" //   record 3 from ("peer",1),
    "00" "0000000000000000"                //   untracked, seq 0:
    "017406636c69656e74581b03000000010164"  //   query 3 at /b
    "0108646f63756d656e74016401030101640474657874000205616c7068610101"
    "640375726c010000010a687474703a2f2f682f620000";

TEST_F(QueryServerTest, LiveSnapshotHoldsEveryDurableSection) {
  server_->Stop();
  MemoryPersistBackend backend{PersistFaultRules{}};
  QueryServerOptions options;
  options.retry.enabled = true;  // tracked transfers fill the seen history
  options.persist.enabled = true;
  options.persist.snapshot_every_clones = 1;
  options.persist.wal_compact_bytes = 0;
  options.admission.max_pending = 4;
  options.admission.service_time = 1 * kSecond;
  server_ = std::make_unique<QueryServer>("h", &web_, &net_, options);
  server_->SetPersistence(&backend);
  ASSERT_TRUE(server_->Start().ok());

  // Reports arrive enveloped under retry, so these queries reply to a
  // client that acks them instead of to the fixture's report decoder.
  const net::Endpoint server{"h", kQueryServerPort};
  const net::Endpoint peer{"peer", 1};
  const net::Endpoint client{"client", 7000};
  ASSERT_TRUE(net_.Listen(peer, [](const net::Endpoint&, net::MessageType,
                                   const std::vector<uint8_t>&) {})
                  .ok());
  const auto ack_report = [this, client](const net::Endpoint& from,
                                         net::MessageType,
                                         const std::vector<uint8_t>& payload) {
    uint64_t seq = 0;
    ASSERT_TRUE(net::ReliableReceiver::PeekSeq(payload, &seq));
    serialize::Encoder ack;
    ack.PutU64(seq);
    ASSERT_TRUE(net_.Send(client, from, net::MessageType::kDeliveryAck,
                          ack.Release())
                    .ok());
  };
  ASSERT_TRUE(net_.Listen(client, ack_report).ok());
  const auto clone_for = [&](uint32_t query_number, const std::string& url) {
    query::WebQuery clone = MakeClone("N", "alpha", {url});
    clone.id.reply_host = client.host;
    clone.id.reply_port = client.port;
    clone.id.query_number = query_number;
    return clone;
  };
  uint64_t next_seq = 1;
  const auto send_tracked = [&](net::MessageType type,
                                const serialize::Encoder& body) {
    serialize::Encoder enveloped;
    enveloped.PutU64(next_seq++);
    enveloped.PutRaw(body.data().data(), body.size());
    ASSERT_TRUE(net_.Send(peer, server, type, enveloped.Release()).ok());
  };

  // Query 9 is terminated; query 1's clone queues first, then a
  // two-member batch (queries 2 and 3) queues behind it. Query 1 drains at
  // 1 s and completes, which writes the snapshot; the crash at 1.5 s comes
  // before the batch drains, so that snapshot is the last.
  serialize::Encoder terminate;
  clone_for(9, "http://h/a").id.EncodeTo(&terminate);
  ASSERT_TRUE(net_.Send(client, server, net::MessageType::kTerminate,
                        terminate.Release())
                  .ok());
  serialize::Encoder single;
  clone_for(1, "http://h/a").EncodeTo(&single);
  send_tracked(net::MessageType::kWebQuery, single);
  query::CloneBatch batch;
  batch.clones.push_back(clone_for(2, "http://h/a"));
  batch.clones.push_back(clone_for(3, "http://h/b"));
  serialize::Encoder batch_body;
  batch.EncodeTo(&batch_body);
  send_tracked(net::MessageType::kCloneBatch, batch_body);
  net_.ScheduleAfter(1500 * kMillisecond, [this] { server_->Crash(); });
  net_.RunUntilIdle();
  ASSERT_EQ(server_->stats().snapshots_written, 1u);

  auto image = backend.ReadSnapshot();
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(Hex(*image), kLiveSnapshotHex);
  DurableServerState state;
  ASSERT_TRUE(DecodeSnapshot(*image, &state).ok());
  EXPECT_EQ(state.log_table.size(), 1u);  // query 1's visit to /a
  EXPECT_EQ(state.terminated_queries,
            std::vector<std::string>{clone_for(9, "http://h/a").id.Key()});
  EXPECT_EQ(state.seen_transfers,
            (std::vector<std::pair<net::Endpoint, uint64_t>>{{peer, 1},
                                                             {peer, 2}}));
  // The batch unit flattens to one entry per member. Carrier rule: the
  // unit's one transfer seq rides on member 0 only.
  ASSERT_EQ(state.pending_clones.size(), 2u);
  const DurablePendingClone& carrier = state.pending_clones[0];
  const DurablePendingClone& rider = state.pending_clones[1];
  EXPECT_EQ(rider.record_id, carrier.record_id + 1);
  EXPECT_EQ(carrier.from, peer);
  EXPECT_EQ(rider.from, peer);
  EXPECT_TRUE(carrier.tracked);
  EXPECT_EQ(carrier.seq, 2u);
  EXPECT_FALSE(rider.tracked);
  EXPECT_EQ(rider.seq, 0u);
  EXPECT_EQ(carrier.clone.id.query_number, 2u);
  EXPECT_EQ(rider.clone.id.query_number, 3u);

  // The server recovers both queued members from that image.
  ASSERT_TRUE(server_->Restart().ok());
  EXPECT_EQ(server_->stats().recovered_from_snapshot, 1u);
  EXPECT_EQ(server_->stats().recovered_clones, 2u);
}

/// Every counter of `stats` as (name, value), in declaration order.
std::vector<std::pair<std::string, uint64_t>> Counters(
    const QueryServerStats& stats) {
  std::vector<std::pair<std::string, uint64_t>> out;
  ForEachCounter(stats, [&out](const char* name, uint64_t value) {
    out.emplace_back(name, value);
  });
  return out;
}

TEST(QueryServerStatsTest, MergeSumsEveryCounterButQueuePeak) {
  QueryServerStats a;
  QueryServerStats b;
  uint64_t next = 0;
  ForEachCounter(a, [&next](const char*, uint64_t& value) { value = ++next; });
  ForEachCounter(b, [&next](const char*, uint64_t& value) {
    value = 100 * ++next;
  });
  // Every field is a listed counter, so none escapes the merge.
  EXPECT_EQ(sizeof(QueryServerStats), Counters(a).size() * sizeof(uint64_t));
  // Both directions, so the larger queue_peak sits once on each side.
  for (const auto& [from, into] : {std::pair(a, b), std::pair(b, a)}) {
    QueryServerStats merged = into;
    MergeServerStats(from, &merged);
    const auto f = Counters(from);
    const auto t = Counters(into);
    const auto m = Counters(merged);
    ASSERT_EQ(m.size(), f.size());
    for (size_t i = 0; i < m.size(); ++i) {
      const uint64_t want = m[i].first == "queue_peak"
                                ? std::max(f[i].second, t[i].second)
                                : f[i].second + t[i].second;
      EXPECT_EQ(m[i].second, want) << m[i].first;
    }
  }
}

TEST(RecoveryStatsFormatTest, FormatRunStatsEmitsRecoveryCounters) {
  core::RunOutcome outcome;
  outcome.server_stats.recovered_from_snapshot = 1;
  outcome.server_stats.replayed_wal_records = 2;
  outcome.server_stats.cold_starts = 3;
  outcome.server_stats.snapshots_written = 4;
  const std::string text = core::FormatRunStats(outcome);
  EXPECT_NE(text.find("recovered_from_snapshot: 1"), std::string::npos);
  EXPECT_NE(text.find("replayed_wal_records: 2"), std::string::npos);
  EXPECT_NE(text.find("cold_starts: 3"), std::string::npos);
  EXPECT_NE(text.find("snapshots_written: 4"), std::string::npos);

  // With every counter zero the servers: block holds no counter line.
  outcome.server_stats = QueryServerStats();
  const std::string zero = core::FormatRunStats(outcome);
  EXPECT_EQ(zero.substr(zero.find("servers:\n")), "servers:\n");

  // Counter i set to i+1 prints exactly one "  name: i+1" line, and the
  // servers: block lists every counter in declaration order.
  uint64_t next = 0;
  std::vector<std::string> expected;
  ForEachCounter(outcome.server_stats,
                 [&](const char* name, uint64_t& value) {
                   value = ++next;
                   expected.push_back(StringPrintf(
                       "  %s: %llu", name,
                       static_cast<unsigned long long>(value)));
                 });
  const std::string all = core::FormatRunStats(outcome);
  const std::vector<std::string> lines = Split(all, '\n');
  for (const std::string& line : expected) {
    EXPECT_EQ(std::count(lines.begin(), lines.end(), line), 1) << line;
  }
  EXPECT_EQ(all.substr(all.find("servers:\n")),
            "servers:\n" + Join(expected, "\n") + "\n");
}

}  // namespace
}  // namespace webdis::server
