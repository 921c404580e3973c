#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/engine.h"
#include "disql/compiler.h"
#include "html/url.h"
#include "log_table_reference.h"
#include "net/sim.h"
#include "query/report.h"
#include "serialize/encoder.h"
#include "server/db_constructor.h"
#include "server/http_server.h"
#include "server/log_table.h"
#include "server/persist.h"
#include "server/query_server.h"
#include "web/pagegen.h"
#include "web/topologies.h"

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

TEST(LogTableTest, ArrivalAtTheDeadlineStillFindsItsDuplicate) {
  LogTable table;
  table.Check("n", "q", CloneState{1, P("L")}, /*deadline=*/100);
  table.Expire(100);
  EXPECT_EQ(table.Check("n", "q", CloneState{1, P("L")}, 100).comparison,
            pre::LogComparison::kDuplicate);
  table.Expire(101);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.stats().expired_queries, 1u);
}

TEST(LogTableTest, OneDeadlineLessArrivalKeepsItsQueryForever) {
  LogTable table;
  table.Check("n", "q1", CloneState{1, P("L")}, 100);
  table.Check("m", "q1", CloneState{1, P("L")}, LogTable::kNoDeadline);
  table.Check("n", "q2", CloneState{1, P("L")}, 100);
  table.Check("m", "q2", CloneState{1, P("L")}, 300);  // a later deadline
  table.Expire(200);
  EXPECT_EQ(table.size(), 4u);
  table.Expire(LogTable::kNoDeadline);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.Check("n", "q1", CloneState{1, P("L")}, 100).comparison,
            pre::LogComparison::kDuplicate);
  EXPECT_EQ(table.stats().expired_queries, 1u);
}

TEST(LogTableTest, PurgedQueryLeavesNoDeadlineBehind) {
  LogTable table;
  table.Check("n", "q", CloneState{1, P("L")}, 100);
  table.PurgeQuery("q");
  // The query comes back with a later deadline; the purged one is gone.
  table.Check("n", "q", CloneState{1, P("L")}, 300);
  table.Expire(200);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.stats().expired_queries, 0u);
}

TEST(LogTableTest, RestoredQueryStaysUntilADatedArrivalOrAPurge) {
  LogTable table;
  for (const char* query_key : {"q1", "q2", "q3"}) {
    table.Check("n", query_key, CloneState{1, P("L")}, 100);
  }
  serialize::Encoder enc;
  table.EncodeTo(&enc);
  LogTable restored;
  serialize::Decoder dec(enc.data());
  ASSERT_TRUE(LogTable::DecodeFrom(&dec, &restored).ok());
  // The image carries no deadlines: nothing is due.
  restored.Expire(1000);
  EXPECT_EQ(restored.size(), 3u);
  // An arrival of q1 dates it, and it expires past that deadline.
  EXPECT_EQ(restored.Check("n", "q1", CloneState{1, P("L")}, 2000).comparison,
            pre::LogComparison::kDuplicate);
  restored.Expire(2000);
  EXPECT_EQ(restored.size(), 3u);
  restored.Expire(2001);
  EXPECT_EQ(restored.size(), 2u);
  restored.PurgeQuery("q2");
  EXPECT_EQ(restored.size(), 1u);
  restored.Purge();
  EXPECT_EQ(restored.size(), 0u);
}

// The live table against reference::LogTable, which keeps every entry until
// a purge. Random streams of arrivals at 4 nodes for 6 live queries, num_q
// 1-3, over PREs of the `A*m·B` family the rules compare plus unrelated
// ones, interleaved with PurgeQuery, Purge, snapshot round trips and clock
// advances. A query whose deadline passes gets no further arrivals (its
// slot takes a fresh query), as the deadline gate guarantees a server; every
// arrival must get the reference's decision and rewritten PRE.
TEST(LogTableTest, MatchesTheReferenceWhileQueriesExpire) {
  std::vector<pre::Pre> pres;
  for (const char* a : {"L", "G"}) {
    for (const char* b : {"L", "G"}) {
      for (int m = 1; m <= 4; ++m) {
        pres.push_back(P(StringPrintf("%s*%d.%s", a, m, b)));
      }
      pres.push_back(P(StringPrintf("%s*.%s", a, b)));
    }
  }
  for (const char* unrelated : {"L", "G.L", "(L|G)*2", "I", "L.G.L"}) {
    pres.push_back(P(unrelated));
  }
  const std::vector<std::string> nodes = {"http://a/", "http://a/x",
                                          "http://b/", "http://c/y"};

  struct LiveQuery {
    std::string key;
    SimTime deadline;
  };
  std::map<pre::LogComparison, uint64_t> decisions;
  uint64_t expired = 0;
  uint64_t arrivals_at_deadline = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    LogTable table;
    reference::LogTable spec;
    SimTime now = 0;
    uint32_t next_query = 1;
    const auto fresh_query = [&] {
      LiveQuery query{"u@h:1#" + std::to_string(next_query++),
                      LogTable::kNoDeadline};
      if (!rng.Bernoulli(0.2)) query.deadline = now + rng.UniformRange(0, 200);
      return query;
    };
    std::vector<LiveQuery> live;
    for (int i = 0; i < 6; ++i) live.push_back(fresh_query());

    for (int step = 0; step < 1250; ++step) {
      const uint64_t op = rng.Uniform(1000);
      if (op < 40) {
        // Advance the clock, half the time exactly onto the earliest
        // deadline; a query whose deadline passed is replaced.
        SimTime earliest = LogTable::kNoDeadline;
        for (const LiveQuery& query : live) {
          earliest = std::min(earliest, query.deadline);
        }
        if (earliest != LogTable::kNoDeadline && earliest > now &&
            rng.Bernoulli(0.5)) {
          now = earliest;
        } else {
          now += rng.UniformRange(1, 10);
        }
        for (LiveQuery& query : live) {
          if (query.deadline < now) query = fresh_query();
        }
      } else if (op < 50) {
        const std::string& key = live[rng.Uniform(live.size())].key;
        table.PurgeQuery(key);
        spec.PurgeQuery(key);
      } else if (op < 52) {
        table.Purge();
        spec.Purge();
      } else if (op < 57) {
        serialize::Encoder table_image;
        table.EncodeTo(&table_image);
        serialize::Decoder table_dec(table_image.data());
        ASSERT_TRUE(LogTable::DecodeFrom(&table_dec, &table).ok());
        serialize::Encoder spec_image;
        spec.EncodeTo(&spec_image);
        serialize::Decoder spec_dec(spec_image.data());
        ASSERT_TRUE(reference::LogTable::DecodeFrom(&spec_dec, &spec).ok());
      } else {
        const LiveQuery& query = live[rng.Uniform(live.size())];
        const std::string& node = nodes[rng.Uniform(nodes.size())];
        const CloneState state{static_cast<uint32_t>(rng.UniformRange(1, 3)),
                               pres[rng.Uniform(pres.size())]};
        if (query.deadline == now) ++arrivals_at_deadline;
        // A server expires at every arrival, before its check.
        table.Expire(now);
        const pre::LogDecision got =
            table.Check(node, query.key, state, query.deadline);
        const pre::LogDecision want = spec.Check(node, query.key, state);
        ASSERT_EQ(got.comparison, want.comparison)
            << "step " << step << ": " << state.rem_pre.ToString() << " at "
            << node << " for " << query.key;
        ASSERT_EQ(got.rewritten.has_value(), want.rewritten.has_value());
        if (want.rewritten.has_value()) {
          EXPECT_TRUE(got.rewritten->Equals(*want.rewritten))
              << got.rewritten->ToString() << " vs "
              << want.rewritten->ToString();
        }
        ++decisions[want.comparison];
        ASSERT_LE(table.size(), spec.size());
      }
    }
    expired += table.stats().expired_queries;
  }
  // Every rule fired, queries expired, and some arrivals came exactly at
  // their deadline.
  EXPECT_GT(decisions[pre::LogComparison::kDuplicate], 0u);
  EXPECT_GT(decisions[pre::LogComparison::kSupersetRewrite], 0u);
  EXPECT_GT(decisions[pre::LogComparison::kUnrelated], 0u);
  EXPECT_GT(expired, 0u);
  EXPECT_GT(arrivals_at_deadline, 0u);
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
                              payloads_.push_back(payload);
                              KeepReports(type, payload);
                            })
                    .ok());
  }

  /// Decodes a kReport, or each member of a kReportBatch, into reports_.
  void KeepReports(net::MessageType type, const std::vector<uint8_t>& payload) {
    serialize::Decoder dec(payload);
    if (type == net::MessageType::kReportBatch) {
      query::ReportBatch batch;
      ASSERT_TRUE(query::ReportBatch::DecodeFrom(&dec, &batch).ok());
      for (query::QueryReport& qr : batch.reports) {
        reports_.push_back(std::move(qr));
      }
      return;
    }
    ASSERT_EQ(type, net::MessageType::kReport);
    query::QueryReport qr;
    ASSERT_TRUE(query::QueryReport::DecodeFrom(&dec, &qr).ok());
    reports_.push_back(std::move(qr));
  }

  /// A user site for servers running retry: acks every enveloped report
  /// from `client` and keeps it in reports_.
  void ListenAsRetryingUserSite(const net::Endpoint& client) {
    ASSERT_TRUE(
        net_.Listen(client,
                    [this, client](const net::Endpoint& from,
                                   net::MessageType type,
                                   const std::vector<uint8_t>& payload) {
                      uint64_t seq = 0;
                      std::vector<uint8_t> inner;
                      ASSERT_TRUE(net::ReliableReceiver::PeekSeq(payload, &seq));
                      ASSERT_TRUE(
                          net::ReliableReceiver::StripEnvelope(payload, &inner));
                      serialize::Encoder ack;
                      ack.PutU64(seq);
                      ASSERT_TRUE(net_.Send(client, from,
                                            net::MessageType::kDeliveryAck,
                                            ack.Release())
                                      .ok());
                      KeepReports(type, inner);
                    })
            .ok());
  }

  /// A forwarding peer: records every delivery-layer answer (ack or NACK)
  /// the server sends back as (type, transfer seq) in answers_.
  void ListenAsPeer(const net::Endpoint& peer) {
    ASSERT_TRUE(net_.Listen(peer,
                            [this](const net::Endpoint&, net::MessageType type,
                                   const std::vector<uint8_t>& payload) {
                              serialize::Decoder dec(payload);
                              uint64_t seq = 0;
                              ASSERT_TRUE(dec.GetU64(&seq).ok());
                              answers_.emplace_back(type, seq);
                            })
                    .ok());
  }

  /// How many answers of `type` for transfer `seq` the peer holds.
  size_t Answers(net::MessageType type, uint64_t seq) const {
    return static_cast<size_t>(std::count(answers_.begin(), answers_.end(),
                                          std::pair(type, seq)));
  }

  /// Sends `body` from `peer` to the server as transfer `seq`, in the
  /// delivery envelope a retrying sender puts around it.
  void SendTracked(const net::Endpoint& peer, uint64_t seq,
                   net::MessageType type, const std::vector<uint8_t>& body) {
    serialize::Encoder enveloped;
    enveloped.PutU64(seq);
    enveloped.PutRaw(body.data(), body.size());
    ASSERT_TRUE(net_.Send(peer, {"h", kQueryServerPort}, type,
                          enveloped.Release())
                    .ok());
  }

  /// Replaces the server with a fresh one running `options` over `backend`.
  void StartDurable(const QueryServerOptions& options,
                    MemoryPersistBackend* backend) {
    server_->Stop();
    server_ = std::make_unique<QueryServer>("h", &web_, &net_, options);
    server_->SetPersistence(backend);
    server_->SetClock([this] { return net_.now(); });
    ASSERT_TRUE(server_->Start().ok());
  }

  /// Query `number`'s clone for `dests` (N, "alpha"), replying to `client`.
  query::WebQuery CloneTo(const net::Endpoint& client, uint32_t number,
                          std::vector<std::string> dests) {
    query::WebQuery clone = MakeClone("N", "alpha", std::move(dests));
    clone.id.reply_host = client.host;
    clone.id.reply_port = client.port;
    clone.id.query_number = number;
    return clone;
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
  std::vector<std::vector<uint8_t>> payloads_;  // raw report payloads
  std::vector<std::pair<net::MessageType, uint64_t>> answers_;
};

/// Every query number with a report in `reports`.
std::set<uint32_t> ReportedQueries(
    const std::vector<query::QueryReport>& reports) {
  std::set<uint32_t> out;
  for (const query::QueryReport& qr : reports) out.insert(qr.id.query_number);
  return out;
}

/// Encodes a clone transfer body: one clone as kWebQuery, or a batch.
std::vector<uint8_t> Body(const query::WebQuery& clone) {
  serialize::Encoder enc;
  clone.EncodeTo(&enc);
  return enc.Release();
}
std::vector<uint8_t> Body(const query::CloneBatch& batch) {
  serialize::Encoder enc;
  batch.EncodeTo(&enc);
  return enc.Release();
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  std::string out;
  for (const uint8_t b : bytes) out += StringPrintf("%02x", b);
  return out;
}

/// `clone` with a budget deadline at virtual time `deadline`.
query::WebQuery WithDeadline(query::WebQuery clone, SimTime deadline) {
  clone.budget.has_deadline = true;
  clone.budget.deadline = deadline;
  return clone;
}

/// A durable server under retry whose admission queue holds `capacity`
/// members and serves one unit a second; nothing compacts its WAL.
QueryServerOptions DurableAdmission(size_t capacity) {
  QueryServerOptions options;
  options.retry.enabled = true;
  options.persist.enabled = true;
  options.persist.snapshot_every_clones = 0;
  options.persist.wal_compact_bytes = 0;
  options.admission.max_pending = capacity;
  options.admission.service_time = 1 * kSecond;
  return options;
}

/// Every admission record in `backend`'s WAL, in log order.
std::vector<WalBatchAdmitted> AdmissionRecords(MemoryPersistBackend* backend) {
  auto wal = backend->ReadWal();
  EXPECT_TRUE(wal.ok());
  const WalReadResult read = DecodeWal(*wal);
  EXPECT_EQ(read.discarded_records, 0u);
  std::vector<WalBatchAdmitted> out;
  for (const WalRecord& record : read.records) {
    if (record.type != WalRecordType::kBatchAdmitted) continue;
    serialize::Decoder dec(record.payload);
    EXPECT_TRUE(WalBatchAdmitted::DecodeFrom(&dec, &out.emplace_back()).ok());
  }
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

TEST_F(QueryServerTest, QueryEntriesExpireWithItsDeadline) {
  SimTime now = 0;
  server_->SetClock([&now] { return now; });
  const query::WebQuery clone =
      WithDeadline(MakeClone("N", "alpha", {"http://h/a"}), 1000);
  Deliver(clone);
  EXPECT_EQ(server_->log_table().size(), 1u);

  // At its deadline the clone still passes the gate, and its entry still
  // catches the duplicate.
  now = 1000;
  Deliver(clone.Clone());
  EXPECT_EQ(server_->stats().duplicates_dropped, 1u);
  EXPECT_EQ(server_->stats().budget_expired_clones, 0u);

  // Past it, the clone is budget-expired, and the arrival expired the
  // query's entries first.
  now = 1001;
  Deliver(clone.Clone());
  EXPECT_EQ(server_->stats().budget_expired_clones, 1u);
  EXPECT_EQ(server_->stats().duplicates_dropped, 1u);
  EXPECT_EQ(server_->log_table().size(), 0u);
  EXPECT_EQ(server_->log_table().stats().expired_queries, 1u);
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

/// Each stage's rows of the convener clone on `page`, evaluated over the
/// page's full, owned database.
std::vector<relational::ResultSet> ExpectedConvenerRows(
    const query::WebQuery& clone, const html::ParsedDocument& page) {
  const relational::Database db = BuildNodeDatabase(page);
  std::vector<relational::ResultSet> out;
  for (const query::NodeQuery& nq : clone.remaining_queries) {
    auto rows = relational::Execute(nq.select, db);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    if (rows.ok()) out.push_back(std::move(rows).value());
  }
  return out;
}

/// The rows of each result set of `report`.
std::vector<std::vector<relational::Tuple>> RowsOf(
    const query::NodeReport& report) {
  std::vector<std::vector<relational::Tuple>> out;
  for (const relational::ResultSet& rs : report.result_sets) {
    out.push_back(rs.rows);
  }
  return out;
}

TEST_F(QueryServerTest, StagedRowsOutliveTheRefilledPage) {
  // The server reads each visited page in place, through relations it
  // refills for every visit. Here two pages' rows are staged for a batched
  // report and kept in the result cache while the pages change under
  // them: P loses a rel-infon and Q goes away before the flush. The flush
  // must carry the rows as they were read, and the next visit of P must
  // see P's new rows only, none left over from its earlier refill.
  web::PageSpec p;
  p.title = "lab alpha";
  p.hr_blocks = {"The convener is Ada", "Convener Bea, deputy"};
  ASSERT_TRUE(web_.AddDocument("http://h/p", web::RenderHtml(p)).ok());
  web::PageSpec q;
  q.title = "lab beta";
  q.hr_blocks = {"Convener Cy"};
  ASSERT_TRUE(web_.AddDocument("http://h/q", web::RenderHtml(q)).ok());
  QueryServerOptions options;
  options.share_results = true;
  options.batch_window = 5 * kMillisecond;
  options.dedup_enabled = false;  // let the last clone visit P again
  Restart(options);

  query::WebQuery clone = MakeConvenerClone("http://h/p");
  clone.dest_urls = {"http://h/p", "http://h/q"};
  const std::vector<relational::ResultSet> want_p =
      ExpectedConvenerRows(clone, web_.Find("http://h/p")->parsed);
  const std::vector<relational::ResultSet> want_q =
      ExpectedConvenerRows(clone, web_.Find("http://h/q")->parsed);
  ASSERT_EQ(want_p.size(), 2u);
  ASSERT_EQ(want_p[1].rows.size(), 2u);
  ASSERT_EQ(want_q.size(), 2u);
  ASSERT_EQ(want_q[1].rows.size(), 1u);

  serialize::Encoder enc;
  clone.EncodeTo(&enc);
  ASSERT_TRUE(net_.Send({"user.site", 9000}, {"h", kQueryServerPort},
                        net::MessageType::kWebQuery, enc.Release())
                  .ok());
  ASSERT_TRUE(net_.RunOne());  // the delivery: both visits evaluate
  EXPECT_EQ(server_->stats().node_queries_evaluated, 4u);
  EXPECT_EQ(server_->stats().db_constructions, 2u);
  EXPECT_EQ(server_->stats().result_cache_misses, 4u);
  EXPECT_TRUE(reports_.empty());  // staged until the flush

  p.hr_blocks = {"The convener is Ada"};
  ASSERT_TRUE(web_.UpdateDocument("http://h/p", web::RenderHtml(p)).ok());
  ASSERT_TRUE(web_.RemoveDocument("http://h/q").ok());
  net_.RunUntilIdle();
  ASSERT_EQ(reports_.size(), 1u);
  ASSERT_EQ(reports_[0].node_reports.size(), 2u);
  const query::NodeReport& at_p = reports_[0].node_reports[0];
  const query::NodeReport& at_q = reports_[0].node_reports[1];
  EXPECT_EQ(at_p.node_url, "http://h/p");
  EXPECT_EQ(at_q.node_url, "http://h/q");
  EXPECT_EQ(RowsOf(at_p), (std::vector<std::vector<relational::Tuple>>{
                              want_p[0].rows, want_p[1].rows}));
  EXPECT_EQ(RowsOf(at_q), (std::vector<std::vector<relational::Tuple>>{
                              want_q[0].rows, want_q[1].rows}));

  // The edit bumped P's version, so the next visit misses the cache and
  // refills from P's new page: one convener row, not two.
  reports_.clear();
  Deliver(MakeConvenerClone("http://h/p"));
  const std::vector<relational::ResultSet> now_p =
      ExpectedConvenerRows(clone, web_.Find("http://h/p")->parsed);
  ASSERT_EQ(now_p[1].rows.size(), 1u);
  ASSERT_EQ(reports_.size(), 1u);
  EXPECT_EQ(RowsOf(reports_[0].node_reports[0]),
            (std::vector<std::vector<relational::Tuple>>{now_p[0].rows,
                                                         now_p[1].rows}));
  EXPECT_EQ(server_->stats().result_cache_misses, 6u);
  EXPECT_EQ(server_->stats().db_constructions, 3u);
}

/// Restores stderr logging when it goes out of scope.
struct CapturedWarnings {
  CapturedWarnings() {
    SetLogSink([this](LogLevel level, const std::string& line) {
      if (level >= LogLevel::kWarning) lines.push_back(line);
    });
  }
  ~CapturedWarnings() { SetLogSink(nullptr); }
  std::vector<std::string> lines;
};

TEST(NodeQueryErrorTest, FailedEvaluationIsLoggedReportsNoRowsAndRoutes) {
  // A hand-built clone whose node-query names a relation no page has: the
  // compiler never emits one, but a clone is outside input. Each
  // evaluation fails, is logged, and reports no rows; it neither answers
  // nor dead-ends, and the visit still forwards along rem(p), so the user
  // site's CHT settles.
  web::WebGraph web;
  web::PageSpec a;
  a.title = "start alpha";
  a.links = {{"/b", "to b"}};
  ASSERT_TRUE(web.AddDocument("http://h/a", web::RenderHtml(a)).ok());
  web::PageSpec b;
  b.title = "target alpha";
  ASSERT_TRUE(web.AddDocument("http://h/b", web::RenderHtml(b)).ok());
  auto compiled = disql::CompileDisql(
      "select d.url from document d such that \"http://h/a\" L*1 d");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  compiled->web_query.remaining_queries[0].select.from.push_back(
      {"nowhere", "x"});

  CapturedWarnings warnings;
  core::Engine engine(&web);
  auto outcome = engine.RunCompiled(compiled.value());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->completed);
  EXPECT_FALSE(outcome->partial);
  EXPECT_FALSE(outcome->budget_exhausted);
  EXPECT_TRUE(outcome->results.empty());
  EXPECT_EQ(outcome->client_stats.result_rows_received, 0u);
  EXPECT_GE(outcome->client_stats.reports_received, 2u);
  const QueryServerStats& stats = outcome->server_stats;
  EXPECT_EQ(stats.nodes_processed, 2u);
  EXPECT_EQ(stats.node_queries_evaluated, 2u);
  EXPECT_EQ(stats.answers_found, 0u);
  EXPECT_EQ(stats.dead_ends, 0u);
  EXPECT_EQ(stats.clones_forwarded, 1u);  // /a -> /b along L
  ASSERT_EQ(warnings.lines.size(), 2u);
  for (const char* url : {"http://h/a", "http://h/b"}) {
    const std::string want = std::string("node-query failed on ") + url +
                             ": NotFound: unknown relation 'nowhere'";
    EXPECT_TRUE(std::any_of(
        warnings.lines.begin(), warnings.lines.end(),
        [&](const std::string& line) {
          return line.find(want) != std::string::npos;
        }))
        << want;
  }
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
  // A lone clone is admitted as a one-member batch.
  const std::vector<WalBatchAdmitted> admitted = AdmissionRecords(&backend);
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(admitted[0].clones.size(), 1u);
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
  MemoryPersistBackend backend{PersistFaultRules{}};
  QueryServerOptions options;
  options.retry.enabled = true;  // tracked transfers fill the seen history
  options.persist.enabled = true;
  options.persist.snapshot_every_clones = 1;
  options.persist.wal_compact_bytes = 0;
  options.admission.max_pending = 4;
  options.admission.service_time = 1 * kSecond;
  StartDurable(options, &backend);

  // Reports arrive enveloped under retry, so these queries reply to a
  // client that acks them instead of to the fixture's report decoder.
  const net::Endpoint server{"h", kQueryServerPort};
  const net::Endpoint peer{"peer", 1};
  const net::Endpoint client{"client", 7000};
  ListenAsPeer(peer);
  ListenAsRetryingUserSite(client);

  // Query 9 is terminated; query 1's clone queues first, then a
  // two-member batch (queries 2 and 3) queues behind it. Query 1 drains at
  // 1 s and completes, which writes the snapshot; the crash at 1.5 s comes
  // before the batch drains, so that snapshot is the last.
  serialize::Encoder terminate;
  CloneTo(client, 9, {"http://h/a"}).id.EncodeTo(&terminate);
  ASSERT_TRUE(net_.Send(client, server, net::MessageType::kTerminate,
                        terminate.Release())
                  .ok());
  SendTracked(peer, 1, net::MessageType::kWebQuery,
              Body(CloneTo(client, 1, {"http://h/a"})));
  query::CloneBatch batch;
  batch.clones.push_back(CloneTo(client, 2, {"http://h/a"}));
  batch.clones.push_back(CloneTo(client, 3, {"http://h/b"}));
  SendTracked(peer, 2, net::MessageType::kCloneBatch, Body(batch));
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
            std::vector<std::string>{
                CloneTo(client, 9, {"http://h/a"}).id.Key()});
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

// -- Clone transfers read inline, under retry and the WAL (§8, §9.2) ---------

TEST_F(QueryServerTest, InlineCloneBatchReplaysAreReackedAcrossRestart) {
  MemoryPersistBackend backend{PersistFaultRules{}};
  QueryServerOptions options;
  options.retry.enabled = true;
  options.persist.enabled = true;
  options.persist.snapshot_every_clones = 0;
  options.persist.wal_compact_bytes = 0;
  StartDurable(options, &backend);
  const net::Endpoint peer{"peer", 1};
  const net::Endpoint client{"client", 7000};
  ListenAsPeer(peer);
  ListenAsRetryingUserSite(client);
  query::CloneBatch batch;
  batch.clones.push_back(CloneTo(client, 2, {"http://h/a"}));
  batch.clones.push_back(CloneTo(client, 3, {"http://h/b"}));

  // The batch is admitted under one WAL record, acked once and processed.
  SendTracked(peer, 1, net::MessageType::kCloneBatch, Body(batch));
  net_.RunUntilIdle();
  EXPECT_EQ(Answers(net::MessageType::kDeliveryAck, 1), 1u);
  EXPECT_EQ(server_->stats().clone_batches_received, 1u);
  EXPECT_EQ(server_->stats().node_queries_evaluated, 2u);
  ASSERT_EQ(reports_.size(), 2u);

  // Its retransmission is re-acked and not processed again.
  SendTracked(peer, 1, net::MessageType::kCloneBatch, Body(batch));
  net_.RunUntilIdle();
  EXPECT_EQ(Answers(net::MessageType::kDeliveryAck, 1), 2u);
  EXPECT_EQ(server_->stats().clone_batches_received, 1u);
  EXPECT_EQ(server_->stats().node_queries_evaluated, 2u);
  EXPECT_EQ(reports_.size(), 2u);

  // A batch that does not decode is acked once, after one kTransferSeen
  // record that keeps the commit across a crash.
  const uint64_t appended = server_->stats().wal_records_appended;
  SendTracked(peer, 2, net::MessageType::kCloneBatch, {1, 2, 3});
  net_.RunUntilIdle();
  EXPECT_EQ(server_->stats().decode_errors, 1u);
  EXPECT_EQ(server_->stats().wal_records_appended, appended + 1);
  EXPECT_EQ(Answers(net::MessageType::kDeliveryAck, 2), 1u);

  // After a crash the WAL replay restores that receipt: the retransmission
  // is re-acked, not decoded again.
  server_->Crash();
  ASSERT_TRUE(server_->Restart().ok());
  EXPECT_EQ(server_->stats().replayed_wal_records, appended + 1);
  SendTracked(peer, 2, net::MessageType::kCloneBatch, {1, 2, 3});
  net_.RunUntilIdle();
  EXPECT_EQ(Answers(net::MessageType::kDeliveryAck, 2), 2u);
  EXPECT_EQ(server_->stats().decode_errors, 1u);
  EXPECT_EQ(server_->stats().recovered_clones, 0u);
  EXPECT_EQ(reports_.size(), 2u);

  // A payload too short to hold its delivery envelope is dropped
  // unanswered.
  ASSERT_TRUE(net_.Send(peer, {"h", kQueryServerPort},
                        net::MessageType::kCloneBatch, {1, 2, 3})
                  .ok());
  net_.RunUntilIdle();
  EXPECT_EQ(answers_.size(), 4u);
  EXPECT_EQ(server_->stats().decode_errors, 1u);
}

TEST_F(QueryServerTest, RetiredServerNacksTrackedCloneBatchOnce) {
  QueryServerOptions options;
  options.retry.enabled = true;
  Restart(options);
  const net::Endpoint peer{"peer", 1};
  const net::Endpoint client{"client", 7000};
  ListenAsPeer(peer);
  ListenAsRetryingUserSite(client);
  server_->Retire();

  query::CloneBatch batch;
  batch.clones.push_back(CloneTo(client, 1, {"http://h/a", "http://h/b"}));
  batch.clones.push_back(CloneTo(client, 2, {"http://h/b"}));
  SendTracked(peer, 1, net::MessageType::kCloneBatch, Body(batch));
  net_.RunUntilIdle();

  // One terminal NACK for the one transfer, and no ack.
  EXPECT_EQ(answers_, (std::vector<std::pair<net::MessageType, uint64_t>>{
                          {net::MessageType::kSiteRetired, 1}}));
  EXPECT_EQ(server_->stats().site_retired_nacks_sent, 1u);
  // A site-retired report for every destination of every member.
  std::multiset<std::pair<uint32_t, std::string>> retired;
  for (const query::QueryReport& qr : reports_) {
    for (const query::NodeReport& nr : qr.node_reports) {
      EXPECT_EQ(nr.visibility, query::NodeReport::kVisibilitySiteRetired);
      retired.emplace(qr.id.query_number, nr.node_url);
    }
  }
  EXPECT_EQ(retired, (std::multiset<std::pair<uint32_t, std::string>>{
                         {1, "http://h/a"}, {1, "http://h/b"},
                         {2, "http://h/b"}}));
  EXPECT_EQ(server_->stats().retired_reports_sent, 3u);
  EXPECT_EQ(server_->stats().node_queries_evaluated, 0u);

  // A batch that does not decode gets the terminal NACK alone.
  SendTracked(peer, 2, net::MessageType::kCloneBatch, {1, 2, 3});
  net_.RunUntilIdle();
  EXPECT_EQ(Answers(net::MessageType::kSiteRetired, 2), 1u);
  EXPECT_EQ(answers_.size(), 2u);
  EXPECT_EQ(server_->stats().decode_errors, 1u);
  EXPECT_EQ(server_->stats().site_retired_nacks_sent, 2u);
  EXPECT_EQ(server_->stats().retired_reports_sent, 3u);
}

// -- Batched egress (PROTOCOL.md §9.2–9.3) -------------------------------------

TEST_F(QueryServerTest, RefusedReportBatchTerminatesEveryClosedMember) {
  QueryServerOptions options;
  options.batch_window = 10 * kMillisecond;
  Restart(options);
  // Three queries reply to three sockets of one user-site host. 9001, the
  // lowest port and so the batch's carrier, and 9002 are closed; only 9003
  // listens.
  std::vector<net::MessageType> types;
  ASSERT_TRUE(net_.Listen({"user.site", 9003},
                          [&](const net::Endpoint&, net::MessageType type,
                              const std::vector<uint8_t>& payload) {
                            types.push_back(type);
                            KeepReports(type, payload);
                          })
                  .ok());
  // Each clone evaluates /a and stages a forward to /b for the same flush.
  for (uint16_t port : {9001, 9002, 9003}) {
    query::WebQuery clone = MakeClone("L*1", "beta", {"http://h/a"});
    clone.id.reply_port = port;
    clone.id.query_number = port;
    ASSERT_TRUE(net_.Send({"user.site", 1}, {"h", kQueryServerPort},
                          net::MessageType::kWebQuery, Body(clone))
                    .ok());
  }
  net_.RunUntilIdle();

  // The refused batch terminates the carrier's query, the resend to 9002
  // is refused too, and the third member arrives alone as a kReport.
  EXPECT_EQ(server_->stats().passive_terminations, 2u);
  EXPECT_EQ(server_->stats().report_batches_sent, 0u);
  EXPECT_EQ(types, (std::vector<net::MessageType>(
                       2, net::MessageType::kReport)));
  ASSERT_EQ(reports_.size(), 2u);
  EXPECT_EQ(reports_[0].node_reports[0].node_url, "http://h/a");
  EXPECT_EQ(reports_[1].node_reports[0].node_url, "http://h/b");
  EXPECT_EQ(ReportedQueries(reports_), std::set<uint32_t>{9003});
  // Only the live query's staged clone went on to /b.
  EXPECT_EQ(server_->stats().clones_forwarded, 1u);
  EXPECT_EQ(server_->stats().node_queries_evaluated, 4u);
}

/// Passes everything to `inner`, but fails each send to `host` with a
/// transient IoError, the way a real TCP write can fail mid-stream.
class FailSendsTo : public net::Transport {
 public:
  FailSendsTo(net::Transport* inner, std::string host)
      : inner_(inner), host_(std::move(host)) {}
  Status Listen(const net::Endpoint& endpoint,
                net::MessageHandler handler) override {
    return inner_->Listen(endpoint, std::move(handler));
  }
  void CloseListener(const net::Endpoint& endpoint) override {
    inner_->CloseListener(endpoint);
  }
  Status Send(const net::Endpoint& from, const net::Endpoint& to,
              net::MessageType type, std::vector<uint8_t> payload) override {
    if (to.host == host_) return Status::IoError("connection reset");
    return inner_->Send(from, to, type, std::move(payload));
  }
  uint64_t ScheduleAfter(SimDuration delay, std::function<void()> fn) override {
    return inner_->ScheduleAfter(delay, std::move(fn));
  }
  bool CancelTimer(uint64_t id) override { return inner_->CancelTimer(id); }

 private:
  net::Transport* inner_;
  std::string host_;
};

TEST_F(QueryServerTest, TransientForwardErrorIsBookedAlikeBatchedOrNot) {
  // /c links to a site whose writes fail with IoError, not refusal.
  web::PageSpec c;
  c.title = "gateway";
  c.links = {{"http://far/x", "far away"}};
  ASSERT_TRUE(web_.AddDocument("http://h/c", web::RenderHtml(c)).ok());
  server_->Stop();
  FailSendsTo failing(&net_, "far");
  std::vector<QueryServerStats> booked;
  for (const SimDuration window : {SimDuration{0}, 10 * kMillisecond}) {
    QueryServerOptions options;
    options.batch_window = window;
    QueryServer server("h", &web_, &failing, options);
    ASSERT_TRUE(server.Start().ok());
    Deliver(MakeClone("G", "alpha", {"http://h/c"}));
    booked.push_back(server.stats());
    server.Stop();
  }
  // The forward is armed for retry (or lost to the deadline sweep) either
  // way: both paths count it forwarded and name the send error.
  for (const QueryServerStats& stats : booked) {
    EXPECT_EQ(stats.forward_send_errors, 1u);
    EXPECT_EQ(stats.clones_forwarded, 1u);
    EXPECT_EQ(stats.undeliverable_forwards, 0u);
  }
}

// -- Recovery (PROTOCOL.md §8) --------------------------------------------------

TEST_F(QueryServerTest, RecoveredCloneOfTerminatedQueryStaysTerminated) {
  MemoryPersistBackend backend{PersistFaultRules{}};
  QueryServerOptions options;
  options.persist.enabled = true;
  options.persist.snapshot_every_clones = 0;
  options.persist.wal_compact_bytes = 0;
  options.admission.max_pending = 4;
  options.admission.service_time = 1 * kSecond;
  StartDurable(options, &backend);

  // The clone is WAL-admitted and queued; the query is then terminated,
  // and the server crashes before the clone drains.
  const query::WebQuery clone = MakeClone("N", "alpha", {"http://h/a"});
  ASSERT_TRUE(net_.Send({"user.site", 9000}, {"h", kQueryServerPort},
                        net::MessageType::kWebQuery, Body(clone))
                  .ok());
  serialize::Encoder terminate;
  clone.id.EncodeTo(&terminate);
  ASSERT_TRUE(net_.Send({"user.site", 9000}, {"h", kQueryServerPort},
                        net::MessageType::kTerminate, terminate.Release())
                  .ok());
  net_.ScheduleAfter(500 * kMillisecond, [this] { server_->Crash(); });
  net_.RunUntilIdle();
  EXPECT_EQ(server_->stats().active_terminations, 1u);

  // Recovery re-enqueues the clone, but the replayed kQueryTerminated
  // record keeps the query dead: the clone drains and is dropped.
  ASSERT_TRUE(server_->Restart().ok());
  EXPECT_EQ(server_->stats().recovered_clones, 1u);
  net_.RunUntilIdle();
  EXPECT_EQ(server_->stats().clones_received, 1u);
  EXPECT_EQ(server_->stats().node_queries_evaluated, 0u);
  EXPECT_TRUE(reports_.empty());
}

TEST_F(QueryServerTest, ShedCloneKeepsItsStagedReportAcrossACrash) {
  MemoryPersistBackend backend{PersistFaultRules{}};
  QueryServerOptions options;
  options.batch_window = 100 * kMillisecond;
  options.persist.enabled = true;
  options.persist.snapshot_every_clones = 1;
  options.persist.wal_compact_bytes = 0;
  options.admission.max_pending = 1;
  options.admission.service_time = 20 * kMillisecond;
  StartDurable(options, &backend);
  const auto send_at = [this](SimTime at, uint32_t number, SimTime deadline) {
    query::WebQuery clone = MakeClone("N", "alpha", {"http://h/a"});
    clone.id.query_number = number;
    clone.budget.has_deadline = deadline != 0;
    clone.budget.deadline = deadline;
    net_.ScheduleAfter(at, [this, body = Body(clone)] {
      ASSERT_TRUE(net_.Send({"user.site", 9000}, {"h", kQueryServerPort},
                            net::MessageType::kWebQuery, body)
                      .ok());
    });
  };
  // Query 1 arrives at 20 ms and drains at 40 ms, staging its report for
  // the flush at 140 ms. Query 2 queues at 50 ms; query 3 arrives at 60 ms
  // with a later deadline and evicts it, so query 2's budget report is
  // staged too. The crash at 100 ms comes before the flush.
  send_at(0, 1, 0);
  send_at(30 * kMillisecond, 2, 10 * kSecond);
  send_at(40 * kMillisecond, 3, 20 * kSecond);
  net_.ScheduleAfter(100 * kMillisecond, [this] { server_->Crash(); });
  net_.RunUntilIdle();
  EXPECT_EQ(server_->stats().clones_evicted, 1u);
  EXPECT_TRUE(reports_.empty());
  // The shed unit's completion waited for the flush like query 1's, so no
  // snapshot covered a clone whose report was still staged.
  EXPECT_EQ(server_->stats().snapshots_written, 0u);

  // Every admission record survives: the restart answers all three
  // queries.
  ASSERT_TRUE(server_->Restart().ok());
  net_.RunUntilIdle();
  EXPECT_EQ(ReportedQueries(reports_), (std::set<uint32_t>{1, 2, 3}));
}

// -- One admission path (PROTOCOL.md §7.2) -------------------------------------

TEST_F(QueryServerTest, BatchEvictsAnEarlierDeadlineUnitToFit) {
  const net::Endpoint peer{"peer", 1};
  const net::Endpoint client{"client", 7000};
  ListenAsPeer(peer);
  ListenAsRetryingUserSite(client);
  // Query 1 queues with a 5 s deadline, alone in a queue of one or beside
  // query 2 in a queue of three. A two-member batch whose earliest deadline
  // is 20 s overflows either queue: evicting query 1 empties the first and
  // makes room in the second.
  std::map<size_t, MemoryPersistBackend> backends;  // outlive their servers
  for (const size_t capacity : {size_t{1}, size_t{3}}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    StartDurable(DurableAdmission(capacity), &backends[capacity]);
    answers_.clear();
    reports_.clear();
    SendTracked(peer, 1, net::MessageType::kWebQuery,
                Body(WithDeadline(CloneTo(client, 1, {"http://h/a"}),
                                  5 * kSecond)));
    if (capacity == 3) {
      SendTracked(peer, 2, net::MessageType::kWebQuery,
                  Body(CloneTo(client, 2, {"http://h/b"})));
    }
    query::CloneBatch batch;
    batch.clones.push_back(
        WithDeadline(CloneTo(client, 3, {"http://h/a"}), 20 * kSecond));
    batch.clones.push_back(
        WithDeadline(CloneTo(client, 4, {"http://h/b"}), 30 * kSecond));
    SendTracked(peer, 3, net::MessageType::kCloneBatch, Body(batch));
    net_.RunUntilIdle();

    EXPECT_EQ(server_->stats().clones_evicted, 1u);
    EXPECT_EQ(server_->stats().clones_shed, 0u);
    EXPECT_EQ(server_->stats().clone_batches_received, 1u);
    // One ack and one admission record cover the batch.
    EXPECT_EQ(Answers(net::MessageType::kDeliveryAck, 3), 1u);
    EXPECT_EQ(Answers(net::MessageType::kOverloaded, 3), 0u);
    const std::vector<WalBatchAdmitted> admitted =
        AdmissionRecords(&backends[capacity]);
    ASSERT_EQ(admitted.size(), capacity == 3 ? 3u : 2u);
    EXPECT_EQ(admitted.back().seq, 3u);
    ASSERT_EQ(admitted.back().clones.size(), 2u);
    EXPECT_EQ(admitted.back().clones[0].id.query_number, 3u);
    EXPECT_EQ(admitted.back().clones[1].id.query_number, 4u);
    // The victim's node is reported budget-exceeded; the rest are served.
    std::set<std::pair<uint32_t, std::string>> degraded;
    std::set<std::pair<uint32_t, std::string>> visited;
    for (const query::QueryReport& qr : reports_) {
      for (const query::NodeReport& nr : qr.node_reports) {
        (nr.budget_exceeded ? degraded : visited)
            .emplace(qr.id.query_number, nr.node_url);
      }
    }
    std::set<std::pair<uint32_t, std::string>> served = {{3, "http://h/a"},
                                                         {4, "http://h/b"}};
    if (capacity == 3) served.emplace(2, "http://h/b");
    EXPECT_EQ(degraded, (std::set<std::pair<uint32_t, std::string>>{
                            {1, "http://h/a"}}));
    EXPECT_EQ(visited, served);
  }
}

TEST_F(QueryServerTest, BatchThatCannotFitAfterOneEvictionIsNackedWhole) {
  MemoryPersistBackend backend{PersistFaultRules{}};
  StartDurable(DurableAdmission(2), &backend);
  const net::Endpoint peer{"peer", 1};
  const net::Endpoint client{"client", 7000};
  ListenAsPeer(peer);
  ListenAsRetryingUserSite(client);

  // Two lone clones fill the queue, query 1 with the earliest deadline.
  // Evicting it would still leave three members in a queue of two.
  SendTracked(peer, 1, net::MessageType::kWebQuery,
              Body(WithDeadline(CloneTo(client, 1, {"http://h/a"}),
                                5 * kSecond)));
  SendTracked(peer, 2, net::MessageType::kWebQuery,
              Body(CloneTo(client, 2, {"http://h/b"})));
  query::CloneBatch batch;
  batch.clones.push_back(
      WithDeadline(CloneTo(client, 3, {"http://h/a"}), 20 * kSecond));
  batch.clones.push_back(
      WithDeadline(CloneTo(client, 4, {"http://h/b"}), 30 * kSecond));
  SendTracked(peer, 3, net::MessageType::kCloneBatch, Body(batch));
  net_.RunUntilIdle();

  EXPECT_EQ(server_->stats().clones_evicted, 0u);
  EXPECT_EQ(server_->stats().clones_shed, 2u);
  EXPECT_EQ(server_->stats().batches_shed, 1u);
  EXPECT_EQ(server_->stats().clone_batches_received, 0u);
  EXPECT_EQ(Answers(net::MessageType::kOverloaded, 3), 1u);
  EXPECT_EQ(Answers(net::MessageType::kDeliveryAck, 3), 0u);
  EXPECT_EQ(AdmissionRecords(&backend).size(), 2u);
  EXPECT_EQ(ReportedQueries(reports_), (std::set<uint32_t>{1, 2}));
}

TEST_F(QueryServerTest, LoneCloneMeetingAnOverfilledQueueNeedsRoomToEvict) {
  MemoryPersistBackend backend{PersistFaultRules{}};
  StartDurable(DurableAdmission(3), &backend);
  const net::Endpoint peer{"peer", 1};
  const net::Endpoint client{"client", 7000};
  ListenAsPeer(peer);
  ListenAsRetryingUserSite(client);

  // Three clones are admitted, and the server crashes before any drains.
  SendTracked(peer, 1, net::MessageType::kWebQuery,
              Body(WithDeadline(CloneTo(client, 1, {"http://h/a"}),
                                5 * kSecond)));
  SendTracked(peer, 2, net::MessageType::kWebQuery,
              Body(CloneTo(client, 2, {"http://h/a"})));
  SendTracked(peer, 3, net::MessageType::kWebQuery,
              Body(CloneTo(client, 3, {"http://h/b"})));
  net_.ScheduleAfter(500 * kMillisecond, [this] { server_->Crash(); });
  net_.RunUntilIdle();

  // A server with a one-member queue recovers all three over that storage.
  server_ = std::make_unique<QueryServer>("h", &web_, &net_,
                                          DurableAdmission(1));
  server_->SetPersistence(&backend);
  server_->SetClock([this] { return net_.now(); });
  ASSERT_TRUE(server_->Restart().ok());
  ASSERT_EQ(server_->pending_clones(), 3u);

  // Query 4's deadline is later than query 1's, but evicting query 1 would
  // leave three members in a queue of one: query 4 is rejected instead.
  SendTracked(peer, 4, net::MessageType::kWebQuery,
              Body(WithDeadline(CloneTo(client, 4, {"http://h/b"}),
                                20 * kSecond)));
  net_.RunUntilIdle();
  EXPECT_EQ(server_->stats().clones_evicted, 0u);
  EXPECT_EQ(server_->stats().clones_shed, 1u);
  EXPECT_EQ(Answers(net::MessageType::kOverloaded, 4), 1u);
  EXPECT_EQ(ReportedQueries(reports_), (std::set<uint32_t>{1, 2, 3}));
  // Lone clones are one-member units, never counted as batches.
  EXPECT_EQ(server_->stats().batches_shed, 0u);
  EXPECT_EQ(server_->stats().clone_batches_received, 0u);
}

TEST_F(QueryServerTest, ReplayAtAdmissionIsReackedOnceAndCounted) {
  MemoryPersistBackend backend{PersistFaultRules{}};
  StartDurable(DurableAdmission(2), &backend);
  const net::Endpoint peer{"peer", 1};
  const net::Endpoint client{"client", 7000};
  ListenAsPeer(peer);
  ListenAsRetryingUserSite(client);

  // The durable queue acks the transfer at admission; its retransmission
  // arrives while the first copy is still queued.
  SendTracked(peer, 1, net::MessageType::kWebQuery,
              Body(CloneTo(client, 1, {"http://h/a"})));
  SendTracked(peer, 1, net::MessageType::kWebQuery,
              Body(CloneTo(client, 1, {"http://h/a"})));
  uint64_t queued = 0;
  net_.ScheduleAfter(500 * kMillisecond,
                     [this, &queued] { queued = server_->pending_clones(); });
  net_.RunUntilIdle();

  EXPECT_EQ(queued, 1u);
  EXPECT_EQ(Answers(net::MessageType::kDeliveryAck, 1), 2u);
  EXPECT_EQ(server_->stats().redeliveries_suppressed, 1u);
  EXPECT_EQ(server_->stats().clones_received, 1u);
  EXPECT_EQ(AdmissionRecords(&backend).size(), 1u);
  EXPECT_EQ(reports_.size(), 1u);
}

TEST(QueryServerRecoveryTest, BatchedWalServerReprocessesInlineAfterCrash) {
  // The shared_durable shape: batching and a WAL, admission off. The start
  // site crashes after processing the first clone and before its flush.
  web::CampusScenario scenario = web::BuildCampusScenario();
  core::EngineOptions options;
  options.server.batch_window = 100 * kMillisecond;
  options.server.persist.enabled = true;
  options.server.persist.wal_enabled = true;
  core::Engine reference_engine(&scenario.web, options);
  auto reference = reference_engine.Run(scenario.disql);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference->completed);

  core::Engine engine(&scenario.web, options);
  const std::string host = html::ParseUrl(scenario.start_url)->host;
  QueryServer* qs = engine.server_for(host);
  ASSERT_NE(qs, nullptr);
  engine.network().ScheduleAfter(60 * kMillisecond, [qs] { qs->Crash(); });
  engine.network().ScheduleAfter(80 * kMillisecond,
                                 [qs] { EXPECT_TRUE(qs->Restart().ok()); });
  auto outcome = engine.Run(scenario.disql);
  ASSERT_TRUE(outcome.ok());
  const QueryServerStats stats = engine.AggregateServerStats();
  EXPECT_EQ(stats.recovered_clones, 1u);
  EXPECT_TRUE(outcome->completed);
  EXPECT_FALSE(outcome->partial);
  std::multiset<std::string> want;
  std::multiset<std::string> got;
  for (const auto& [results, keys] :
       {std::pair(&reference->results, &want),
        std::pair(&outcome->results, &got)}) {
    for (const relational::ResultSet& rs : *results) {
      for (const relational::Tuple& row : rs.rows) {
        std::string key;
        for (const relational::Value& v : row) key += v.ToString() + "|";
        keys->insert(std::move(key));
      }
    }
  }
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(got, want);
}

// -- The multiple-rewrite (§3.1.1) ---------------------------------------------

TEST_F(QueryServerTest, SupersetArrivalRoutesOnlyTheRewrittenRemainder) {
  std::vector<VisitEvent> visits;
  server_->SetVisitObserver(
      [&visits](const VisitEvent& event) { visits.push_back(event); });
  // A*m·B with A = L, m = 1, B = ε: /a evaluates, then /b.
  Deliver(MakeClone("L*1", "alpha", {"http://h/a"}));
  ASSERT_EQ(visits.size(), 2u);
  EXPECT_EQ(server_->stats().superset_rewrites, 0u);
  const uint64_t evaluated = server_->stats().node_queries_evaluated;
  const uint64_t built = server_->stats().db_constructions;
  visits.clear();
  reports_.clear();

  // A*n·B with n = 2 covers it: /a processes only the difference
  // L·L*1, which is not nullable, so it acts as a PureRouter.
  Deliver(MakeClone("L*2", "alpha", {"http://h/a"}));
  EXPECT_EQ(server_->stats().superset_rewrites, 1u);
  ASSERT_EQ(visits.size(), 2u);
  const VisitEvent& router = visits[0];
  EXPECT_EQ(router.node_url, "http://h/a");
  EXPECT_TRUE(router.received_state.rem_pre.Equals(P("L*2")));
  EXPECT_TRUE(router.rewritten);
  EXPECT_FALSE(router.evaluated);
  EXPECT_FALSE(router.answered);
  EXPECT_EQ(router.forward_count, 1u);
  // The remainder it forwards is the rewrite derived by L: L*1 at /b.
  ASSERT_EQ(reports_.size(), 2u);
  const query::NodeReport& routed = reports_[0].node_reports[0];
  EXPECT_TRUE(routed.result_sets.empty());
  ASSERT_EQ(routed.next_entries.size(), 1u);
  EXPECT_EQ(routed.next_entries[0].node_url, "http://h/b");
  EXPECT_TRUE(routed.next_entries[0].state.rem_pre.Equals(P("L*1")));
  EXPECT_EQ(visits[1].node_url, "http://h/b");
  EXPECT_TRUE(visits[1].received_state.rem_pre.Equals(P("L*1")));
  // Only /b evaluated and built a database this round.
  EXPECT_EQ(server_->stats().node_queries_evaluated, evaluated + 1);
  EXPECT_EQ(server_->stats().db_constructions, built + 1);
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
