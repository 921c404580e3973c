#include "core/engine.h"

#include <gtest/gtest.h>

#include "core/trace.h"

#include <algorithm>
#include <map>
#include <set>

#include "net/fault.h"
#include "web/synth.h"
#include "web/topologies.h"
#include "web/university.h"

namespace webdis::core {
namespace {

/// Finds the result set projecting exactly `labels`; nullptr if absent.
const relational::ResultSet* FindSet(
    const std::vector<relational::ResultSet>& results,
    const std::vector<std::string>& labels) {
  for (const relational::ResultSet& rs : results) {
    if (rs.column_labels == labels) return &rs;
  }
  return nullptr;
}

/// Values of one column as a set of strings.
std::set<std::string> Column(const relational::ResultSet& rs, size_t col) {
  std::set<std::string> out;
  for (const relational::Tuple& row : rs.rows) {
    out.insert(row[col].ToString());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Campus scenario: the paper's Section 5 sample execution (Figures 7 and 8).
// ---------------------------------------------------------------------------

TEST(EngineCampusTest, ReproducesFigure8Results) {
  web::CampusScenario scenario = web::BuildCampusScenario();
  Engine engine(&scenario.web);
  auto outcome = engine.Run(scenario.disql, "maya");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->completed);

  // q1's section: the Labs page URL.
  const relational::ResultSet* q1 = FindSet(outcome->results, {"d0.url"});
  ASSERT_NE(q1, nullptr);
  EXPECT_EQ(Column(*q1, 0),
            std::set<std::string>{"http://www.csa.iisc.ernet.in/Labs"});

  // q2's section: the three convener rows of Figure 8.
  const relational::ResultSet* q2 =
      FindSet(outcome->results, {"d1.url", "r.text"});
  ASSERT_NE(q2, nullptr);
  std::map<std::string, std::string> by_url;
  for (const relational::Tuple& row : q2->rows) {
    by_url[row[0].ToString()] = row[1].ToString();
  }
  ASSERT_EQ(by_url.size(), scenario.expected_conveners.size());
  for (const auto& [url, name] : scenario.expected_conveners) {
    ASSERT_TRUE(by_url.contains(url)) << url;
    EXPECT_NE(by_url[url].find(name), std::string::npos)
        << "row for " << url << " was: " << by_url[url];
  }
}

TEST(EngineCampusTest, CompletionDetectedViaCht) {
  web::CampusScenario scenario = web::BuildCampusScenario();
  Engine engine(&scenario.web);
  auto outcome = engine.Run(scenario.disql);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->completed);
  // CHT completion fires the moment the last report lands — not later.
  EXPECT_EQ(outcome->completion_time, outcome->last_report_time);
  EXPECT_GT(outcome->cht_total_entries, 0u);
  EXPECT_EQ(outcome->cht_unmatched_deletes, 0u);
}

TEST(EngineCampusTest, NoDocumentDownloadsInQueryShipping) {
  web::CampusScenario scenario = web::BuildCampusScenario();
  Engine engine(&scenario.web);
  auto outcome = engine.Run(scenario.disql);
  ASSERT_TRUE(outcome.ok());
  // §3.2(1): no web resource is ever downloaded.
  EXPECT_EQ(outcome->traffic.fetch_messages, 0u);
  EXPECT_EQ(outcome->traffic.fetch_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Figure 1: traversal roles.
// ---------------------------------------------------------------------------

TEST(EngineFig1Test, RolesMatchFigure1) {
  web::Scenario scenario = web::BuildFig1Scenario();
  Engine engine(&scenario.web);
  std::map<std::string, std::vector<server::VisitEvent>> visits;
  engine.ObserveVisits([&visits](const server::VisitEvent& event) {
    visits[event.node_url].push_back(event);
  });
  auto outcome = engine.Run(scenario.disql);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->completed);

  // Nodes 1-3 only route (never evaluate).
  for (const std::string& url : scenario.pure_router_urls) {
    ASSERT_TRUE(visits.contains(url)) << url;
    for (const server::VisitEvent& v : visits[url]) {
      EXPECT_FALSE(v.evaluated) << url;
      EXPECT_GT(v.forward_count, 0u) << url;
    }
  }
  // Nodes 4-8 evaluate node-queries.
  for (const std::string& url : scenario.server_router_urls) {
    ASSERT_TRUE(visits.contains(url)) << url;
    bool any_eval = false;
    for (const server::VisitEvent& v : visits[url]) {
      any_eval = any_eval || v.evaluated;
    }
    EXPECT_TRUE(any_eval) << url;
  }
  // Node 4 acts as ServerRouter twice: once for q1, once for q2.
  const std::string node4 = "http://site4.example/node4";
  ASSERT_EQ(visits[node4].size(), 2u);
  EXPECT_EQ(visits[node4][0].received_state.num_q, 2u);
  EXPECT_EQ(visits[node4][1].received_state.num_q, 1u);
  // Node 7 is a dead-end.
  for (const std::string& url : scenario.dead_end_urls) {
    ASSERT_TRUE(visits.contains(url));
    bool dead = false;
    for (const server::VisitEvent& v : visits[url]) dead = dead || v.dead_end;
    EXPECT_TRUE(dead) << url;
  }
}

// ---------------------------------------------------------------------------
// Figure 5: duplicate suppression.
// ---------------------------------------------------------------------------

TEST(EngineFig5Test, LogTableSuppressesEquivalentVisits) {
  web::Scenario scenario = web::BuildFig5Scenario();
  const std::string node4 = "http://site4.example/node4";

  // With dedup: node 4 sees 5 arrivals (a-e) but only 3 distinct states are
  // processed; the two extra (1, N) arrivals are dropped.
  Engine with_dedup(&scenario.web);
  std::vector<server::VisitEvent> visits;
  with_dedup.ObserveVisits([&](const server::VisitEvent& e) {
    if (e.node_url == node4) visits.push_back(e);
  });
  auto outcome = with_dedup.Run(scenario.disql);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(visits.size(), 5u) << "node 4 must be visited five times (a-e)";
  int duplicates = 0;
  for (const server::VisitEvent& v : visits) duplicates += v.duplicate;
  EXPECT_EQ(duplicates, 2) << "visits d and e are equivalent to c";

  // Without dedup: all 5 arrivals are processed.
  EngineOptions no_dedup;
  no_dedup.server.dedup_enabled = false;
  Engine without(&scenario.web, no_dedup);
  std::vector<server::VisitEvent> visits2;
  without.ObserveVisits([&](const server::VisitEvent& e) {
    if (e.node_url == node4) visits2.push_back(e);
  });
  auto outcome2 = without.Run(scenario.disql);
  ASSERT_TRUE(outcome2.ok());
  int processed = 0;
  for (const server::VisitEvent& v : visits2) processed += !v.duplicate;
  EXPECT_EQ(processed, 5);

  // Same unique results either way — dedup affects cost, never answers.
  ASSERT_EQ(outcome->results.size(), outcome2->results.size());
  EXPECT_EQ(outcome->TotalRows(), outcome2->TotalRows());
  // Without dedup the user received duplicate rows that had to be filtered.
  EXPECT_GT(outcome2->client_stats.duplicate_rows_filtered, 0u);
}

// ---------------------------------------------------------------------------
// Query shipping and data shipping return the same answers.
// ---------------------------------------------------------------------------

TEST(EngineEquivalenceTest, MatchesDataShippingOnSyntheticWebs) {
  for (uint64_t seed : {7u, 21u, 99u}) {
    web::SynthWebOptions web_options;
    web_options.seed = seed;
    web_options.num_sites = 5;
    web_options.docs_per_site = 8;
    web::WebGraph web = web::GenerateSynthWeb(web_options);

    const std::string disql =
        "select d1.url, d2.url\n"
        "from document d1 such that \"" +
        web::SynthUrl(0, 0) +
        "\" (L|G)*2 d1,\n"
        "where d1.title contains \"alpha\"\n"
        "     document d2 such that d1 G.(L*1) d2,\n"
        "where d2.text contains \"beta\"\n";
    auto compiled = disql::CompileDisql(disql);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

    Engine engine(&web);
    auto shipped = engine.RunCompiled(compiled.value());
    ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();
    EXPECT_TRUE(shipped->completed);

    auto baseline = RunDataShippingBaseline(web, compiled.value());
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

    // Same unique rows per section.
    ASSERT_EQ(shipped->results.size(), baseline->outcome.results.size())
        << "seed " << seed;
    for (const relational::ResultSet& rs : shipped->results) {
      const relational::ResultSet* other =
          FindSet(baseline->outcome.results, rs.column_labels);
      ASSERT_NE(other, nullptr);
      for (size_t c = 0; c < rs.column_labels.size(); ++c) {
        EXPECT_EQ(Column(rs, c), Column(*other, c)) << "seed " << seed;
      }
      EXPECT_EQ(rs.rows.size(), other->rows.size()) << "seed " << seed;
    }
    // And the headline claim: query shipping moves far fewer bytes.
    EXPECT_LT(shipped->traffic.bytes, baseline->traffic.bytes)
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// FormatResults: the Figure-8-style display.
// ---------------------------------------------------------------------------

TEST(FormatResultsTest, AlignsAndTruncates) {
  relational::ResultSet rs;
  rs.column_labels = {"d.url", "r.text"};
  rs.rows.push_back({relational::Value(std::string("http://a/x")),
                     relational::Value(std::string("short"))});
  rs.rows.push_back(
      {relational::Value(std::string("http://a/longer-url")),
       relational::Value(std::string(200, 'x'))});  // truncated with "..."
  const std::string out = FormatResults({rs});
  EXPECT_NE(out.find("d.url"), std::string::npos);
  EXPECT_NE(out.find("http://a/x"), std::string::npos);
  EXPECT_NE(out.find("..."), std::string::npos);
  // Header rule present.
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(FormatResultsTest, EmptyInputsRenderQuietly) {
  EXPECT_EQ(FormatResults({}), "");
  relational::ResultSet empty;
  empty.column_labels = {"only.header"};
  const std::string out = FormatResults({empty});
  EXPECT_NE(out.find("only.header"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TraceCollector: the Figure-7-style traversal trace as a public API.
// ---------------------------------------------------------------------------

TEST(TraceCollectorTest, RendersEveryVisitWithRolesAndOutcomes) {
  web::CampusScenario scenario = web::BuildCampusScenario();
  Engine engine(&scenario.web);
  TraceCollector trace(&engine);
  auto outcome = engine.Run(scenario.disql);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(trace.events().empty());
  const std::string rendered = trace.Format();
  // Every visited node appears.
  for (const server::VisitEvent& event : trace.events()) {
    EXPECT_NE(rendered.find(event.node_url), std::string::npos);
  }
  // The CSA homepage is a PureRouter; the Labs page answers and forwards.
  EXPECT_NE(rendered.find("PureRouter"), std::string::npos);
  EXPECT_NE(rendered.find("answered + forwarded"), std::string::npos);
  EXPECT_NE(rendered.find("dead-end"), std::string::npos);
  trace.Clear();
  EXPECT_TRUE(trace.events().empty());
}

TEST(TraceCollectorTest, DescribeVisitCoversAllOutcomes) {
  server::VisitEvent e;
  e.duplicate = true;
  EXPECT_EQ(TraceCollector::DescribeVisit(e), "duplicate dropped");
  e = server::VisitEvent{};
  EXPECT_EQ(TraceCollector::DescribeVisit(e), "forwarded");
  e.evaluated = true;
  e.dead_end = true;
  EXPECT_EQ(TraceCollector::DescribeVisit(e), "dead-end");
  e = server::VisitEvent{};
  e.evaluated = true;
  e.answered = true;
  e.forward_count = 2;
  EXPECT_EQ(TraceCollector::DescribeVisit(e), "answered + forwarded");
  e = server::VisitEvent{};
  e.rewritten = true;
  EXPECT_EQ(TraceCollector::DescribeVisit(e), "superset rewrite; forwarded");
}

// ---------------------------------------------------------------------------
// The university-scale workload: every planted convener is found; floating
// links surface as missing documents, never as crashes.
// ---------------------------------------------------------------------------

TEST(EngineUniversityTest, FindsEveryPlantedConvener) {
  web::UniversityOptions options;
  options.seed = 5;
  options.departments = 3;
  options.labs_per_department = 3;
  const web::UniversityWeb uni = web::GenerateUniversityWeb(options);
  Engine engine(&uni.web);
  auto outcome = engine.Run(uni.convener_disql);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->completed);

  const relational::ResultSet* conveners =
      FindSet(outcome->results, {"d1.url", "r.text"});
  ASSERT_NE(conveners, nullptr);
  std::map<std::string, std::string> found;
  for (const relational::Tuple& row : conveners->rows) {
    found[row[0].ToString()] = row[1].ToString();
  }
  ASSERT_EQ(found.size(), uni.conveners.size());
  for (const auto& [url, name] : uni.conveners) {
    ASSERT_TRUE(found.contains(url)) << url;
    EXPECT_NE(found[url].find(name), std::string::npos) << url;
  }
  // One Labs page per department answered q1.
  const relational::ResultSet* labs = FindSet(outcome->results, {"d0.url"});
  ASSERT_NE(labs, nullptr);
  EXPECT_EQ(labs->rows.size(), 3u);
}

/// The value of one "  name: value" counter line of FormatRunStats, 0 when
/// the line is absent (zero counters are not printed).
uint64_t PrintedCounter(const std::string& stats, const std::string& name) {
  const std::string prefix = "  " + name + ": ";
  const size_t at = stats.find("\n" + prefix);
  if (at == std::string::npos) return 0;
  return std::stoull(stats.substr(at + 1 + prefix.size()));
}

TEST(EngineUniversityTest, RunStatsShowDatabasesBuiltOnlyWhereEvaluated) {
  // Paper §2.4: a node database is built only where a node-query is
  // evaluated. The convener query's root and department pages are
  // PureRouter visits (G.L admits no empty path there), so the run prints
  // fewer database constructions than processed nodes — one per visit that
  // evaluated, however many stages it evaluated there.
  web::UniversityOptions options;
  options.seed = 5;
  options.departments = 3;
  options.labs_per_department = 3;
  const web::UniversityWeb uni = web::GenerateUniversityWeb(options);
  Engine engine(&uni.web);
  auto outcome = engine.Run(uni.convener_disql);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const std::string stats = FormatRunStats(*outcome);
  const uint64_t nodes = PrintedCounter(stats, "nodes_processed");
  const uint64_t evaluated = PrintedCounter(stats, "node_queries_evaluated");
  const uint64_t built = PrintedCounter(stats, "db_constructions");
  EXPECT_EQ(nodes, outcome->server_stats.nodes_processed) << stats;
  EXPECT_EQ(evaluated, outcome->server_stats.node_queries_evaluated);
  EXPECT_GT(built, 0u) << stats;
  EXPECT_LT(built, nodes) << stats;
  EXPECT_LE(built, evaluated) << stats;

  // With result sharing, a second run answers every evaluation from the
  // result cache: it visits as many nodes again and builds no database.
  EngineOptions sharing;
  sharing.server.share_results = true;
  Engine shared(&uni.web, sharing);
  auto first = shared.Run(uni.convener_disql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = shared.Run(uni.convener_disql);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const std::string once = FormatRunStats(*first);
  const std::string twice = FormatRunStats(*second);
  EXPECT_EQ(PrintedCounter(twice, "nodes_processed"),
            2 * PrintedCounter(once, "nodes_processed"));
  EXPECT_EQ(PrintedCounter(twice, "db_constructions"),
            PrintedCounter(once, "db_constructions"))
      << twice;
  EXPECT_LT(PrintedCounter(twice, "db_constructions"),
            PrintedCounter(twice, "nodes_processed"));
  EXPECT_GT(PrintedCounter(twice, "result_cache_hits"),
            PrintedCounter(once, "result_cache_hits"));
}

TEST(EngineUniversityTest, FloatingLinksAreMissingDocumentsNotFailures) {
  web::UniversityOptions options;
  options.seed = 9;
  options.departments = 4;
  options.floating_link_prob = 1.0;  // every filler page has one
  const web::UniversityWeb uni = web::GenerateUniversityWeb(options);
  ASSERT_FALSE(uni.floating_links.empty());
  Engine engine(&uni.web);
  // Walk the whole university including the rotten pages.
  const std::string disql =
      "select d.url from document d such that \"" + uni.root_url +
      "\" (G|L)*3 d";
  auto outcome = engine.Run(disql);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->completed);
  EXPECT_GE(outcome->server_stats.missing_documents,
            uni.floating_links.size());
}

// ---------------------------------------------------------------------------
// A long-lived deployment keeps a bounded user site: CollectOutcome retains
// the kCollectWindow most recently collected runs and forgets older ones.
// ---------------------------------------------------------------------------

/// The soak web: 4 sites of 4 synthetic documents.
web::WebGraph SoakWeb() {
  web::SynthWebOptions web_options;
  web_options.seed = 11;
  web_options.num_sites = 4;
  web_options.docs_per_site = 4;
  return web::GenerateSynthWeb(web_options);
}

/// The server options of perfbench's shared_durable workload: a result
/// cache, batched envelopes and a WAL.
EngineOptions SoakOptions() {
  EngineOptions options;
  options.network.latency_jitter = 5 * kMillisecond;
  options.network.jitter_seed = 7;
  server::QueryServerOptions& durable = options.server;
  durable.share_results = true;
  durable.result_cache_max_bytes = 1 << 20;
  durable.batch_window = 5 * kMillisecond;
  durable.batch_max_members = 16;
  durable.log_purge_every = 512;
  durable.persist.enabled = true;
  durable.persist.wal_enabled = true;
  durable.persist.fsync = server::WalFsyncPolicy::kEveryAppend;
  return options;
}

/// One soak round: two StartNodes per site, four predicates each.
std::vector<disql::CompiledQuery> SoakRound() {
  std::vector<disql::CompiledQuery> round;
  for (int site = 0; site < 4; ++site) {
    for (const int doc : {0, 2}) {
      for (const char* where :
           {"d.title contains \"document\"", "d.title contains \"alpha\"",
            "d.text contains \"beta\"", "d.length > 400"}) {
        auto compiled = disql::CompileDisql(
            "select d.url from document d such that \"" +
            web::SynthUrl(site, doc) + "\" (L|G)*2 d where " + where);
        EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
        round.push_back(std::move(compiled).value());
      }
    }
  }
  return round;
}

/// The first column of every answer row.
std::set<std::string> AnswerUrls(const RunOutcome& outcome) {
  std::set<std::string> answer;
  for (const relational::ResultSet& rs : outcome.results) {
    for (const relational::Tuple& row : rs.rows) {
      answer.insert(row[0].ToString());
    }
  }
  return answer;
}

/// Log-table entries held across the deployment's servers.
size_t LogEntries(Engine& engine) {
  size_t entries = 0;
  for (const std::string& host : engine.participating_hosts()) {
    entries += engine.server_for(host)->log_table().size();
  }
  return entries;
}

TEST(EngineSoakTest, CollectedRunsAreForgottenBeyondTheWindow) {
  const web::WebGraph web = SoakWeb();
  Engine engine(&web, SoakOptions());
  const std::vector<disql::CompiledQuery> round = SoakRound();
  ASSERT_EQ(round.size(), 32u);

  constexpr int kRounds = 32;  // 1,024 queries
  const client::UserSite& user = engine.user_site();
  std::vector<std::set<std::string>> first_answers;
  std::vector<query::QueryId> collected;  // oldest first
  for (int r = 0; r < kRounds; ++r) {
    SCOPED_TRACE("round " + std::to_string(r));
    const TrafficSummary before = engine.TrafficSnapshot();
    std::vector<query::QueryId> ids;
    for (size_t q = 0; q < round.size(); ++q) {
      auto id = engine.Submit(round[q], "u" + std::to_string(q));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids.push_back(id.value());
    }
    engine.network().RunUntilIdle();
    const size_t retained = std::min(collected.size(), Engine::kCollectWindow);
    ASSERT_EQ(user.run_count(), retained + round.size());
    for (size_t q = 0; q < ids.size(); ++q) {
      const RunOutcome outcome = engine.CollectOutcome(ids[q], before);
      ASSERT_TRUE(outcome.completed);
      std::set<std::string> answer = AnswerUrls(outcome);
      if (r == 0) {
        EXPECT_FALSE(answer.empty()) << "query " << q;
        first_answers.push_back(std::move(answer));
      } else {
        EXPECT_EQ(answer, first_answers[q]) << "query " << q;
      }
      collected.push_back(ids[q]);
    }
  }
  ASSERT_EQ(user.run_count(), Engine::kCollectWindow);

  // The newest kCollectWindow collected runs are retained; the next older
  // one is gone.
  const size_t oldest_retained = collected.size() - Engine::kCollectWindow;
  EXPECT_EQ(user.Find(collected[oldest_retained - 1]), nullptr);
  for (size_t i = oldest_retained; i < collected.size(); ++i) {
    EXPECT_NE(user.Find(collected[i]), nullptr) << i;
  }
  // Collecting a retained run again neither evicts nor reorders: the oldest
  // retained run stays, and is still the one the next fresh collection
  // evicts.
  engine.CollectOutcome(collected[oldest_retained], engine.TrafficSnapshot());
  ASSERT_EQ(user.run_count(), Engine::kCollectWindow);
  ASSERT_NE(user.Find(collected[oldest_retained]), nullptr);
  auto extra = engine.RunCompiled(round[0]);
  ASSERT_TRUE(extra.ok()) << extra.status().ToString();
  EXPECT_EQ(user.run_count(), Engine::kCollectWindow);
  EXPECT_EQ(user.Find(collected[oldest_retained]), nullptr);
  EXPECT_NE(user.Find(collected[oldest_retained + 1]), nullptr);
  EXPECT_NE(user.Find(extra->id), nullptr);
}

// Deadline expiry changes no decision. Two deployments run the soak rounds
// without periodic purge: one's queries carry a 300 ms deadline, the
// other's an hour, so their clones are the same size and every query ends
// well before either deadline. Between rounds the clock moves past the
// short deadlines, so a short-deadline server forgets a round's entries at
// its first arrival of the next.
TEST(EngineSoakTest, DeadlineExpiryChangesNoDecision) {
  const web::WebGraph web = SoakWeb();
  EngineOptions options = SoakOptions();
  options.server.log_purge_every = 0;
  options.client.budget_deadline = 300 * kMillisecond;
  Engine short_lived(&web, options);
  options.client.budget_deadline = 3600 * kSecond;
  Engine long_lived(&web, options);
  const std::vector<disql::CompiledQuery> round = SoakRound();

  constexpr int kRounds = 8;
  std::vector<size_t> short_entries;
  std::vector<size_t> long_entries;
  for (int r = 0; r < kRounds; ++r) {
    SCOPED_TRACE("round " + std::to_string(r));
    std::vector<std::vector<std::set<std::string>>> answers;
    for (Engine* engine : {&short_lived, &long_lived}) {
      const TrafficSummary before = engine->TrafficSnapshot();
      std::vector<query::QueryId> ids;
      for (size_t q = 0; q < round.size(); ++q) {
        auto id = engine->Submit(round[q], "u" + std::to_string(q));
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        ids.push_back(id.value());
      }
      engine->network().RunUntilIdle();
      std::vector<std::set<std::string>>& round_answers =
          answers.emplace_back();
      for (const query::QueryId& id : ids) {
        const RunOutcome outcome = engine->CollectOutcome(id, before);
        ASSERT_TRUE(outcome.completed);
        EXPECT_FALSE(outcome.budget_exhausted);
        EXPECT_LT(outcome.completion_time - outcome.submit_time,
                  150 * kMillisecond);
        round_answers.push_back(AnswerUrls(outcome));
      }
      engine->network().ScheduleAfter(400 * kMillisecond, [] {});
      engine->network().RunUntilIdle();
    }
    EXPECT_EQ(answers[0], answers[1]);
    short_entries.push_back(LogEntries(short_lived));
    long_entries.push_back(LogEntries(long_lived));
  }

  const server::QueryServerStats short_stats =
      short_lived.AggregateServerStats();
  const server::QueryServerStats long_stats =
      long_lived.AggregateServerStats();
  EXPECT_GT(short_stats.duplicates_dropped, 0u);
  EXPECT_EQ(short_stats.duplicates_dropped, long_stats.duplicates_dropped);
  EXPECT_EQ(short_stats.superset_rewrites, long_stats.superset_rewrites);
  EXPECT_EQ(short_stats.nodes_processed, long_stats.nodes_processed);
  EXPECT_EQ(short_stats.snapshots_written, long_stats.snapshots_written);
  EXPECT_EQ(short_stats.budget_expired_clones, 0u);
  const TrafficSummary short_traffic = short_lived.TrafficSnapshot();
  const TrafficSummary long_traffic = long_lived.TrafficSnapshot();
  EXPECT_EQ(short_traffic.messages, long_traffic.messages);
  EXPECT_EQ(short_traffic.query_messages, long_traffic.query_messages);
  EXPECT_EQ(short_traffic.report_messages, long_traffic.report_messages);
  EXPECT_EQ(short_traffic.bytes, long_traffic.bytes);

  // The short-deadline table holds one round from round 2 on; the long one
  // keeps every round.
  for (int r = 1; r < kRounds; ++r) {
    EXPECT_EQ(short_entries[r], short_entries[1]) << "round " << r;
    EXPECT_GT(long_entries[r], long_entries[r - 1]) << "round " << r;
  }
}

// A long-lived campus deployment under loss keeps its log table bounded:
// perfbench's lossy_overload options (3% loss on clones, reports and acks,
// retries, admission queues of 8, a 1.3 s deadline, no periodic purge) and
// 32 rounds of 32 convener queries. After each round the servers hold at
// most the entries of that round and the one before.
TEST(EngineSoakTest, LossyCampusLogTableHoldsAtMostTwoRounds) {
  web::UniversityOptions campus;
  campus.seed = 1;
  campus.departments = 4;
  campus.labs_per_department = 4;
  const web::UniversityWeb uni = web::GenerateUniversityWeb(campus);

  EngineOptions options;
  net::RetryOptions retry;
  retry.enabled = true;
  retry.initial_timeout = 100 * kMillisecond;
  retry.backoff_factor = 2.0;
  retry.max_timeout = 400 * kMillisecond;
  retry.max_attempts = 4;
  retry.jitter_seed = 18;
  options.server.retry = retry;
  options.client.retry = retry;
  options.client.entry_deadline = 10 * kSecond;
  options.client.budget_deadline = 1300 * kMillisecond;
  options.server.admission.max_pending = 8;
  options.server.admission.service_time = 2 * kMillisecond;
  Engine engine(&uni.web, options);
  net::FaultPlan loss(/*seed=*/3);
  for (const net::MessageType type :
       {net::MessageType::kWebQuery, net::MessageType::kReport,
        net::MessageType::kDeliveryAck}) {
    net::FaultPlan::Rule rule;
    rule.type = type;
    rule.drop_prob = 0.03;
    loss.AddRule(rule);
  }
  engine.network().SetFaultPlan(&loss);
  auto compiled = disql::CompileDisql(uni.convener_disql);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  const auto logged = [&engine] {
    uint64_t entries = 0;
    for (const std::string& host : engine.participating_hosts()) {
      entries += engine.server_for(host)->log_table().stats().new_entries;
    }
    return entries;
  };
  constexpr int kRounds = 32;
  constexpr int kUsers = 32;  // 1,024 queries
  uint64_t logged_before = 0;
  uint64_t previous_round = 0;
  uint64_t expired = 0;
  int completed = 0;
  for (int r = 0; r < kRounds; ++r) {
    SCOPED_TRACE("round " + std::to_string(r));
    const TrafficSummary before = engine.TrafficSnapshot();
    std::vector<query::QueryId> ids;
    for (int u = 0; u < kUsers; ++u) {
      auto id = engine.Submit(compiled.value(), "u" + std::to_string(u));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids.push_back(id.value());
    }
    engine.network().RunUntilIdle();
    for (const query::QueryId& id : ids) {
      if (engine.CollectOutcome(id, before).completed) ++completed;
    }
    const uint64_t logged_now = logged();
    const uint64_t this_round = logged_now - logged_before;
    ASSERT_GT(this_round, 0u);
    EXPECT_LE(LogEntries(engine), this_round + previous_round);
    logged_before = logged_now;
    previous_round = this_round;
  }
  for (const std::string& host : engine.participating_hosts()) {
    expired += engine.server_for(host)->log_table().stats().expired_queries;
  }
  EXPECT_GT(expired, 0u);
  EXPECT_EQ(completed, kRounds * kUsers);
}

}  // namespace
}  // namespace webdis::core
