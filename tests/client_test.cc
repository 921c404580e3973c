#include <gtest/gtest.h>

#include <algorithm>

#include "client/cht.h"
#include "serialize/encoder.h"
#include "client/user_site.h"
#include "core/engine.h"
#include "net/fault.h"
#include "web/topologies.h"

namespace webdis::client {
namespace {

using query::CloneState;

pre::Pre P(const std::string& s) { return pre::Pre::Parse(s).value(); }
CloneState S(uint32_t n, const std::string& p) { return CloneState{n, P(p)}; }

// -- CurrentHostsTable, paper mode ---------------------------------------------

TEST(ChtPaperModeTest, AddMarkDeleteComplete) {
  CurrentHostsTable cht(/*dedup=*/true, /*robust=*/false);
  EXPECT_FALSE(cht.AllDeleted());  // empty table is not complete
  EXPECT_TRUE(cht.Add("http://a/x", S(2, "L")));
  EXPECT_TRUE(cht.Add("http://a/y", S(2, "L")));
  EXPECT_FALSE(cht.AllDeleted());
  EXPECT_TRUE(cht.MarkDeleted("http://a/x", S(2, "L")));
  EXPECT_FALSE(cht.AllDeleted());
  EXPECT_TRUE(cht.MarkDeleted("http://a/y", S(2, "L")));
  EXPECT_TRUE(cht.AllDeleted());
  EXPECT_EQ(cht.max_active(), 2u);
}

TEST(ChtPaperModeTest, DeleteRequiresMatchingState) {
  CurrentHostsTable cht(true, false);
  cht.Add("http://a/x", S(2, "L"));
  EXPECT_FALSE(cht.MarkDeleted("http://a/x", S(1, "L")));
  EXPECT_FALSE(cht.MarkDeleted("http://a/x", S(2, "G")));
  EXPECT_EQ(cht.unmatched_deletes(), 2u);
  EXPECT_TRUE(cht.MarkDeleted("http://a/x", S(2, "L")));
}

TEST(ChtPaperModeTest, DedupSuppressesEquivalentAdds) {
  CurrentHostsTable cht(true, false);
  EXPECT_TRUE(cht.Add("n", S(1, "L*2.G")));
  // Identical: suppressed.
  EXPECT_FALSE(cht.Add("n", S(1, "L*2.G")));
  // Subset: suppressed ("should not be entered into the CHT", §3.1.1).
  EXPECT_FALSE(cht.Add("n", S(1, "L*1.G")));
  // Superset: kept (the target will process the difference).
  EXPECT_TRUE(cht.Add("n", S(1, "L*4.G")));
  EXPECT_EQ(cht.suppressed_count(), 2u);
  EXPECT_EQ(cht.total_count(), 2u);
}

TEST(ChtPaperModeTest, DedupOffKeepsEverything) {
  CurrentHostsTable cht(/*dedup=*/false, false);
  EXPECT_TRUE(cht.Add("n", S(1, "L")));
  EXPECT_TRUE(cht.Add("n", S(1, "L")));
  EXPECT_EQ(cht.total_count(), 2u);
  // Two identical entries need two deletes.
  EXPECT_TRUE(cht.MarkDeleted("n", S(1, "L")));
  EXPECT_FALSE(cht.AllDeleted());
  EXPECT_TRUE(cht.MarkDeleted("n", S(1, "L")));
  EXPECT_TRUE(cht.AllDeleted());
}

// -- CurrentHostsTable, robust mode ---------------------------------------------

TEST(ChtRobustModeTest, BalancesAddsAndDeletes) {
  CurrentHostsTable cht(true, /*robust=*/true);
  cht.Add("n", S(1, "L"));
  cht.Add("n", S(1, "L"));  // suppressed but still counted
  EXPECT_FALSE(cht.AllDeleted());
  cht.MarkDeleted("n", S(1, "L"));
  EXPECT_FALSE(cht.AllDeleted());  // balance is +1
  cht.MarkDeleted("n", S(1, "L"));
  EXPECT_TRUE(cht.AllDeleted());
}

TEST(ChtRobustModeTest, ToleratesDeleteBeforeAdd) {
  // The overtaking case: a small drop-report arrives before the (large)
  // report that creates its entry.
  CurrentHostsTable cht(true, true);
  cht.Add("start", S(1, "L"));
  cht.MarkDeleted("start", S(1, "L"));
  cht.MarkDeleted("n", S(1, "G"));  // delete first...
  EXPECT_FALSE(cht.AllDeleted());   // balance for n is -1: still in flight
  cht.Add("n", S(1, "G"));          // ...then its add
  EXPECT_TRUE(cht.AllDeleted());
}

TEST(ChtRobustModeTest, EmptyIsNotComplete) {
  CurrentHostsTable cht(true, true);
  EXPECT_FALSE(cht.AllDeleted());
}

TEST(ChtRobustModeTest, StateCanonicalizationInBalanceKeys) {
  CurrentHostsTable cht(false, true);
  cht.Add("n", S(1, "G | L"));
  cht.MarkDeleted("n", S(1, "L | G"));  // same language, same key
  EXPECT_TRUE(cht.AllDeleted());
}

TEST(ClientTest, QueryRunStatsToTextListsEveryNonZeroCounter) {
  QueryRunStats stats;
  EXPECT_EQ(stats.ToText(), "");
  uint64_t next = 0;
  std::string expected;
  ForEachCounter(stats, [&](const char* name, uint64_t& value) {
    value = ++next;
    expected += std::string(name) + ": " + std::to_string(value) + "\n";
  });
  // Every field is a listed counter, so none is left out of the text.
  EXPECT_EQ(sizeof(QueryRunStats), next * sizeof(uint64_t));
  EXPECT_EQ(stats.ToText(), expected);
}

// -- UserSite ---------------------------------------------------------------------

class UserSiteTest : public ::testing::Test {
 protected:
  core::Engine MakeEngine(core::EngineOptions options = {}) {
    return core::Engine(&scenario_.web, options);
  }
  web::CampusScenario scenario_ = web::BuildCampusScenario();
};

TEST_F(UserSiteTest, SubmitAssignsDistinctIdsAndPorts) {
  core::Engine engine = MakeEngine();
  auto compiled = disql::CompileDisql(scenario_.disql);
  ASSERT_TRUE(compiled.ok());
  auto id1 = engine.Submit(compiled.value(), "maya");
  auto id2 = engine.Submit(compiled.value(), "maya");
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  EXPECT_NE(id1->query_number, id2->query_number);
  EXPECT_NE(id1->reply_port, id2->reply_port);
  EXPECT_EQ(id1->user, "maya");
  engine.network().RunUntilIdle();
  EXPECT_TRUE(engine.user_site().IsComplete(id1.value()));
  EXPECT_TRUE(engine.user_site().IsComplete(id2.value()));
}

TEST_F(UserSiteTest, UnknownStartSiteFallsBack) {
  core::Engine engine = MakeEngine();
  auto compiled = disql::CompileDisql(
      "select d.url from document d such that \"http://nonexistent.example/\""
      " L d");
  ASSERT_TRUE(compiled.ok());
  auto id = engine.Submit(compiled.value());
  ASSERT_TRUE(id.ok());
  engine.network().RunUntilIdle();
  const UserSite::QueryRun* run = engine.user_site().Find(id.value());
  ASSERT_NE(run, nullptr);
  EXPECT_TRUE(run->completed);  // nothing outstanding
  ASSERT_EQ(run->fallback_nodes.size(), 1u);
  EXPECT_EQ(run->fallback_nodes[0].node_url, "http://nonexistent.example/");
}

TEST_F(UserSiteTest, PassiveCancelStopsProcessing) {
  core::EngineOptions options;
  // Slow the network so we can cancel mid-flight.
  options.network.inter_host_latency = 100 * kMillisecond;
  core::Engine engine = MakeEngine(options);
  auto compiled = disql::CompileDisql(scenario_.disql);
  ASSERT_TRUE(compiled.ok());
  auto id = engine.Submit(compiled.value());
  ASSERT_TRUE(id.ok());
  // Let the first hop happen, then cancel.
  engine.network().RunOne();
  engine.user_site().Cancel(id.value());
  engine.network().RunUntilIdle();
  const UserSite::QueryRun* run = engine.user_site().Find(id.value());
  EXPECT_TRUE(run->cancelled);
  EXPECT_FALSE(run->completed);
  // Passive termination: at least one server hit a refused report.
  EXPECT_GT(engine.AggregateServerStats().passive_terminations, 0u);
  // And no terminate messages were needed.
  EXPECT_EQ(engine.TrafficSnapshot().terminate_messages, 0u);
}

TEST_F(UserSiteTest, ActiveCancelSendsTerminates) {
  core::EngineOptions options;
  options.client.active_termination = true;
  options.network.inter_host_latency = 100 * kMillisecond;
  core::Engine engine = MakeEngine(options);
  auto compiled = disql::CompileDisql(scenario_.disql);
  ASSERT_TRUE(compiled.ok());
  auto id = engine.Submit(compiled.value());
  ASSERT_TRUE(id.ok());
  engine.network().RunOne();
  engine.user_site().Cancel(id.value());
  engine.network().RunUntilIdle();
  EXPECT_GT(engine.TrafficSnapshot().terminate_messages, 0u);
  const UserSite::QueryRun* run = engine.user_site().Find(id.value());
  EXPECT_GT(run->stats.termination_messages_sent, 0u);
}

TEST_F(UserSiteTest, TimeoutCompletionModeWaitsFullTimeout) {
  core::EngineOptions options;
  options.client.use_cht = false;
  options.completion_timeout = 10 * kSecond;
  core::Engine engine = MakeEngine(options);
  auto outcome = engine.Run(scenario_.disql);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->completed);
  // The timeout strawman declares completion a full timeout after the last
  // arrival — CHT mode would have known at last_report_time.
  EXPECT_EQ(outcome->completion_time,
            outcome->last_report_time + 10 * kSecond);
}

TEST_F(UserSiteTest, SubmitRejectsEmptyStartNodes) {
  core::Engine engine = MakeEngine();
  disql::CompiledQuery empty;
  auto id = engine.Submit(empty);
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(UserSiteTest, FailedSubmitLeavesNoRunOrSocket) {
  // The StartNode has no host, so it does not parse. Nothing collects a run
  // whose Submit failed, so the site must not have opened its socket or
  // kept its run.
  core::Engine engine = MakeEngine();
  auto outcome =
      engine.Run("select d.url from document d such that \"http:///x\" L d");
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  const net::Endpoint first_socket{core::Engine::kClientHost,
                                   UserSiteOptions().first_result_port};
  EXPECT_EQ(engine.user_site().Find(query::QueryId{
                "user", first_socket.host, first_socket.port, 1}),
            nullptr);
  EXPECT_EQ(engine.user_site().run_count(), 0u);
  EXPECT_EQ(engine.network()
                .Send(net::Endpoint{"probe", 1}, first_socket,
                      net::MessageType::kReport, {})
                .code(),
            StatusCode::kConnectionRefused);
  // The failure consumed nothing: the next query gets the first socket.
  auto next = engine.Run(scenario_.disql);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_TRUE(next->completed);
  EXPECT_EQ(next->id.reply_port, first_socket.port);
}

TEST_F(UserSiteTest, ForgetFreesRunsAndClosesLiveSockets) {
  core::EngineOptions options;
  options.client.close_socket_on_completion = false;
  core::Engine engine = MakeEngine(options);
  UserSite& user = engine.user_site();
  auto compiled = disql::CompileDisql(scenario_.disql);
  ASSERT_TRUE(compiled.ok());
  auto kept = engine.Submit(compiled.value());
  auto gone = engine.Submit(compiled.value());
  ASSERT_TRUE(kept.ok());
  ASSERT_TRUE(gone.ok());
  engine.network().RunUntilIdle();
  ASSERT_TRUE(user.IsComplete(gone.value()));
  EXPECT_EQ(user.run_count(), 2u);

  // A complete run whose socket stayed open: Forget closes it.
  user.Forget(gone.value());
  EXPECT_EQ(user.Find(gone.value()), nullptr);
  EXPECT_FALSE(user.IsComplete(gone.value()));
  EXPECT_EQ(user.run_count(), 1u);
  const net::Endpoint probe{"probe", 1};
  EXPECT_EQ(engine.network()
                .Send(probe,
                      net::Endpoint{core::Engine::kClientHost,
                                    gone->reply_port},
                      net::MessageType::kReport, {})
                .code(),
            StatusCode::kConnectionRefused);

  // A batch riding the kept run's socket: the member for the forgotten run
  // (the newest this site issued) is dropped and counted on the carrier;
  // members for a query number never issued, or another site's query, are
  // not.
  query::QueryId stranger = gone.value();
  ++stranger.query_number;
  query::QueryId elsewhere = gone.value();
  elsewhere.reply_host = "other.site";
  query::ReportBatch batch;
  batch.reports.resize(3);
  batch.reports[0].id = gone.value();
  batch.reports[1].id = stranger;
  batch.reports[2].id = elsewhere;
  serialize::Encoder enc;
  batch.EncodeTo(&enc);
  ASSERT_TRUE(engine.network()
                  .Send(probe,
                        net::Endpoint{core::Engine::kClientHost,
                                      kept->reply_port},
                        net::MessageType::kReportBatch, enc.Release())
                  .ok());
  engine.network().RunUntilIdle();
  const UserSite::QueryRun* carrier = user.Find(kept.value());
  ASSERT_NE(carrier, nullptr);
  EXPECT_EQ(carrier->stats.report_batch_members_received, 3u);
  EXPECT_EQ(carrier->stats.batch_members_dropped_forgotten, 1u);

  // Forgetting again, or an id this site never issued, is a no-op.
  user.Forget(gone.value());
  user.Forget(stranger);
  EXPECT_EQ(user.run_count(), 1u);
  EXPECT_EQ(user.Find(kept.value()), carrier);
}

TEST_F(UserSiteTest, ReportForUnknownQueryIgnored) {
  core::Engine engine = MakeEngine();
  auto compiled = disql::CompileDisql(scenario_.disql);
  ASSERT_TRUE(compiled.ok());
  auto id = engine.Submit(compiled.value());
  ASSERT_TRUE(id.ok());
  // Forge a report with a mismatched query id straight to the result port.
  query::QueryReport forged;
  forged.id = id.value();
  forged.id.query_number += 99;  // wrong query
  query::NodeReport nr;
  nr.node_url = "http://bogus/";
  nr.received_state =
      query::CloneState{1, pre::Pre::Parse("L").value()};
  forged.node_reports.push_back(std::move(nr));
  serialize::Encoder enc;
  forged.EncodeTo(&enc);
  ASSERT_TRUE(engine.network()
                  .Send(net::Endpoint{"attacker", 1},
                        net::Endpoint{core::Engine::kClientHost,
                                      id->reply_port},
                        net::MessageType::kReport, enc.Release())
                  .ok());
  engine.network().RunUntilIdle();
  // The real query still completed correctly despite the forgery.
  const client::UserSite::QueryRun* run = engine.user_site().Find(id.value());
  EXPECT_TRUE(run->completed);
  EXPECT_EQ(run->results.size(), 2u);
}

TEST_F(UserSiteTest, ResultsDedupAcrossReports) {
  // With server dedup off, duplicate rows arrive; the client filters them.
  core::EngineOptions options;
  options.server.dedup_enabled = false;
  web::Scenario fig5 = web::BuildFig5Scenario();
  core::Engine engine(&fig5.web, options);
  auto outcome = engine.Run(fig5.disql);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome->client_stats.duplicate_rows_filtered, 0u);
  // Unique rows only in the final result sets.
  for (const relational::ResultSet& rs : outcome->results) {
    std::set<std::string> seen;
    for (const relational::Tuple& row : rs.rows) {
      std::string key;
      for (const relational::Value& v : row) key += v.ToString() + "|";
      EXPECT_TRUE(seen.insert(key).second) << "duplicate row " << key;
    }
  }
}

/// Two pages whose (title, text) rows differ but render alike when joined
/// with the \x1e separator: "A\x1eB" + "C" and "A" + "B\x1eC".
web::WebGraph SeparatorPages() {
  web::WebGraph web;
  EXPECT_TRUE(web.AddDocument("http://h/1",
                              "<title>A\x1e" "B</title><p>C</p>").ok());
  EXPECT_TRUE(web.AddDocument("http://h/2",
                              "<title>A</title><p>B\x1e" "C</p>").ok());
  return web;
}

constexpr char kSeparatorQuery[] =
    "select d.title, d.text from document d such that "
    "(\"http://h/1\", \"http://h/2\") N d";

/// The (title, text) rows of `results`, in order.
std::vector<std::pair<std::string, std::string>> TitleTextRows(
    const std::vector<relational::ResultSet>& results) {
  std::vector<std::pair<std::string, std::string>> rows;
  for (const relational::ResultSet& rs : results) {
    for (const relational::Tuple& row : rs.rows) {
      rows.emplace_back(row[0].ToString(), row[1].ToString());
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

const std::vector<std::pair<std::string, std::string>> kSeparatorRows = {
    {"A", "B\x1e" "C"}, {"A\x1e" "B", "C"}};

TEST_F(UserSiteTest, RowsThatRenderAlikeAreNotDuplicates) {
  const web::WebGraph web = SeparatorPages();
  core::Engine engine(&web);
  auto outcome = engine.Run(kSeparatorQuery);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->completed);
  EXPECT_EQ(TitleTextRows(outcome->results), kSeparatorRows);
  EXPECT_EQ(outcome->client_stats.duplicate_rows_filtered, 0u);
}

TEST(DataShippingTest, RowsThatRenderAlikeAreNotDuplicates) {
  const web::WebGraph web = SeparatorPages();
  auto compiled = disql::CompileDisql(kSeparatorQuery);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto baseline = core::RunDataShippingBaseline(web, compiled.value());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(TitleTextRows(baseline->outcome.results), kSeparatorRows);
}

// -- Failure handling: CHT deadline GC and report receipt dedup ---------------

TEST(ChtDeadlineTest, DrainExpiredCollectsIdleNonzeroKeys) {
  CurrentHostsTable cht(/*dedup=*/true, /*robust=*/true);
  cht.Add("http://a/x", S(1, "L"), /*now=*/0);
  cht.Add("http://b/y", S(1, "G"), 0);
  cht.MarkDeleted("http://b/y", S(1, "G"), 5 * kMillisecond);
  // Fresh activity just before the sweep keeps a key alive.
  cht.Add("http://c/z", S(2, "L"), 9 * kMillisecond);

  auto expired = cht.DrainExpired(11 * kMillisecond, 10 * kMillisecond);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].node_url, "http://a/x");
  EXPECT_FALSE(cht.AllDeleted());  // c/z is still outstanding

  cht.MarkDeleted("http://c/z", S(2, "L"), 12 * kMillisecond);
  EXPECT_TRUE(cht.AllDeleted());

  // Negative balances (a delete whose matching add was lost) expire too.
  cht.MarkDeleted("http://d/w", S(1, "L"), 20 * kMillisecond);
  EXPECT_FALSE(cht.AllDeleted());
  auto expired2 = cht.DrainExpired(31 * kMillisecond, 10 * kMillisecond);
  ASSERT_EQ(expired2.size(), 1u);
  EXPECT_EQ(expired2[0].node_url, "http://d/w");
  EXPECT_TRUE(cht.AllDeleted());
}

core::EngineOptions FailureHandlingOptions() {
  core::EngineOptions options;
  options.server.retry.enabled = true;
  options.server.retry.initial_timeout = 100 * kMillisecond;
  options.server.retry.max_timeout = 400 * kMillisecond;
  options.server.retry.max_attempts = 4;
  options.client.retry = options.server.retry;
  options.client.entry_deadline = 10 * kSecond;
  return options;
}

TEST(DeadlineGcTest, UnreachableHostYieldsExplicitPartialCompletion) {
  web::CampusScenario scenario = web::BuildCampusScenario();
  core::Engine engine(&scenario.web, FailureHandlingOptions());
  // Every report from the DSL site is lost after accept, retransmissions
  // included: its CHT entries go idle and only the deadline GC can finish
  // the query.
  net::FaultPlan plan;
  net::FaultPlan::Rule rule;
  rule.type = net::MessageType::kReport;
  rule.from_host = "dsl.serc.iisc.ernet.in";
  rule.drop_prob = 1.0;
  plan.AddRule(rule);
  engine.network().SetFaultPlan(&plan);

  auto outcome = engine.Run(scenario.disql);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->completed);
  EXPECT_TRUE(outcome->partial);
  EXPECT_GT(outcome->client_stats.entries_gc, 0u);
  bool dsl_named = false;
  for (const std::string& host : outcome->unreachable_hosts) {
    if (host.find("dsl.serc") != std::string::npos) dsl_named = true;
  }
  EXPECT_TRUE(dsl_named);
  // The sender side really did give up on those reports.
  EXPECT_GT(engine.AggregateServerStats().retry_exhausted, 0u);
}

TEST(ReportDedupTest, DuplicatedReportTransfersAreAbsorbed) {
  web::CampusScenario scenario = web::BuildCampusScenario();

  size_t reference_rows = 0;
  {
    core::Engine engine(&scenario.web);
    auto outcome = engine.Run(scenario.disql);
    ASSERT_TRUE(outcome.ok());
    reference_rows = outcome->TotalRows();
  }

  core::Engine engine(&scenario.web, FailureHandlingOptions());
  // Every report arrives twice; receipt dedup must absorb the replays
  // before they reach the CHT (a replayed delete would unbalance it).
  net::FaultPlan plan;
  net::FaultPlan::Rule rule;
  rule.type = net::MessageType::kReport;
  rule.duplicate_prob = 1.0;
  plan.AddRule(rule);
  engine.network().SetFaultPlan(&plan);

  auto outcome = engine.Run(scenario.disql);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->completed);
  EXPECT_FALSE(outcome->partial);
  EXPECT_GT(outcome->client_stats.redeliveries_suppressed, 0u);
  EXPECT_EQ(outcome->TotalRows(), reference_rows);
  // Unique rows only in the final result sets.
  for (const relational::ResultSet& rs : outcome->results) {
    std::set<std::string> seen;
    for (const relational::Tuple& row : rs.rows) {
      std::string key;
      for (const relational::Value& v : row) key += v.ToString() + "|";
      EXPECT_TRUE(seen.insert(key).second) << "duplicate row " << key;
    }
  }
}

}  // namespace
}  // namespace webdis::client
