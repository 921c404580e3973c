// Protocol-level properties of the WEBDIS distributed scheme: completion
// safety under loss and reordering, the report-then-forward ordering,
// participation fallback, and an end-to-end run over real TCP sockets.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "client/user_site.h"
#include "common/strings.h"
#include "core/engine.h"
#include "net/fault.h"
#include "net/tcp.h"
#include "serialize/encoder.h"
#include "server/http_server.h"
#include "server/query_server.h"
#include "web/synth.h"
#include "web/university.h"
#include "web/topologies.h"

namespace webdis {
namespace {

std::set<std::string> AllRowKeys(
    const std::vector<relational::ResultSet>& results) {
  std::set<std::string> keys;
  for (const relational::ResultSet& rs : results) {
    for (const relational::Tuple& row : rs.rows) {
      std::string key = Join(rs.column_labels, ",") + ":";
      for (const relational::Value& v : row) key += v.ToString() + "|";
      keys.insert(std::move(key));
    }
  }
  return keys;
}

// ---------------------------------------------------------------------------
// Completion safety: losing forward messages must never cause a *false*
// completion (missing results while claiming done). The report-then-forward
// ordering guarantees the CHT always knows about in-flight work.
// ---------------------------------------------------------------------------

TEST(CompletionSafetyTest, LostForwardsNeverCauseFalseCompletion) {
  web::CampusScenario scenario = web::BuildCampusScenario();
  core::Engine engine(&scenario.web);
  // Drop about half of the clone transfers *after* they were accepted.
  net::FaultPlan plan(/*seed=*/1);
  net::FaultPlan::Rule lose_clones;
  lose_clones.type = net::MessageType::kWebQuery;
  lose_clones.drop_prob = 0.5;
  plan.AddRule(lose_clones);
  engine.network().SetFaultPlan(&plan);
  auto compiled = disql::CompileDisql(scenario.disql);
  ASSERT_TRUE(compiled.ok());
  auto id = engine.Submit(compiled.value());
  ASSERT_TRUE(id.ok());
  engine.network().RunUntilIdle();
  const client::UserSite::QueryRun* run = engine.user_site().Find(id.value());
  // Losing clones loses liveness, not safety: the query must NOT be
  // declared complete (entries for the lost clones stay outstanding).
  EXPECT_FALSE(run->completed);
  EXPECT_GT(engine.network().dropped_count(), 0u);
  // Some forwards were delivered: the run lost part of its tree, not all.
  EXPECT_GT(engine.AggregateServerStats().clones_forwarded,
            plan.stats().dropped);
}

TEST(CompletionSafetyTest, LostReportAlsoBlocksCompletion) {
  web::CampusScenario scenario = web::BuildCampusScenario();
  core::Engine engine(&scenario.web);
  net::FaultPlan plan;
  net::FaultPlan::Rule lose_first_report;
  lose_first_report.type = net::MessageType::kReport;
  lose_first_report.drop_prob = 1.0;
  lose_first_report.max_faults = 1;  // lose exactly the first report
  plan.AddRule(lose_first_report);
  engine.network().SetFaultPlan(&plan);
  auto compiled = disql::CompileDisql(scenario.disql);
  ASSERT_TRUE(compiled.ok());
  auto id = engine.Submit(compiled.value());
  ASSERT_TRUE(id.ok());
  engine.network().RunUntilIdle();
  EXPECT_FALSE(engine.user_site().IsComplete(id.value()));
}

// ---------------------------------------------------------------------------
// The robust-completion extension vs the paper's original CHT rule.
// ---------------------------------------------------------------------------

TEST(ChtModesTest, PaperPureModeWorksOnFigure5) {
  // Paper configuration: CHT dedup on, servers drop duplicates silently,
  // entry-matching completion. On the benign Figure 5 ordering this works.
  web::Scenario scenario = web::BuildFig5Scenario();
  core::EngineOptions options;
  options.server.report_dropped_duplicates = false;
  options.client.robust_completion = false;
  options.client.cht_dedup = true;
  core::Engine engine(&scenario.web, options);
  auto outcome = engine.Run(scenario.disql);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->completed);
  EXPECT_EQ(outcome->TotalRows(), 8u);
}

TEST(ChtModesTest, RobustModeMatchesPaperModeResults) {
  web::Scenario scenario = web::BuildFig5Scenario();
  core::EngineOptions paper;
  paper.server.report_dropped_duplicates = false;
  paper.client.robust_completion = false;
  core::Engine paper_engine(&scenario.web, paper);
  auto paper_outcome = paper_engine.Run(scenario.disql);
  ASSERT_TRUE(paper_outcome.ok());

  core::Engine robust_engine(&scenario.web);  // defaults = robust
  auto robust_outcome = robust_engine.Run(scenario.disql);
  ASSERT_TRUE(robust_outcome.ok());

  EXPECT_EQ(AllRowKeys(paper_outcome->results),
            AllRowKeys(robust_outcome->results));
  EXPECT_TRUE(paper_outcome->completed);
  EXPECT_TRUE(robust_outcome->completed);
}

TEST(ChtModesTest, MissingChtDedupWithSilentDropsHangs) {
  // The configuration §3.1.1 warns about: servers drop duplicates silently
  // but the CHT still holds entries for them -> completion never detected.
  // (This is exactly why the paper adds the CHT modification.)
  web::Scenario scenario = web::BuildFig5Scenario();
  core::EngineOptions options;
  options.server.report_dropped_duplicates = false;
  options.client.cht_dedup = false;
  options.client.robust_completion = false;
  core::Engine engine(&scenario.web, options);
  auto compiled = disql::CompileDisql(scenario.disql);
  ASSERT_TRUE(compiled.ok());
  auto id = engine.Submit(compiled.value());
  ASSERT_TRUE(id.ok());
  engine.network().RunUntilIdle();
  EXPECT_FALSE(engine.user_site().IsComplete(id.value()));
}

TEST(ChtModesTest, RobustModeWithoutDedupMirrorStillCompletes) {
  // Robust counting does not need the dedup mirror at all.
  web::Scenario scenario = web::BuildFig5Scenario();
  core::EngineOptions options;
  options.client.cht_dedup = false;
  options.client.robust_completion = true;
  core::Engine engine(&scenario.web, options);
  auto outcome = engine.Run(scenario.disql);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->completed);
  EXPECT_EQ(outcome->TotalRows(), 8u);
}

// ---------------------------------------------------------------------------
// Batching ablations (§3.2): same answers, different message counts.
// ---------------------------------------------------------------------------

TEST(BatchingTest, AblationsPreserveResults) {
  web::SynthWebOptions web_options;
  web_options.seed = 11;
  web_options.num_sites = 4;
  web_options.docs_per_site = 6;
  web::WebGraph web = web::GenerateSynthWeb(web_options);
  const std::string disql =
      "select d.url from document d such that \"" + web::SynthUrl(0, 0) +
      "\" (L|G)*3 d where d.title contains \"alpha\"";

  std::set<std::string> reference_rows;
  uint64_t batched_messages = 0;
  {
    core::Engine engine(&web);
    auto outcome = engine.Run(disql);
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(outcome->completed);
    reference_rows = AllRowKeys(outcome->results);
    batched_messages = outcome->traffic.messages;
  }
  for (int variant = 0; variant < 3; ++variant) {
    core::EngineOptions options;
    options.server.batch_clones_per_site = variant != 0;
    options.server.batch_reports = variant != 1;
    core::Engine engine(&web, options);
    auto outcome = engine.Run(disql);
    ASSERT_TRUE(outcome.ok()) << variant;
    EXPECT_TRUE(outcome->completed) << variant;
    EXPECT_EQ(AllRowKeys(outcome->results), reference_rows) << variant;
    if (variant < 2) {
      // Disabling either batching strictly increases message count.
      EXPECT_GT(outcome->traffic.messages, batched_messages) << variant;
    }
  }
}

// ---------------------------------------------------------------------------
// Participation fallback (§7.1): partial deployments still answer fully.
// ---------------------------------------------------------------------------

TEST(ParticipationTest, PartialDeploymentAnswersViaFallback) {
  web::SynthWebOptions web_options;
  web_options.seed = 31;
  web_options.num_sites = 6;
  web_options.docs_per_site = 5;
  web::WebGraph web = web::GenerateSynthWeb(web_options);
  const std::string disql =
      "select d.url from document d such that \"" + web::SynthUrl(0, 0) +
      "\" (L|G)*3 d where d.title contains \"alpha\"";

  core::Engine full(&web);
  auto full_outcome = full.Run(disql);
  ASSERT_TRUE(full_outcome.ok());
  const std::set<std::string> expected = AllRowKeys(full_outcome->results);

  core::EngineOptions partial_options;
  partial_options.participation_fraction = 0.5;
  partial_options.participation_seed = 3;
  core::Engine partial(&web, partial_options);
  ASSERT_LT(partial.participating_hosts().size(), web.Hosts().size());
  auto partial_outcome = partial.Run(disql);
  ASSERT_TRUE(partial_outcome.ok());
  EXPECT_TRUE(partial_outcome->completed);
  // Fallback fetches happened...
  EXPECT_GT(partial_outcome->fallback_node_count, 0u);
  EXPECT_GT(partial_outcome->traffic.fetch_messages, 0u);
  // ...and the combined answers match the full deployment.
  EXPECT_EQ(AllRowKeys(partial_outcome->results), expected);
}

TEST(ParticipationTest, ZeroParticipationDegeneratesToDataShipping) {
  web::CampusScenario scenario = web::BuildCampusScenario();
  core::EngineOptions options;
  options.participation_fraction = 0.0;
  core::Engine engine(&scenario.web, options);
  ASSERT_TRUE(engine.participating_hosts().empty());
  auto outcome = engine.Run(scenario.disql);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->completed);
  // All three convener rows still found — but via downloads.
  std::set<std::string> keys = AllRowKeys(outcome->results);
  int convener_rows = 0;
  for (const std::string& key : keys) {
    if (ContainsIgnoreCase(key, "convener")) ++convener_rows;
  }
  EXPECT_EQ(convener_rows, 3);
  EXPECT_GT(outcome->fallback.documents_fetched, 0u);
}

// ---------------------------------------------------------------------------
// Node failure (CHT entries for a crashed site).
// ---------------------------------------------------------------------------

TEST(NodeFailureTest, CrashedSiteBlocksCompletionButKeepsPartialResults) {
  web::CampusScenario scenario = web::BuildCampusScenario();
  core::EngineOptions options;
  options.network.inter_host_latency = 50 * kMillisecond;
  core::Engine engine(&scenario.web, options);
  auto compiled = disql::CompileDisql(scenario.disql);
  ASSERT_TRUE(compiled.ok());
  auto id = engine.Submit(compiled.value());
  ASSERT_TRUE(id.ok());
  // Let the query reach the CSA site, then crash the DSL lab server hard
  // (listener vanishes mid-protocol, clones in flight are lost).
  for (int i = 0; i < 4; ++i) engine.network().RunOne();
  engine.network().KillHost("dsl.serc.iisc.ernet.in");
  engine.network().RunUntilIdle();
  const client::UserSite::QueryRun* run = engine.user_site().Find(id.value());
  // Results from surviving sites arrived; completion depends on whether the
  // clone to the dead site was already accepted (lost: incomplete) or not
  // yet sent (refused at connect: undeliverable-reported, complete).
  std::set<std::string> keys = AllRowKeys(run->results);
  bool compiler_row = false;
  for (const std::string& key : keys) {
    if (key.find("Srikant") != std::string::npos) compiler_row = true;
  }
  EXPECT_TRUE(compiler_row);
}

// ---------------------------------------------------------------------------
// End-to-end over real TCP sockets.
// ---------------------------------------------------------------------------

TEST(TcpEndToEndTest, CampusQueryOverRealSockets) {
  web::CampusScenario scenario = web::BuildCampusScenario();
  net::TcpTransport tcp;

  std::vector<std::unique_ptr<server::QueryServer>> servers;
  for (const std::string& host : scenario.web.Hosts()) {
    auto qs = std::make_unique<server::QueryServer>(host, &scenario.web,
                                                    &tcp);
    ASSERT_TRUE(qs->Start().ok());
    servers.push_back(std::move(qs));
  }
  client::UserSite user("user.site", &tcp);
  auto compiled = disql::CompileDisql(scenario.disql);
  ASSERT_TRUE(compiled.ok());
  auto id = user.Submit(compiled.value(), "maya");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  tcp.PumpUntilIdle(300);
  const client::UserSite::QueryRun* run = user.Find(id.value());
  ASSERT_NE(run, nullptr);
  EXPECT_TRUE(run->completed);
  const std::set<std::string> keys = AllRowKeys(run->results);
  for (const auto& [url, name] : scenario.expected_conveners) {
    bool found = false;
    for (const std::string& key : keys) {
      if (key.find(url) != std::string::npos &&
          key.find(name) != std::string::npos) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << url << " / " << name;
  }
  for (auto& qs : servers) qs->Stop();
}

TEST(TcpEndToEndTest, MultipleQueriesAndCancellationOverSockets) {
  web::UniversityOptions uni_options;
  uni_options.seed = 2;
  uni_options.departments = 2;
  uni_options.labs_per_department = 2;
  const web::UniversityWeb uni = web::GenerateUniversityWeb(uni_options);
  net::TcpTransport tcp;
  std::vector<std::unique_ptr<server::QueryServer>> servers;
  for (const std::string& host : uni.web.Hosts()) {
    auto qs = std::make_unique<server::QueryServer>(host, &uni.web, &tcp);
    ASSERT_TRUE(qs->Start().ok());
    servers.push_back(std::move(qs));
  }
  client::UserSite user("user.site", &tcp);

  auto compiled = disql::CompileDisql(uni.convener_disql);
  ASSERT_TRUE(compiled.ok());
  const std::string sitemap =
      "select a.base, a.href from document d such that \"" + uni.root_url +
      "\" G.(L*1) d, anchor a";
  auto compiled2 = disql::CompileDisql(sitemap);
  ASSERT_TRUE(compiled2.ok());

  auto id1 = user.Submit(compiled.value(), "alice");
  auto id2 = user.Submit(compiled2.value(), "bob");
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  tcp.PumpUntilIdle(300);

  const client::UserSite::QueryRun* run1 = user.Find(id1.value());
  const client::UserSite::QueryRun* run2 = user.Find(id2.value());
  ASSERT_NE(run1, nullptr);
  ASSERT_NE(run2, nullptr);
  EXPECT_TRUE(run1->completed);
  EXPECT_TRUE(run2->completed);
  // Query 1 found every planted convener.
  size_t convener_rows = 0;
  for (const relational::ResultSet& rs : run1->results) {
    if (rs.column_labels ==
        std::vector<std::string>{"d1.url", "r.text"}) {
      convener_rows = rs.rows.size();
    }
  }
  EXPECT_EQ(convener_rows, uni.conveners.size());
  EXPECT_FALSE(run2->results.empty());

  // A third query is cancelled immediately: its socket closes, and late
  // reports die on real ECONNREFUSED without disturbing anything.
  auto id3 = user.Submit(compiled.value(), "carol");
  ASSERT_TRUE(id3.ok());
  user.Cancel(id3.value());
  tcp.PumpUntilIdle(300);
  EXPECT_TRUE(user.Find(id3.value())->cancelled);
  uint64_t passive = 0;
  for (auto& qs : servers) passive += qs->stats().passive_terminations;
  EXPECT_GT(passive, 0u);
  for (auto& qs : servers) qs->Stop();
}

}  // namespace
}  // namespace webdis
