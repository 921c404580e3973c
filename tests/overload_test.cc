// Overload protection & graceful degradation (PROTOCOL.md §7): circuit
// breaker state machine units, admission-control shedding and eviction,
// per-query budget enforcement at every layer, breaker trip/probe/recovery
// end to end, and randomized schedules mixing overload with the §6 fault
// machinery — asserting the degradation contract: the CHT always drains,
// and every clone cut by overload protection is named in the outcome.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "client/user_site.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/engine.h"
#include "disql/compiler.h"
#include "html/url.h"
#include "net/breaker.h"
#include "net/sim.h"
#include "server/query_server.h"
#include "web/topologies.h"
#include "web/university.h"

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

// -- HostBreakers state machine ----------------------------------------------

net::BreakerOptions PlainBreaker() {
  net::BreakerOptions options;
  options.enabled = true;
  options.failure_threshold = 3;
  options.open_timeout = 1 * kSecond;
  options.open_timeout_jitter = 0;  // deterministic intervals for the units
  options.half_open_probes = 1;
  return options;
}

TEST(HostBreakersTest, TripsAfterConsecutiveFailures) {
  net::HostBreakers breakers(PlainBreaker());
  EXPECT_TRUE(breakers.Allow("h", 0));
  breakers.RecordFailure("h", 0);
  breakers.RecordFailure("h", 0);
  EXPECT_EQ(breakers.GetState("h", 0), net::HostBreakers::State::kClosed);
  EXPECT_TRUE(breakers.Allow("h", 0));
  breakers.RecordFailure("h", 0);
  EXPECT_EQ(breakers.GetState("h", 0), net::HostBreakers::State::kOpen);
  EXPECT_FALSE(breakers.Allow("h", 100));
  EXPECT_EQ(breakers.stats().trips, 1u);
  EXPECT_EQ(breakers.stats().short_circuits, 1u);
  // Hosts are independent: tripping "h" does not touch "other".
  EXPECT_TRUE(breakers.Allow("other", 100));
}

TEST(HostBreakersTest, SuccessResetsTheConsecutiveCount) {
  net::HostBreakers breakers(PlainBreaker());
  breakers.RecordFailure("h", 0);
  breakers.RecordFailure("h", 0);
  breakers.RecordSuccess("h", 0);  // streak broken
  breakers.RecordFailure("h", 0);
  breakers.RecordFailure("h", 0);
  EXPECT_EQ(breakers.GetState("h", 0), net::HostBreakers::State::kClosed);
  breakers.RecordFailure("h", 0);
  EXPECT_EQ(breakers.GetState("h", 0), net::HostBreakers::State::kOpen);
}

TEST(HostBreakersTest, HalfOpenProbeClosesOnSuccessRetripsOnFailure) {
  net::HostBreakers breakers(PlainBreaker());
  for (int i = 0; i < 3; ++i) breakers.RecordFailure("h", 0);
  ASSERT_EQ(breakers.GetState("h", 0), net::HostBreakers::State::kOpen);
  EXPECT_FALSE(breakers.Allow("h", 1 * kSecond - 1));

  // Open interval elapsed: exactly one probe is admitted; further sends
  // short-circuit until the probe's outcome arrives.
  EXPECT_EQ(breakers.GetState("h", 1 * kSecond),
            net::HostBreakers::State::kHalfOpen);
  EXPECT_TRUE(breakers.Allow("h", 1 * kSecond));
  EXPECT_FALSE(breakers.Allow("h", 1 * kSecond));
  EXPECT_EQ(breakers.stats().probes, 1u);

  // Probe failed: back to open for a fresh interval.
  breakers.RecordFailure("h", 1 * kSecond);
  EXPECT_EQ(breakers.GetState("h", 1 * kSecond + 1),
            net::HostBreakers::State::kOpen);
  EXPECT_EQ(breakers.stats().trips, 2u);

  // Next interval's probe succeeds: closed again, and the recovered host
  // starts with a clean failure count.
  EXPECT_TRUE(breakers.Allow("h", 2 * kSecond + 1));
  breakers.RecordSuccess("h", 2 * kSecond + 1);
  EXPECT_EQ(breakers.GetState("h", 3 * kSecond),
            net::HostBreakers::State::kClosed);
  EXPECT_EQ(breakers.stats().recoveries, 1u);
  EXPECT_TRUE(breakers.Allow("h", 3 * kSecond));
}

TEST(HostBreakersTest, JitteredOpenIntervalStaysBounded) {
  net::BreakerOptions options = PlainBreaker();
  options.open_timeout_jitter = 0.5;  // factor in [0.75, 1.25]
  options.seed = 7;
  net::HostBreakers breakers(options);
  for (int i = 0; i < 3; ++i) breakers.RecordFailure("h", 0);
  EXPECT_EQ(breakers.GetState("h", 749 * kMillisecond),
            net::HostBreakers::State::kOpen);
  EXPECT_EQ(breakers.GetState("h", 1250 * kMillisecond),
            net::HostBreakers::State::kHalfOpen);
}

TEST(HostBreakersTest, DisabledBankIsTransparent) {
  net::HostBreakers breakers(net::BreakerOptions{});  // enabled = false
  for (int i = 0; i < 10; ++i) breakers.RecordFailure("h", 0);
  EXPECT_TRUE(breakers.Allow("h", 0));
  EXPECT_EQ(breakers.stats().trips, 0u);
}

// -- Per-query budgets (engine level) ----------------------------------------

struct UniFixture {
  web::UniversityWeb uni;
  disql::CompiledQuery compiled;
  std::set<std::string> reference;
  uint64_t reference_forwards = 0;

  UniFixture() {
    web::UniversityOptions options;
    options.seed = 11;
    options.departments = 2;
    options.labs_per_department = 2;
    uni = web::GenerateUniversityWeb(options);
    auto result = disql::CompileDisql(uni.convener_disql);
    EXPECT_TRUE(result.ok());
    compiled = std::move(result.value());
    core::Engine engine(&uni.web);
    auto outcome = engine.RunCompiled(compiled);
    EXPECT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome->completed);
    reference = AllRowKeys(outcome->results);
    reference_forwards = outcome->server_stats.clones_forwarded;
    EXPECT_FALSE(reference.empty());
    EXPECT_GT(reference_forwards, 0u);
  }
};

TEST(BudgetTest, HopLimitOneStopsAtTheStartNodes) {
  UniFixture f;
  core::EngineOptions options;
  options.client.budget_max_hops = 1;
  options.fallback_processing = false;
  core::Engine engine(&f.uni.web, options);
  auto outcome = engine.RunCompiled(f.compiled);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->completed);
  // Every would-be forward was vetoed and reported — the query still
  // reaches a verdict, explicitly budget-degraded, with zero forwards.
  EXPECT_EQ(outcome->server_stats.clones_forwarded, 0u);
  EXPECT_GT(outcome->server_stats.budget_vetoed_forwards, 0u);
  EXPECT_TRUE(outcome->budget_exhausted);
  EXPECT_FALSE(outcome->budget_exceeded_nodes.empty());
  EXPECT_FALSE(outcome->partial);
  const std::set<std::string> keys = AllRowKeys(outcome->results);
  for (const std::string& key : keys) EXPECT_TRUE(f.reference.contains(key));
  EXPECT_LT(keys.size(), f.reference.size());
}

TEST(BudgetTest, GenerousHopLimitChangesNothing) {
  UniFixture f;
  core::EngineOptions options;
  options.client.budget_max_hops = 64;
  core::Engine engine(&f.uni.web, options);
  auto outcome = engine.RunCompiled(f.compiled);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->completed);
  EXPECT_FALSE(outcome->budget_exhausted);
  EXPECT_EQ(outcome->server_stats.budget_vetoed_forwards, 0u);
  EXPECT_EQ(AllRowKeys(outcome->results), f.reference);
}

TEST(BudgetTest, ExpiredDeadlineIsReportedNeverSilent) {
  UniFixture f;
  core::EngineOptions options;
  // One virtual microsecond: every clone is dead on arrival (inter-host
  // latency alone is 20ms), so the whole traversal degrades away — but the
  // CHT still settles through the budget-exceeded reports.
  options.client.budget_deadline = 1 * kMicrosecond;
  options.fallback_processing = false;
  core::Engine engine(&f.uni.web, options);
  auto outcome = engine.RunCompiled(f.compiled);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->completed);
  EXPECT_TRUE(outcome->budget_exhausted);
  EXPECT_GT(outcome->server_stats.budget_expired_clones, 0u);
  EXPECT_EQ(outcome->TotalRows(), 0u);
  EXPECT_EQ(outcome->server_stats.nodes_processed, 0u);
  EXPECT_FALSE(outcome->partial);  // degraded by policy, not by failure
}

TEST(BudgetTest, CloneAllowanceBoundsTheForwardingTree) {
  UniFixture f;
  core::EngineOptions options;
  options.client.budget_max_clones = 2;
  options.fallback_processing = false;
  core::Engine engine(&f.uni.web, options);
  auto outcome = engine.RunCompiled(f.compiled);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->completed);
  // The allowance pays one unit per dispatched clone, split across children:
  // total dispatches over the whole traversal can never exceed the stamp.
  EXPECT_LE(outcome->server_stats.clones_forwarded, 2u);
  EXPECT_LT(outcome->server_stats.clones_forwarded, f.reference_forwards);
  EXPECT_TRUE(outcome->budget_exhausted);
  const std::set<std::string> keys = AllRowKeys(outcome->results);
  for (const std::string& key : keys) EXPECT_TRUE(f.reference.contains(key));
}

TEST(BudgetTest, RowCapTruncatesVisitsButDeliversSurvivors) {
  UniFixture f;
  // The sitemap query returns every anchor of every reachable page — many
  // rows per visit, so a per-visit cap of 1 must truncate.
  const std::string sitemap =
      "select a.base, a.href from document d such that \"" + f.uni.root_url +
      "\" G.(L*1) d, anchor a";
  auto compiled = disql::CompileDisql(sitemap);
  ASSERT_TRUE(compiled.ok());
  std::set<std::string> reference;
  {
    core::Engine engine(&f.uni.web);
    auto outcome = engine.RunCompiled(compiled.value());
    ASSERT_TRUE(outcome.ok());
    reference = AllRowKeys(outcome->results);
  }
  ASSERT_GT(reference.size(), 4u);

  core::EngineOptions options;
  options.client.budget_max_rows_per_visit = 1;
  core::Engine engine(&f.uni.web, options);
  auto outcome = engine.RunCompiled(compiled.value());
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->completed);
  EXPECT_GT(outcome->server_stats.rows_truncated, 0u);
  EXPECT_TRUE(outcome->budget_exhausted);
  EXPECT_FALSE(outcome->budget_exceeded_nodes.empty());
  // Truncated visits still deliver their surviving rows AND their CHT
  // entries: the traversal continues, only each visit's yield shrinks.
  const std::set<std::string> keys = AllRowKeys(outcome->results);
  EXPECT_GT(keys.size(), 0u);
  EXPECT_LT(keys.size(), reference.size());
  for (const std::string& key : keys) EXPECT_TRUE(reference.contains(key));
  EXPECT_GT(outcome->client_stats.budget_exceeded_reports, 0u);
}

// -- Admission control (engine level) ----------------------------------------

std::string RootHost(const web::UniversityWeb& uni) {
  auto parsed = html::ParseUrl(uni.root_url);
  EXPECT_TRUE(parsed.ok());
  return parsed->host;
}

TEST(AdmissionTest, TrackedShedIsLosslessViaOverloadBackoff) {
  UniFixture f;
  core::EngineOptions options;
  options.server.retry.enabled = true;
  options.server.retry.initial_timeout = 100 * kMillisecond;
  options.server.retry.max_attempts = 8;
  options.server.retry.overload_initial_timeout = 300 * kMillisecond;
  options.server.retry.overload_max_timeout = 2 * kSecond;
  options.client.retry = options.server.retry;
  options.client.entry_deadline = 30 * kSecond;
  // Only the StartNode site is admission-limited (server_overrides): six
  // simultaneous queries overflow its 2-slot queue.
  server::QueryServerOptions hot = options.server;
  hot.admission.max_pending = 2;
  hot.admission.service_time = 100 * kMillisecond;
  options.server_overrides[RootHost(f.uni)] = hot;
  core::Engine engine(&f.uni.web, options);

  const core::TrafficSummary before = engine.TrafficSnapshot();
  std::vector<query::QueryId> ids;
  for (int i = 0; i < 6; ++i) {
    auto id = engine.Submit(f.compiled);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  engine.network().RunUntilIdle();

  const server::QueryServerStats stats = engine.AggregateServerStats();
  EXPECT_GT(stats.clones_shed, 0u);
  EXPECT_GT(stats.overload_nacks_sent, 0u);
  EXPECT_LE(stats.queue_peak, 2u);
  // The client's sender really did move shed dispatches to the overload
  // backoff class instead of the loss-recovery schedule.
  EXPECT_GT(engine.user_site().retry_stats().overload_nacks, 0u);

  // Lossless: every NACKed clone came back once the queue drained — all six
  // queries complete with the exact answer, none degraded.
  for (const query::QueryId& id : ids) {
    core::RunOutcome outcome = engine.CollectOutcome(id, before);
    EXPECT_TRUE(outcome.completed);
    EXPECT_FALSE(outcome.partial);
    EXPECT_FALSE(outcome.budget_exhausted);
    EXPECT_EQ(AllRowKeys(outcome.results), f.reference);
  }
}

TEST(AdmissionTest, UntrackedShedIsTerminalButExplicit) {
  UniFixture f;
  core::EngineOptions options;  // retry disabled: no NACK channel
  options.fallback_processing = false;
  server::QueryServerOptions hot = options.server;
  hot.admission.max_pending = 2;
  hot.admission.service_time = 100 * kMillisecond;
  options.server_overrides[RootHost(f.uni)] = hot;
  core::Engine engine(&f.uni.web, options);

  const core::TrafficSummary before = engine.TrafficSnapshot();
  std::vector<query::QueryId> ids;
  for (int i = 0; i < 6; ++i) {
    auto id = engine.Submit(f.compiled);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  engine.network().RunUntilIdle();

  EXPECT_GT(engine.AggregateServerStats().clones_shed, 0u);
  int exact = 0;
  int shed = 0;
  for (const query::QueryId& id : ids) {
    core::RunOutcome outcome = engine.CollectOutcome(id, before);
    // The degradation contract: shed or not, the CHT settles — and a shed
    // query names the nodes it lost instead of hanging.
    EXPECT_TRUE(outcome.completed);
    if (outcome.budget_exhausted) {
      ++shed;
      EXPECT_FALSE(outcome.budget_exceeded_nodes.empty());
      EXPECT_GT(outcome.client_stats.budget_exceeded_reports, 0u);
    } else {
      ++exact;
      EXPECT_EQ(AllRowKeys(outcome.results), f.reference);
    }
  }
  EXPECT_GT(exact, 0);
  EXPECT_GT(shed, 0);
}

TEST(AdmissionTest, EarliestDeadlineEvictionPrefersTheNearlyDead) {
  // Two user sites against the same admission-limited deployment: client A
  // stamps a short deadline, client B none. A's queued clone is evicted in
  // favor of B's newcomer (it would likely die in the queue anyway), and A
  // learns about it explicitly.
  web::Scenario scenario = web::BuildFig5Scenario();
  auto compiled = disql::CompileDisql(scenario.disql);
  ASSERT_TRUE(compiled.ok());
  auto parsed = html::ParseUrl(scenario.start_url);
  ASSERT_TRUE(parsed.ok());

  net::SimNetwork net;
  // Only the StartNode host is admission-limited (a hot site); everything
  // downstream is unconstrained so the only shed decision is the one under
  // test.
  server::QueryServerOptions hot_options;
  hot_options.admission.max_pending = 1;
  hot_options.admission.service_time = 1 * kSecond;  // queue stays full
  std::vector<std::unique_ptr<server::QueryServer>> servers;
  for (const std::string& host : scenario.web.Hosts()) {
    auto qs = std::make_unique<server::QueryServer>(
        host, &scenario.web, &net,
        host == parsed->host ? hot_options : server::QueryServerOptions{});
    ASSERT_TRUE(qs->Start().ok());
    qs->SetClock([&net] { return net.now(); });
    servers.push_back(std::move(qs));
  }

  client::UserSiteOptions a_options;
  a_options.budget_deadline = 50 * kMillisecond;
  client::UserSite a("user-a.site", &net, a_options);
  a.SetClock([&net] { return net.now(); });
  client::UserSite b("user-b.site", &net, client::UserSiteOptions{});
  b.SetClock([&net] { return net.now(); });

  // A submits first; B ten virtual milliseconds later, so A's clone is
  // already queued at the hot site when B's arrives and overflows it.
  auto id_a = a.Submit(compiled.value(), "alice");
  ASSERT_TRUE(id_a.ok());
  Result<query::QueryId> id_b = Status::Internal("not submitted");
  net.ScheduleAfter(10 * kMillisecond, [&] {
    id_b = b.Submit(compiled.value(), "bob");
  });
  net.RunUntilIdle();
  ASSERT_TRUE(id_b.ok());

  uint64_t evicted = 0;
  for (auto& qs : servers) evicted += qs->stats().clones_evicted;
  EXPECT_EQ(evicted, 1u);

  const client::UserSite::QueryRun* run_a = a.Find(id_a.value());
  const client::UserSite::QueryRun* run_b = b.Find(id_b.value());
  ASSERT_NE(run_a, nullptr);
  ASSERT_NE(run_b, nullptr);
  EXPECT_TRUE(run_a->completed);
  EXPECT_TRUE(run_a->budget_exhausted);
  EXPECT_FALSE(run_a->budget_exceeded_nodes.empty());
  EXPECT_TRUE(run_b->completed);
  EXPECT_FALSE(run_b->budget_exhausted);
  EXPECT_FALSE(AllRowKeys(run_b->results).empty());
  for (auto& qs : servers) qs->Stop();
}

// -- Circuit breaker (engine level) ------------------------------------------

TEST(BreakerTest, TripShortCircuitAndHalfOpenRecovery) {
  UniFixture f;
  core::EngineOptions options;
  options.server.breaker.enabled = true;
  options.server.breaker.failure_threshold = 1;
  options.server.breaker.open_timeout = 2 * kSecond;
  options.server.breaker.open_timeout_jitter = 0;
  core::Engine engine(&f.uni.web, options);

  // Pick a victim the traversal forwards to (not the StartNode site).
  const std::string root = RootHost(f.uni);
  std::string victim;
  for (const std::string& host : engine.participating_hosts()) {
    if (host != root) victim = host;
  }
  ASSERT_FALSE(victim.empty());
  server::QueryServer* victim_qs = engine.server_for(victim);
  ASSERT_NE(victim_qs, nullptr);
  victim_qs->Crash();

  // Run 1 while the victim is down: the first refused forward trips its
  // breaker everywhere a forwarder notices.
  auto first = engine.RunCompiled(f.compiled);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->completed);
  EXPECT_GT(first->server_stats.breaker_trips, 0u);

  // Run 2, still down: forwards to the victim short-circuit before any send
  // — immediate undeliverable outcomes, no connect attempt wasted.
  auto second = engine.RunCompiled(f.compiled);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->completed);
  EXPECT_GT(second->server_stats.breaker_short_circuits, 0u);

  // Load drops, the victim comes back, and the open interval passes.
  ASSERT_TRUE(victim_qs->Restart().ok());
  engine.network().ScheduleAfter(3 * kSecond, [] {});
  engine.network().RunUntilIdle();

  // Run 3: the half-open probe goes through, the breaker closes, and the
  // answer is exact again — recovery without any operator action.
  auto third = engine.RunCompiled(f.compiled);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->completed);
  EXPECT_GT(third->server_stats.breaker_probes, 0u);
  EXPECT_GT(third->server_stats.breaker_recoveries, 0u);
  EXPECT_EQ(third->fallback_node_count, 0u);
  EXPECT_EQ(AllRowKeys(third->results), f.reference);
}

// -- Randomized overload ∘ fault schedules -----------------------------------
// The §7 acceptance oracle, composed with PR 1's crash/restart machinery:
// under ANY mix of admission shedding, breaker trips, and server crashes —
// with retries and deadline GC enabled — every query terminates, rows are
// never duplicated, and degradation is always named (budget_exceeded_nodes /
// unreachable_hosts / fallback), never silent. Every third schedule (seeds
// 3, 6, ..., 24) also batches cross-query envelopes (§9.2), so batch units
// meet admission, eviction and deadlines as well, and in schedules with a
// deadline the log tables expire queries while later ones still run.

TEST(OverloadScheduleTest, RandomizedOverloadSchedulesAlwaysDrainTheCht) {
  UniFixture f;
  const std::vector<std::string> hosts = f.uni.web.Hosts();

  uint64_t total_shed = 0;
  uint64_t total_trips = 0;
  uint64_t batches_admitted = 0;
  uint64_t batch_arm_evictions = 0;
  uint64_t batches_shed = 0;
  uint64_t live_visits_after_expiry = 0;
  int degraded_runs = 0;
  int exact_runs = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("overload schedule seed " + std::to_string(seed));
    Rng rng(seed * 7919);

    core::EngineOptions options;
    options.server.retry.enabled = true;
    options.server.retry.initial_timeout = 100 * kMillisecond;
    options.server.retry.max_timeout = 400 * kMillisecond;
    options.server.retry.max_attempts = 5;
    options.server.retry.overload_initial_timeout = 200 * kMillisecond;
    options.server.retry.overload_max_timeout = 1 * kSecond;
    options.server.retry.jitter_seed = seed;
    // Every server is admission-limited and breaker-armed.
    options.server.admission.max_pending = rng.UniformRange(1, 3);
    options.server.admission.service_time =
        rng.UniformRange(1, 30) * kMillisecond;
    options.server.breaker.enabled = true;
    options.server.breaker.failure_threshold = rng.UniformRange(1, 3);
    options.server.breaker.open_timeout =
        rng.UniformRange(200, 800) * kMillisecond;
    options.server.breaker.seed = seed;
    options.client.retry = options.server.retry;
    options.client.entry_deadline = 10 * kSecond;
    if (rng.Bernoulli(0.5)) {
      options.client.budget_deadline = rng.UniformRange(2, 8) * kSecond;
    }
    if (rng.Bernoulli(0.3)) {
      options.client.budget_max_hops = rng.UniformRange(2, 5);
    }
    // Every third schedule also batches cross-query envelopes (§9.2) into
    // single-slot queues that serve twice as slowly, under a deadline, so
    // batch units meet full queues and the eviction policy has deadlines to
    // compare.
    const bool batching = seed % 3 == 0;
    if (batching) {
      options.server.batch_window = 50 * kMillisecond;
      options.server.admission.max_pending = 1;
      options.server.admission.service_time *= 2;
      if (options.client.budget_deadline == 0) {
        options.client.budget_deadline = 4 * kSecond;
      }
    }
    core::Engine engine(&f.uni.web, options);

    // Half the schedules crash one non-root server mid-run and restart it —
    // shed vs crashed must stay distinguishable under composition.
    if (rng.Bernoulli(0.5)) {
      const std::string victim = rng.Pick(engine.participating_hosts());
      server::QueryServer* qs = engine.server_for(victim);
      ASSERT_NE(qs, nullptr);
      const SimDuration down = rng.UniformRange(30, 200) * kMillisecond;
      const SimDuration up = down + rng.UniformRange(100, 800) * kMillisecond;
      engine.network().ScheduleAfter(down, [qs] { qs->Crash(); });
      engine.network().ScheduleAfter(
          up, [qs] { EXPECT_TRUE(qs->Restart().ok()); });
    }

    // Four to six staggered queries, so their deadlines are distinct: a
    // close follower contends for the same admission queues (in batching
    // schedules every follower is close, so batches form across queries),
    // and a distant one can arrive after an earlier query's deadline has
    // passed.
    const core::TrafficSummary before = engine.TrafficSnapshot();
    std::vector<query::QueryId> ids;
    const size_t queries = rng.UniformRange(4, 6);
    SimDuration offset = 0;
    for (size_t q = 0; q < queries; ++q) {
      engine.network().ScheduleAfter(offset, [&engine, &ids, &f] {
        auto id = engine.Submit(f.compiled);
        ASSERT_TRUE(id.ok());
        ids.push_back(id.value());
      });
      offset += (batching || rng.Bernoulli(0.5))
                    ? rng.UniformRange(1, 50) * kMillisecond
                    : rng.UniformRange(1000, 4000) * kMillisecond;
    }
    // A visit at a server that has expired some query: the visiting clone
    // passed the deadline gate, so a later query was still live there.
    uint64_t visits_after_expiry = 0;
    engine.ObserveVisits([&engine, &visits_after_expiry](
                             const server::VisitEvent& event) {
      const auto url = html::ParseUrl(event.node_url);
      ASSERT_TRUE(url.ok());
      const server::QueryServer* qs = engine.server_for(url->host);
      ASSERT_NE(qs, nullptr);
      if (qs->log_table().stats().expired_queries > 0) ++visits_after_expiry;
    });
    engine.network().RunUntilIdle();
    ASSERT_EQ(ids.size(), queries);

    const server::QueryServerStats stats = engine.AggregateServerStats();
    total_shed += stats.clones_shed + stats.clones_evicted;
    total_trips += stats.breaker_trips;
    if (batching) {
      batches_admitted += stats.clone_batches_received;
      batch_arm_evictions += stats.clones_evicted;
      batches_shed += stats.batches_shed;
    }
    if (options.client.budget_deadline != 0) {
      live_visits_after_expiry += visits_after_expiry;
    }

    for (const query::QueryId& id : ids) {
      core::RunOutcome outcome = engine.CollectOutcome(id, before);
      // Invariant 1: the CHT always drains — never a hang.
      EXPECT_TRUE(outcome.completed);
      // Invariant 2: never a duplicated answer row.
      const std::set<std::string> keys = AllRowKeys(outcome.results);
      EXPECT_EQ(keys.size(), outcome.TotalRows());
      // Invariant 3: every form of degradation is named, and the answer is
      // exact unless some form was.
      const bool degraded = outcome.partial || outcome.budget_exhausted ||
                            outcome.fallback_node_count > 0;
      if (degraded) {
        ++degraded_runs;
        for (const std::string& key : keys) {
          EXPECT_TRUE(f.reference.contains(key)) << key;
        }
        if (outcome.partial) {
          EXPECT_FALSE(outcome.unreachable_hosts.empty());
        }
        if (outcome.budget_exhausted) {
          EXPECT_FALSE(outcome.budget_exceeded_nodes.empty());
        }
      } else {
        ++exact_runs;
        EXPECT_EQ(keys, f.reference);
      }
    }
  }

  // The sweep was no placebo: queues really overflowed, breakers really
  // tripped, and both exact and degraded verdicts occurred. Deterministic
  // given the seeds above.
  EXPECT_GT(total_shed, 0u);
  EXPECT_GT(total_trips, 0u);
  EXPECT_GT(exact_runs, 0);
  EXPECT_GT(degraded_runs, 0);
  // The batching schedules admitted batch units and evicted some unit.
  EXPECT_GT(batches_admitted, 0u);
  EXPECT_GT(batch_arm_evictions, 0u);
  // Some batch met a full queue and was shed whole.
  EXPECT_GT(batches_shed, 0u);
  // Some server expired a query's log entries and went on serving a later
  // query that was still live.
  EXPECT_GT(live_visits_after_expiry, 0u);
}

}  // namespace
}  // namespace webdis
