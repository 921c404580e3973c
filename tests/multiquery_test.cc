// Sharing-equivalence oracle (PROTOCOL.md §9): cross-query sharing — the
// node-query result cache (§9.1) and batched clone/report envelopes
// (§9.2/§9.3) — is a transport + evaluation optimization and must never
// change what a query *answers*. Every suite here runs the same randomized
// concurrent-query workload under the four sharing configurations
// {cache off/on} × {batching off/on} and byte-compares canonical per-query
// verdicts against the unshared baseline.
//
// Schedule design notes (what keeps byte-equality honest):
//  * The cache never changes message timing, so any schedule is fair game
//    for the cache-only configuration.
//  * Batching delays sends by the flush window, so schedules composed with
//    batching must converge to the same verdict regardless of message
//    timing: loss faults are paired with at-least-once retry (the final
//    row set is the reachable closure either way), degradation is induced
//    only through arrival-order-independent mechanisms (per-visit row
//    budgets, structural non-participation), and crash schedules avoid
//    loss faults and overloaded victims (an abandoned transfer — retry
//    refused against a down host — degrades by *timing*, which is exactly
//    what the equivalence oracle may not depend on). The crash-point suite
//    at the bottom drops those guardrails and checks the weaker fault_test
//    contract instead: exact or *explicitly* degraded, never silently
//    partial, never duplicated.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "baseline/data_shipping.h"
#include "common/clock.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/engine.h"
#include "disql/compiler.h"
#include "net/fault.h"
#include "serialize/encoder.h"
#include "serialize/framing.h"
#include "server/persist.h"
#include "web/synth.h"

namespace webdis {
namespace {

struct ShareConfig {
  const char* name;
  bool cache;
  bool batch;
};
constexpr ShareConfig kUnshared = {"unshared", false, false};
constexpr ShareConfig kVariants[] = {
    {"cache", true, false},
    {"batch", false, true},
    {"cache+batch", true, true},
};

/// One randomized workload: which degradation/fault axes compose onto the
/// concurrent-query mix. All timing-divergence caveats above apply.
struct OracleSchedule {
  uint64_t seed = 1;
  int queries = 3;
  bool drop_faults = false;   // loss + duplication + delay (needs retry)
  bool reorder_faults = false;  // duplication + delay only (crash-safe)
  bool overload = false;        // admission queues + one hot host
  bool crash = false;           // crash/restart one non-start host, WAL on
  bool row_budget = false;      // order-independent per-visit row budget
  double participation = 1.0;   // < 1: structural undeliverable naming
  size_t workers = 0;           // parallel stepper mode
  /// Use the many-rows-per-visit sitemap query shape, so per-visit row
  /// budgets actually truncate (the default shape yields ≤ 1 row a visit).
  bool sitemap_queries = false;
};

/// Everything observed about one run of a schedule under one configuration.
struct OracleRun {
  /// Canonical per-query verdict: flags + sorted degradation names + sorted
  /// row keys. Byte-compared across configurations in timing-invariant
  /// suites.
  std::vector<std::string> verdicts;
  /// Per-query answer-only verdict: completion flag + the sorted union of
  /// distributed rows and the §7.1 fallback continuation for undeliverable
  /// nodes. Used by crash suites, where *which* nodes detoured through the
  /// fallback is timing-dependent but the final answer must not be.
  std::vector<std::string> answers;
  /// The same per-query union row sets, structured (for subset checks).
  std::vector<std::set<std::string>> answer_rows;
  bool all_completed = true;
  bool any_duplicate_rows = false;
  server::QueryServerStats server_stats;
  uint64_t faults_dropped = 0;
};

std::multiset<std::string> RowKeys(
    const std::vector<relational::ResultSet>& results) {
  std::multiset<std::string> keys;
  for (const relational::ResultSet& rs : results) {
    for (const relational::Tuple& row : rs.rows) {
      std::string key = Join(rs.column_labels, ",") + ":";
      for (const relational::Value& v : row) key += v.ToString() + "|";
      keys.insert(std::move(key));
    }
  }
  return keys;
}

/// Concurrent queries share the PRE pattern and predicate but start from
/// three different sites, so their traversals overlap heavily — the sharing
/// opportunity the cache and the batch envelopes exist for.
std::string QueryFor(int index) {
  return "select d.url from document d such that \"" +
         web::SynthUrl(index % 3, 0) +
         "\" (L|G)*2 d where d.title contains \"alpha\"";
}

/// Sitemap shape: every anchor of every reachable page — many rows per
/// visit, so a per-visit row cap of 1 must truncate (and name the node).
std::string SitemapQueryFor(int index) {
  return "select a.base, a.href from document d such that \"" +
         web::SynthUrl(index % 3, 0) + "\" (L|G)*2 d, anchor a";
}

OracleRun RunSchedule(const OracleSchedule& s, const ShareConfig& share) {
  web::SynthWebOptions web_options;
  web_options.seed = s.seed;
  web_options.num_sites = 5;
  web_options.docs_per_site = 6;
  web_options.filler_paragraphs = 1;
  web_options.words_per_paragraph = 12;
  const web::WebGraph web = web::GenerateSynthWeb(web_options);

  core::EngineOptions options;
  options.network.worker_threads = s.workers;
  options.network.latency_jitter = 2 * kMillisecond;
  options.network.jitter_seed = s.seed * 31 + 7;
  options.participation_fraction = s.participation;
  options.participation_seed = s.seed * 13 + 5;
  if (s.participation < 1.0) {
    // Structural degradation: the engine-level fallback is disabled so the
    // verdict names the undeliverable nodes instead of recovering them.
    options.fallback_processing = false;
    for (int i = 0; i < 3; ++i) {
      options.forced_participants.push_back(web::SynthHost(i));
    }
  }
  const bool needs_retry = s.drop_faults || s.overload || s.crash;
  if (needs_retry) {
    options.server.retry.enabled = true;
    options.server.retry.initial_timeout = 100 * kMillisecond;
    options.server.retry.max_timeout = 1 * kSecond;
    options.server.retry.max_attempts = 10;
    options.server.retry.overload_initial_timeout = 100 * kMillisecond;
    options.server.retry.overload_max_timeout = 800 * kMillisecond;
    options.client.retry = options.server.retry;
    // Safety net far beyond every retry window: it must never actually
    // fire in the equivalence suites (a deadline GC verdict is timing-
    // dependent, which would break byte-equality by design).
    options.client.entry_deadline = 60 * kSecond;
  }
  if (s.overload) {
    options.server.admission.max_pending = 32;
    options.server.admission.service_time = 300 * kMicrosecond;
  }
  if (s.row_budget) options.client.budget_max_rows_per_visit = 1;
  if (s.crash) options.server.persist.enabled = true;

  // The two sharing axes under test.
  options.server.share_results = share.cache;
  // Odd seeds bound the cache tightly enough to force LRU evictions
  // mid-run; eviction order is timing-dependent but must stay invisible.
  options.server.result_cache_max_bytes = (s.seed % 2 == 0) ? 0 : 4096;
  if (share.batch) {
    options.server.batch_window = 1 * kMillisecond;
    options.server.batch_max_members = 2 + s.seed % 7;  // exercise splitting
  }
  if (s.overload) {
    // One deliberately hot host with a tiny queue sheds aggressively —
    // including whole batch envelopes (all-or-none NACK). Copied after the
    // sharing fields so the hot host shares the same configuration.
    server::QueryServerOptions hot = options.server;
    hot.admission.max_pending = 2;
    hot.admission.service_time = 800 * kMicrosecond;
    options.server_overrides[web::SynthHost(1)] = hot;
  }
  if (s.crash) {
    // The crash victim drains slowly from a deep queue: slow enough that
    // the crash catches WAL-admitted members still pending, deep enough
    // that it never sheds (an overload retry refused against the downtime
    // window would be quietly abandoned — a timing-dependent degradation
    // the equivalence suites must exclude).
    server::QueryServerOptions victim_options = options.server;
    victim_options.admission.max_pending = 64;
    victim_options.admission.service_time = 2 * kMillisecond;
    options.server_overrides[web::SynthHost(
        3 + static_cast<int>(s.seed % 2))] = victim_options;
  }

  core::Engine engine(&web, options);

  net::FaultPlan plan(s.seed * 97 + 13);
  if (s.drop_faults || s.reorder_faults) {
    Rng rng(s.seed * 7919);
    for (net::MessageType type :
         {net::MessageType::kWebQuery, net::MessageType::kReport,
          net::MessageType::kDeliveryAck, net::MessageType::kCloneBatch,
          net::MessageType::kReportBatch}) {
      net::FaultPlan::Rule rule;
      rule.type = type;
      rule.drop_prob = s.drop_faults ? 0.02 + 0.08 * rng.NextDouble() : 0.0;
      rule.duplicate_prob = 0.06 * rng.NextDouble();
      plan.AddRule(rule);
    }
    for (net::MessageType type :
         {net::MessageType::kReport, net::MessageType::kReportBatch}) {
      net::FaultPlan::Rule delay_rule;
      delay_rule.type = type;
      delay_rule.delay_prob = 0.25;
      delay_rule.delay = rng.UniformRange(1, 8) * kMillisecond;
      plan.AddRule(delay_rule);
    }
    engine.network().SetFaultPlan(&plan);
  }

  if (s.crash) {
    // The victim is never a start host (client dispatch is not the subject)
    // and never the hot host (an overload retry refused against a down host
    // is abandoned — a timing-dependent loss the equivalence suites must
    // not contain; the crash-point suite below covers that composition).
    Rng crash_rng(s.seed * 104729 + 3);
    server::QueryServer* victim =
        engine.server_for(web::SynthHost(3 + static_cast<int>(s.seed % 2)));
    EXPECT_NE(victim, nullptr);
    // The downtime window is kept shorter than the retry timeout less the
    // delivery latency: a transfer in flight at the crash (accepted at send
    // time, delivered to a closed listener) retransmits only after the
    // victim is back, so it is redelivered instead of quietly abandoned
    // (ReliableSender gives up on a synchronous refusal at retry time —
    // correct for passive termination, fatally timing-dependent here).
    const SimDuration down = crash_rng.UniformRange(20, 200) * kMillisecond;
    const SimDuration up = down + crash_rng.UniformRange(30, 60) * kMillisecond;
    engine.network().ScheduleAfter(down, [victim] { victim->Crash(); });
    engine.network().ScheduleAfter(
        up, [victim] { EXPECT_TRUE(victim->Restart().ok()); });
  }

  const core::TrafficSummary before = engine.TrafficSnapshot();
  std::vector<query::QueryId> ids;
  for (int i = 0; i < s.queries; ++i) {
    auto compiled = disql::CompileDisql(s.sitemap_queries ? SitemapQueryFor(i)
                                                         : QueryFor(i));
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    auto id = engine.Submit(compiled.value(), "user" + std::to_string(i));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
  }
  engine.network().RunUntilIdle();

  OracleRun run;
  for (const query::QueryId& id : ids) {
    const client::UserSite::QueryRun* query_run = engine.user_site().Find(id);
    EXPECT_NE(query_run, nullptr);
    const core::RunOutcome outcome = engine.CollectOutcome(id, before);
    run.all_completed = run.all_completed && outcome.completed;

    const std::multiset<std::string> rows = RowKeys(outcome.results);
    const std::set<std::string> unique_rows(rows.begin(), rows.end());
    if (unique_rows.size() != rows.size()) run.any_duplicate_rows = true;

    // Full verdict: flags, sorted degradation names, rows.
    std::string verdict = StringPrintf(
        "completed=%d partial=%d budget_exhausted=%d\n",
        outcome.completed ? 1 : 0, outcome.partial ? 1 : 0,
        outcome.budget_exhausted ? 1 : 0);
    std::set<std::string> unreachable(outcome.unreachable_hosts.begin(),
                                      outcome.unreachable_hosts.end());
    verdict += "unreachable:";
    for (const std::string& host : unreachable) verdict += " " + host;
    std::set<std::string> budget_nodes(outcome.budget_exceeded_nodes.begin(),
                                       outcome.budget_exceeded_nodes.end());
    verdict += "\nbudget_nodes:";
    for (const std::string& node : budget_nodes) verdict += " " + node;
    std::set<std::string> fallback_names;
    for (const query::ChtEntry& entry : query_run->fallback_nodes) {
      fallback_names.insert(entry.node_url);
    }
    verdict += "\nfallback_nodes:";
    for (const std::string& node : fallback_names) verdict += " " + node;
    verdict += "\nrows:\n";
    for (const std::string& key : rows) verdict += key + "\n";
    run.verdicts.push_back(std::move(verdict));

    // Answer-only verdict: distributed rows plus the §7.1 centralized
    // continuation for whatever was undeliverable in *this* timing.
    std::set<std::string> answer_rows = unique_rows;
    if (!query_run->fallback_nodes.empty()) {
      baseline::DataShippingEngine fallback(core::Engine::kClientHost,
                                            &engine.network());
      auto recovered =
          fallback.RunFrom(query_run->compiled, query_run->fallback_nodes);
      EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
      if (recovered.ok()) {
        for (const std::string& key : RowKeys(recovered->results)) {
          answer_rows.insert(key);
        }
      }
    }
    std::string answer =
        StringPrintf("completed=%d\nrows:\n", outcome.completed ? 1 : 0);
    for (const std::string& key : answer_rows) answer += key + "\n";
    run.answers.push_back(std::move(answer));
    run.answer_rows.push_back(std::move(answer_rows));
  }
  run.server_stats = engine.AggregateServerStats();
  run.faults_dropped = plan.stats().dropped;
  return run;
}

// ---------------------------------------------------------------------------
// Suite A: ≥16 seeds × {cache on/off} × {batching on/off}, composed with
// loss/duplication/delay fault schedules and admission-queue overload.
// Retries make every schedule converge, so the *full* verdict — flags,
// degradation names, rows — must be byte-identical to the unshared baseline.
// ---------------------------------------------------------------------------

TEST(SharingEquivalenceOracle, SixteenSeedFaultAndOverloadSweep) {
  uint64_t cache_hits = 0;
  uint64_t batch_envelopes = 0;
  uint64_t dropped = 0;
  uint64_t overload_sheds = 0;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    OracleSchedule s;
    s.seed = seed;
    s.queries = 3 + static_cast<int>(seed % 2);
    // Every fourth seed composes both axes; the rest sample them so plain
    // schedules stay covered too.
    Rng rng(seed * 29);
    s.drop_faults = seed % 4 == 0 || rng.Bernoulli(0.5);
    s.overload = seed % 4 == 0 || rng.Bernoulli(0.5);

    const OracleRun baseline = RunSchedule(s, kUnshared);
    EXPECT_TRUE(baseline.all_completed);
    EXPECT_FALSE(baseline.any_duplicate_rows);
    dropped += baseline.faults_dropped;
    for (const ShareConfig& share : kVariants) {
      SCOPED_TRACE(share.name);
      const OracleRun shared = RunSchedule(s, share);
      EXPECT_TRUE(shared.all_completed);
      EXPECT_FALSE(shared.any_duplicate_rows);
      EXPECT_EQ(shared.verdicts, baseline.verdicts);
      if (share.cache) {
        cache_hits += shared.server_stats.result_cache_hits;
      }
      if (share.batch) {
        batch_envelopes += shared.server_stats.clone_batches_sent +
                           shared.server_stats.report_batches_sent;
      }
      overload_sheds += shared.server_stats.clones_shed +
                        shared.server_stats.batches_shed;
      dropped += shared.faults_dropped;
    }
  }
  // The sweep was no placebo: results really were shared, envelopes really
  // were batched, messages really were lost, queues really shed.
  EXPECT_GT(cache_hits, 0u);
  EXPECT_GT(batch_envelopes, 0u);
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(overload_sheds, 0u);
}

// ---------------------------------------------------------------------------
// Suite B: composed fault + overload + crash schedules over WAL-durable
// servers. Reordering faults (duplication + delay) compose freely; loss
// faults do not (see the header note on abandoned transfers). The answer —
// distributed rows plus the fallback continuation — must be byte-identical
// across configurations AND equal to the fault-free reference.
// ---------------------------------------------------------------------------

TEST(SharingEquivalenceOracle, CrashComposedSchedulesConvergeIdentically) {
  uint64_t replayed = 0;
  uint64_t recovered = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    OracleSchedule s;
    s.seed = seed;
    s.queries = 3 + static_cast<int>(seed % 2);
    s.reorder_faults = true;
    s.overload = true;
    s.crash = true;

    // Fault-free reference answer over the same web + queries.
    OracleSchedule plain;
    plain.seed = seed;
    plain.queries = s.queries;
    const OracleRun reference = RunSchedule(plain, kUnshared);
    EXPECT_TRUE(reference.all_completed);

    const OracleRun baseline = RunSchedule(s, kUnshared);
    EXPECT_TRUE(baseline.all_completed);
    EXPECT_FALSE(baseline.any_duplicate_rows);
    EXPECT_EQ(baseline.answers, reference.answers);
    replayed += baseline.server_stats.replayed_wal_records;
    recovered += baseline.server_stats.recovered_clones;
    for (const ShareConfig& share : kVariants) {
      SCOPED_TRACE(share.name);
      const OracleRun shared = RunSchedule(s, share);
      EXPECT_TRUE(shared.all_completed);
      EXPECT_FALSE(shared.any_duplicate_rows);
      EXPECT_EQ(shared.answers, baseline.answers);
      replayed += shared.server_stats.replayed_wal_records;
      recovered += shared.server_stats.recovered_clones;
    }
  }
  // Crashes really hit servers holding durable state.
  EXPECT_GT(replayed, 0u);
  EXPECT_GT(recovered, 0u);
}

// ---------------------------------------------------------------------------
// Suite C: degraded outcomes are identically *named*. Degradation here is
// arrival-order-independent by construction: per-visit row budgets truncate
// the same rows at the same nodes regardless of message timing, and
// non-participating hosts are a structural property of the deployment. The
// full verdict — including the sorted degradation names — must match.
// ---------------------------------------------------------------------------

TEST(SharingEquivalenceOracle, DegradedOutcomesIdenticallyNamed) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    for (const bool structural : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (structural ? " participation" : " row-budget"));
      OracleSchedule s;
      s.seed = seed;
      s.queries = 3;
      s.drop_faults = true;
      s.overload = true;
      if (structural) {
        // Only the forced start hosts participate: the set of undeliverable
        // nodes is a property of the deployment, not of message timing.
        s.participation = 0.0;
      } else {
        s.row_budget = true;
        s.sitemap_queries = true;
      }

      const OracleRun baseline = RunSchedule(s, kUnshared);
      EXPECT_TRUE(baseline.all_completed);
      // The schedule genuinely degrades: something is named.
      bool named = false;
      for (const std::string& verdict : baseline.verdicts) {
        named = named || verdict.find("budget_nodes: ") != std::string::npos ||
                verdict.find("fallback_nodes: ") != std::string::npos;
      }
      EXPECT_TRUE(named);
      for (const ShareConfig& share : kVariants) {
        SCOPED_TRACE(share.name);
        const OracleRun shared = RunSchedule(s, share);
        EXPECT_TRUE(shared.all_completed);
        EXPECT_FALSE(shared.any_duplicate_rows);
        EXPECT_EQ(shared.verdicts, baseline.verdicts);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Suite D: the result cache is shared mutable state inside each server, and
// the parallel stepper (DESIGN.md "Parallel execution") runs servers on
// worker threads. Sharing must be invisible there too — same verdicts as
// the single-threaded unshared baseline. This suite is the reason
// multiquery_test runs under TSan in CI.
// ---------------------------------------------------------------------------

TEST(SharingEquivalenceOracle, ParallelStepperSharingMatchesBaseline) {
  for (uint64_t seed : {3u, 9u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    OracleSchedule s;
    s.seed = seed;
    s.queries = 4;
    s.drop_faults = true;
    s.overload = true;

    const OracleRun baseline = RunSchedule(s, kUnshared);
    EXPECT_TRUE(baseline.all_completed);
    for (const ShareConfig& share : kVariants) {
      SCOPED_TRACE(share.name);
      OracleSchedule threaded = s;
      threaded.workers = 2;
      const OracleRun shared = RunSchedule(threaded, share);
      EXPECT_TRUE(shared.all_completed);
      EXPECT_FALSE(shared.any_duplicate_rows);
      EXPECT_EQ(shared.verdicts, baseline.verdicts);
    }
  }
}

// ---------------------------------------------------------------------------
// Batch-admission crash points (runs under ASan in CI). A server receiving
// batch envelopes with a tight admission queue and a WAL is crashed at a
// grid of points — mid-shed, mid-queue, mid-drain, mid-flush — and
// restarted. The §9.2 all-or-none contract: members are never silently
// part-accepted. Every query still reaches a verdict that is exact or
// *explicitly* degraded (named fallback/unreachable/budget nodes), rows are
// never duplicated, and at least one crash point recovers WAL-admitted
// batch members.
// ---------------------------------------------------------------------------

TEST(BatchAdmissionCrashPointTest, NoSilentPartialAcceptAcrossCrashGrid) {
  OracleSchedule plain;
  plain.seed = 5;
  plain.queries = 8;
  ShareConfig sharing = {"cache+batch", true, true};
  const OracleRun reference = RunSchedule(plain, sharing);
  EXPECT_TRUE(reference.all_completed);
  const std::vector<std::set<std::string>>& reference_rows =
      reference.answer_rows;

  uint64_t recovered = 0;
  uint64_t batches_received = 0;
  uint64_t batches_shed = 0;
  for (const SimDuration crash_at :
       {SimDuration{10}, SimDuration{25}, SimDuration{45}, SimDuration{70},
        SimDuration{110}, SimDuration{170}, SimDuration{260},
        SimDuration{400}}) {
    SCOPED_TRACE("crash at " + std::to_string(crash_at) + "ms");
    web::SynthWebOptions web_options;
    web_options.seed = plain.seed;
    web_options.num_sites = 5;
    web_options.docs_per_site = 6;
    web_options.filler_paragraphs = 1;
    web_options.words_per_paragraph = 12;
    const web::WebGraph web = web::GenerateSynthWeb(web_options);

    core::EngineOptions options;
    options.network.latency_jitter = 2 * kMillisecond;
    options.network.jitter_seed = plain.seed * 31 + 7;
    options.server.retry.enabled = true;
    options.server.retry.initial_timeout = 100 * kMillisecond;
    options.server.retry.max_attempts = 8;
    options.server.retry.overload_initial_timeout = 100 * kMillisecond;
    options.server.retry.overload_max_timeout = 800 * kMillisecond;
    options.client.retry = options.server.retry;
    options.client.entry_deadline = 10 * kSecond;
    options.server.persist.enabled = true;
    options.server.share_results = true;
    options.server.batch_window = 1 * kMillisecond;
    // Small envelopes mean several batches per clone wave, so envelopes
    // overlap inside the victim's slow drain window.
    options.server.batch_max_members = 2;
    options.server.admission.max_pending = 16;
    options.server.admission.service_time = 500 * kMicrosecond;
    // The crash victim is the batch hotspot (every query's traversal clones
    // into site 4) and is also hot: batches shed at its tiny queue AND
    // batches admitted into its WAL both meet the crash.
    server::QueryServerOptions hot = options.server;
    hot.admission.max_pending = 2;
    hot.admission.service_time = 8 * kMillisecond;
    options.server_overrides[web::SynthHost(4)] = hot;

    core::Engine engine(&web, options);
    server::QueryServer* victim = engine.server_for(web::SynthHost(4));
    ASSERT_NE(victim, nullptr);
    engine.network().ScheduleAfter(crash_at * kMillisecond,
                                   [victim] { victim->Crash(); });
    engine.network().ScheduleAfter(
        crash_at * kMillisecond + 300 * kMillisecond,
        [victim] { EXPECT_TRUE(victim->Restart().ok()); });

    const core::TrafficSummary before = engine.TrafficSnapshot();
    std::vector<query::QueryId> ids;
    for (int i = 0; i < plain.queries; ++i) {
      auto compiled = disql::CompileDisql(QueryFor(i));
      ASSERT_TRUE(compiled.ok());
      auto id = engine.Submit(compiled.value(), "user" + std::to_string(i));
      ASSERT_TRUE(id.ok());
      ids.push_back(id.value());
    }
    engine.network().RunUntilIdle();

    for (size_t i = 0; i < ids.size(); ++i) {
      const client::UserSite::QueryRun* run = engine.user_site().Find(ids[i]);
      ASSERT_NE(run, nullptr);
      const core::RunOutcome outcome = engine.CollectOutcome(ids[i], before);
      // Invariant 1: never a hang.
      EXPECT_TRUE(outcome.completed);
      // Invariant 2: never a duplicated answer row.
      const std::multiset<std::string> rows = RowKeys(outcome.results);
      std::set<std::string> unique_rows(rows.begin(), rows.end());
      EXPECT_EQ(unique_rows.size(), rows.size());
      // Invariant 3: exact, or explicitly degraded — a member lost to the
      // crash must surface as a *named* fallback/unreachable/budget node,
      // never as a silently missing row.
      if (!run->fallback_nodes.empty()) {
        baseline::DataShippingEngine fallback(core::Engine::kClientHost,
                                              &engine.network());
        auto rec = fallback.RunFrom(run->compiled, run->fallback_nodes);
        ASSERT_TRUE(rec.ok());
        for (const std::string& key : RowKeys(rec->results)) {
          unique_rows.insert(key);
        }
      }
      const bool explicitly_degraded =
          outcome.partial || !run->fallback_nodes.empty();
      if (explicitly_degraded) {
        for (const std::string& key : unique_rows) {
          EXPECT_TRUE(reference_rows[i].contains(key)) << key;
        }
      } else {
        EXPECT_EQ(unique_rows, reference_rows[i]);
      }
    }
    const server::QueryServerStats stats = engine.AggregateServerStats();
    recovered += stats.recovered_clones;
    batches_received += stats.clone_batches_received;
    batches_shed += stats.batches_shed;
  }
  // The grid really exercised the batch-admission crash surface.
  EXPECT_GT(batches_received, 0u);
  EXPECT_GT(recovered, 0u);
  EXPECT_GT(batches_shed, 0u);
}

// ---------------------------------------------------------------------------
// Forgetting a live run is passive termination (§2.8). UserSite::Forget
// closes the run's result socket before freeing it, so the servers' later
// reports to it are refused and they purge the query, and a batched member
// riding a live peer's socket is dropped at demux like a closed socket's
// member. The peers' answers are untouched.
// ---------------------------------------------------------------------------

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

TEST(ForgetLiveRunTest, ForgottenRunTerminatesPassivelyAndPeersAreExact) {
  web::SynthWebOptions web_options;
  web_options.seed = 5;
  web_options.num_sites = 5;
  web_options.docs_per_site = 6;
  web_options.filler_paragraphs = 1;
  web_options.words_per_paragraph = 12;
  const web::WebGraph web = web::GenerateSynthWeb(web_options);
  constexpr int kQueries = 3;
  constexpr int kDoomed = 1;  // a port between its peers'

  for (const bool batch : {false, true}) {
    SCOPED_TRACE(batch ? "batched reports" : "plain reports");
    core::EngineOptions options;
    options.network.latency_jitter = 2 * kMillisecond;
    options.network.jitter_seed = 7;
    // Far beyond the runs' length, so it never fires; it arms each live
    // run's deadline sweep, which Forget must cancel.
    options.client.entry_deadline = 10 * kSecond;
    if (batch) {
      options.server.batch_window = 1 * kMillisecond;
      options.server.batch_max_members = 16;
    }
    std::vector<disql::CompiledQuery> queries;
    std::vector<std::multiset<std::string>> solo;
    for (int i = 0; i < kQueries; ++i) {
      auto compiled = disql::CompileDisql(QueryFor(i));
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      core::Engine alone(&web, options);
      auto outcome = alone.RunCompiled(compiled.value());
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      ASSERT_TRUE(outcome->completed);
      solo.push_back(RowKeys(outcome->results));
      queries.push_back(std::move(compiled).value());
    }

    CapturedWarnings warnings;
    core::Engine engine(&web, options);
    const core::TrafficSummary before = engine.TrafficSnapshot();
    std::vector<query::QueryId> ids;
    for (int i = 0; i < kQueries; ++i) {
      auto id = engine.Submit(queries[i], "user" + std::to_string(i));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids.push_back(id.value());
    }
    const query::QueryId doomed = ids[kDoomed];
    // Mid-traversal: after the doomed run's first report, well before it
    // completes.
    client::UserSite& user = engine.user_site();
    while (user.Find(doomed)->stats.reports_received == 0) {
      ASSERT_TRUE(engine.network().RunOne());
    }
    ASSERT_FALSE(user.IsComplete(doomed));
    ASSERT_NE(user.Find(doomed)->sweep_timer, 0u);
    const uint64_t refused_before =
        engine.TrafficSnapshot().connection_refused;
    user.Forget(doomed);
    EXPECT_EQ(user.Find(doomed), nullptr);
    EXPECT_EQ(user.run_count(), static_cast<size_t>(kQueries - 1));

    engine.network().RunUntilIdle();  // drains: no timer outlives the run
    EXPECT_EQ(user.Find(doomed), nullptr);
    EXPECT_GT(engine.TrafficSnapshot().connection_refused, refused_before);
    EXPECT_GT(engine.AggregateServerStats().passive_terminations, 0u);

    uint64_t dropped_forgotten = 0;
    for (int i = 0; i < kQueries; ++i) {
      if (i == kDoomed) continue;
      SCOPED_TRACE("query " + std::to_string(i));
      const core::RunOutcome outcome = engine.CollectOutcome(ids[i], before);
      EXPECT_TRUE(outcome.completed);
      EXPECT_EQ(RowKeys(outcome.results), solo[i]);
      dropped_forgotten += outcome.client_stats.batch_members_dropped_forgotten;
    }
    if (batch) {
      EXPECT_GT(dropped_forgotten, 0u);
    } else {
      EXPECT_EQ(dropped_forgotten, 0u);
    }
    for (const std::string& line : warnings.lines) {
      EXPECT_EQ(line.find("unknown query"), std::string::npos) << line;
    }
  }
}

// -- Adversarial batch durability -------------------------------------------
// A kBatchAdmitted WAL record is one atomic admission unit: damage to any
// nested member must reject the whole record — replay must never resurrect
// a batch missing some of its members (the lost members' queries would
// silently drop rows, the exact failure the sharing oracle exists to catch).

TEST(MultiQueryBatchDurabilityTest, DamagedBatchMemberNeverReplaysPartially) {
  auto compiled = disql::CompileDisql(QueryFor(0));
  ASSERT_TRUE(compiled.ok());
  std::vector<query::WebQuery> members;
  for (int i = 0; i < 2; ++i) {
    query::WebQuery clone = compiled->web_query.Clone();
    clone.id.user = "u";
    clone.id.reply_host = "h";
    clone.id.reply_port = 1;
    clone.id.query_number = static_cast<uint32_t>(i + 1);
    clone.dest_urls = {web::SynthUrl(4, 0)};
    members.push_back(std::move(clone));
  }
  serialize::Encoder payload;
  server::WalBatchAdmitted::EncodeFields(
      7, net::Endpoint{"sender", 1}, /*tracked=*/true, /*seq=*/9, members,
      &payload);
  const std::vector<uint8_t> record = server::EncodeWalRecord(
      server::WalRecordType::kBatchAdmitted, payload.data());

  // (a) Flip one byte inside the second member's image. The per-record
  // CRC no longer matches, so DecodeWal must discard the record whole.
  std::vector<uint8_t> damaged = record;
  damaged[damaged.size() - 5] ^= 0x40;
  const server::WalReadResult read = server::DecodeWal(damaged);
  EXPECT_TRUE(read.records.empty());
  EXPECT_EQ(read.discarded_records, 1u);
  EXPECT_EQ(read.discarded_bytes, damaged.size());

  // (b) A torn second member whose record checksum is *valid* (the tear
  // happened before framing, not after): framing passes, so the payload
  // decoder itself must reject with Corruption — never return a batch that
  // decoded "most of" its members.
  std::vector<uint8_t> torn_payload = payload.data();
  torn_payload.resize(torn_payload.size() - 4);
  const std::vector<uint8_t> torn_record = server::EncodeWalRecord(
      server::WalRecordType::kBatchAdmitted, torn_payload);
  const server::WalReadResult reread = server::DecodeWal(torn_record);
  ASSERT_EQ(reread.records.size(), 1u);
  serialize::Decoder dec(reread.records[0].payload);
  server::WalBatchAdmitted out;
  Status status = server::WalBatchAdmitted::DecodeFrom(&dec, &out);
  if (status.ok()) status = dec.ExpectAtEnd("WAL batch-admitted record");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace webdis
