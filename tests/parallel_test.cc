// Determinism proof for the parallel stepper (DESIGN.md "Parallel
// execution"): a run under SimNetworkOptions::worker_threads = N must be
// bit-identical — results, run stats, traffic meters, and the named
// degradation sets — to the sequential stepper (N = 1) and to the legacy
// event loop (N = 0), for every seed, including schedules composed with
// fault injection and overload protection. The comparison is a full textual
// signature of everything an outcome exposes, so any divergence in any
// counter fails loudly with the two signatures side by side.
//
// This suite also runs under TSan in CI (with real worker threads), which is
// what checks the confinement rule — that concurrent partitions of a slice
// never touch shared state unsynchronized.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "core/engine.h"
#include "disql/compiler.h"
#include "net/fault.h"
#include "net/sim.h"
#include "web/synth.h"

namespace webdis {
namespace {

struct Workload {
  std::string name;
  uint64_t seed = 1;
  bool faults = false;    // drop/dup/delay schedule + at-least-once retry
  bool overload = false;  // admission queue + budgets + a hot-host override
  int queries = 1;        // concurrent submissions sharing the network
  // With zero jitter, same-hop messages to different hosts arrive in one
  // wavefront, producing wide multi-partition slices (the interesting case
  // for the stepper); with jitter, arrivals scatter to distinct timestamps
  // and most slices are singletons. Both must be bit-identical.
  bool jitter = true;
};

std::string SummarizeTraffic(const core::TrafficSummary& t) {
  return StringPrintf(
      "msgs=%llu bytes=%llu inter=%llu/%llu q=%llu/%llu r=%llu/%llu "
      "f=%llu/%llu term=%llu refused=%llu",
      (unsigned long long)t.messages, (unsigned long long)t.bytes,
      (unsigned long long)t.inter_host_messages,
      (unsigned long long)t.inter_host_bytes,
      (unsigned long long)t.query_messages, (unsigned long long)t.query_bytes,
      (unsigned long long)t.report_messages,
      (unsigned long long)t.report_bytes, (unsigned long long)t.fetch_messages,
      (unsigned long long)t.fetch_bytes,
      (unsigned long long)t.terminate_messages,
      (unsigned long long)t.connection_refused);
}

/// Everything observable about an outcome except the stepper's own
/// concurrency counters (workers / parallel occupancy legitimately differ
/// between modes; nothing else may).
std::string SummarizeOutcome(const core::RunOutcome& outcome) {
  std::string out;
  out += StringPrintf(
      "completed=%d partial=%d budget_exhausted=%d rows=%zu "
      "submit=%llu done=%llu last=%llu cht=%zu/%zu/%llu/%llu fallback=%zu\n",
      outcome.completed ? 1 : 0, outcome.partial ? 1 : 0,
      outcome.budget_exhausted ? 1 : 0, outcome.TotalRows(),
      (unsigned long long)outcome.submit_time,
      (unsigned long long)outcome.completion_time,
      (unsigned long long)outcome.last_report_time,
      outcome.cht_total_entries, outcome.cht_max_active,
      (unsigned long long)outcome.cht_suppressed,
      (unsigned long long)outcome.cht_unmatched_deletes,
      outcome.fallback_node_count);
  out += "unreachable:";
  for (const std::string& host : outcome.unreachable_hosts) out += " " + host;
  out += "\nbudget_nodes:";
  for (const std::string& n : outcome.budget_exceeded_nodes) out += " " + n;
  out += "\n";
  out += core::FormatResults(outcome.results);
  // FormatRunStats appends a "parallel:" line when workers > 0; every other
  // line must match across modes.
  for (const std::string& line :
       Split(core::FormatRunStats(outcome), '\n')) {
    if (line.rfind("parallel:", 0) == 0) continue;
    out += line + "\n";
  }
  out += "traffic: " + SummarizeTraffic(outcome.traffic) + "\n";
  return out;
}

std::string QueryFor(int index) {
  // Vary start node and pattern a little per concurrent query so the batch
  // is not N copies of one schedule.
  const std::string start = web::SynthUrl(index % 3, index % 2);
  const std::string pattern =
      (index % 2 == 0) ? "(L|G)*2" : "G.(L|G)*1";
  return "select d1.url, d1.title\n"
         "from document d1 such that \"" +
         start + "\" " + pattern +
         " d1,\n"
         "where d1.title contains \"alpha\"\n";
}

/// Runs the workload with the given stepper mode and returns (signature,
/// parallel stats). The signature must not depend on `workers`.
std::string RunWorkload(const Workload& w, size_t workers,
                        net::ParallelStats* parallel_out = nullptr) {
  web::SynthWebOptions web_options;
  web_options.seed = w.seed;
  web_options.num_sites = 5;
  web_options.docs_per_site = 6;
  web_options.filler_paragraphs = 1;
  web_options.words_per_paragraph = 12;
  const web::WebGraph web = web::GenerateSynthWeb(web_options);

  core::EngineOptions options;
  options.network.worker_threads = workers;
  options.network.latency_jitter = w.jitter ? 2 * kMillisecond : 0;
  options.network.jitter_seed = w.seed * 31 + 7;
  if (w.faults) {
    options.server.retry.enabled = true;
    options.client.retry.enabled = true;
  }
  if (w.overload) {
    options.client.budget_max_hops = 6;
    options.client.budget_max_clones = 64;
    options.client.budget_max_rows_per_visit = 8;
    options.server.admission.max_pending = 4;
    options.server.admission.service_time = 2 * kMillisecond;
    // One deliberately hot host with a tiny queue exercises shedding and
    // eviction under both steppers.
    server::QueryServerOptions hot = options.server;
    hot.admission.max_pending = 1;
    options.server_overrides[web::SynthHost(1)] = hot;
  }
  core::Engine engine(&web, options);

  net::FaultPlan plan(w.seed * 97 + 13);
  if (w.faults) {
    Rng rng(w.seed * 7919);
    for (net::MessageType type :
         {net::MessageType::kWebQuery, net::MessageType::kReport,
          net::MessageType::kDeliveryAck}) {
      net::FaultPlan::Rule rule;
      rule.type = type;
      rule.drop_prob = 0.02 + 0.10 * rng.NextDouble();
      rule.duplicate_prob = 0.08 * rng.NextDouble();
      plan.AddRule(rule);
    }
    net::FaultPlan::Rule delay_rule;
    delay_rule.type = net::MessageType::kReport;
    delay_rule.delay_prob = 0.25;
    delay_rule.delay = rng.UniformRange(1, 8) * kMillisecond;
    plan.AddRule(delay_rule);
    engine.network().SetFaultPlan(&plan);
  }

  const core::TrafficSummary before = engine.TrafficSnapshot();
  std::vector<query::QueryId> ids;
  for (int i = 0; i < w.queries; ++i) {
    auto compiled = disql::CompileDisql(QueryFor(i));
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    if (!compiled.ok()) return "compile error";
    auto id = engine.Submit(compiled.value(), "user" + std::to_string(i));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    if (!id.ok()) return "submit error";
    ids.push_back(id.value());
  }
  engine.network().RunUntilIdle();

  std::string signature;
  for (const query::QueryId& id : ids) {
    signature += SummarizeOutcome(engine.CollectOutcome(id, before));
    signature += "----\n";
  }
  if (parallel_out != nullptr) {
    *parallel_out = engine.network().parallel_stats();
  }
  return signature;
}

void ExpectBitIdentical(const Workload& w) {
  SCOPED_TRACE(w.name + " seed=" + std::to_string(w.seed));
  const std::string legacy = RunWorkload(w, 0);
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    EXPECT_EQ(legacy, RunWorkload(w, workers));
  }
}

TEST(ParallelDeterminismTest, PlainWorkloadAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    ExpectBitIdentical({.name = "plain", .seed = seed});
  }
}

TEST(ParallelDeterminismTest, WavefrontWorkloadAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    ExpectBitIdentical(
        {.name = "wavefront", .seed = seed, .queries = 4, .jitter = false});
  }
}

TEST(ParallelDeterminismTest, MultiQueryAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    ExpectBitIdentical({.name = "multiquery", .seed = seed, .queries = 4});
  }
}

TEST(ParallelDeterminismTest, ComposedWithFaultSchedules) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    ExpectBitIdentical(
        {.name = "faults", .seed = seed, .faults = true, .queries = 2});
    ExpectBitIdentical({.name = "faults-wavefront",
                        .seed = seed,
                        .faults = true,
                        .queries = 2,
                        .jitter = false});
  }
}

TEST(ParallelDeterminismTest, ComposedWithOverloadSchedules) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    ExpectBitIdentical({.name = "overload",
                        .seed = seed,
                        .overload = true,
                        .queries = 3,
                        .jitter = false});
  }
}

TEST(ParallelDeterminismTest, ComposedWithFaultsAndOverload) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ExpectBitIdentical({.name = "both",
                        .seed = seed,
                        .faults = true,
                        .overload = true,
                        .queries = 2});
  }
  // Aligned arrivals: retries, shedding and drops meet in wide slices.
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    ExpectBitIdentical({.name = "both-wavefront",
                        .seed = seed,
                        .faults = true,
                        .overload = true,
                        .queries = 2,
                        .jitter = false});
  }
}

// The determinism theorems above would be vacuous if the stepper never
// actually ran anything in parallel: prove the workloads exercise
// multi-partition slices.
TEST(ParallelDeterminismTest, ParallelSlicesActuallyHappen) {
  net::ParallelStats stats;
  (void)RunWorkload(
      {.name = "occupancy", .seed = 3, .queries = 4, .jitter = false}, 4,
      &stats);
  EXPECT_GT(stats.slices, 0u);
  EXPECT_GT(stats.parallel_slices, 0u);
  EXPECT_GT(stats.Occupancy(), 0.05);
  EXPECT_GE(stats.max_slice_partitions, 2u);
}

// Legacy mode must not pay for the stepper: no pool, zero parallel stats.
TEST(ParallelDeterminismTest, LegacyModeReportsNoParallelism) {
  net::ParallelStats stats;
  (void)RunWorkload({.name = "legacy", .seed = 3}, 0, &stats);
  EXPECT_EQ(stats.slices, 0u);
  EXPECT_EQ(stats.events, 0u);
}

// -- Raw SimNetwork units on the stepped path --------------------------------
//
// Each unit below puts at least two host partitions into the slice it
// tests, so the stepper forks, buffers and replays instead of falling back
// to the legacy dispatch, and compares what the handlers observed with the
// legacy loop (workers = 0). A log string is written by one host's handlers
// only, so concurrent partitions never share it.

/// 100 us within a host, 150 us across hosts, no bandwidth cost, no jitter.
net::SimNetworkOptions RawOptions(size_t workers) {
  net::SimNetworkOptions opts;
  opts.same_host_latency = 100;
  opts.inter_host_latency = 150;
  opts.bandwidth_bytes_per_sec = 0;
  opts.latency_jitter = 0;
  opts.worker_threads = workers;
  return opts;
}

net::MessageHandler Noop() {
  return [](const net::Endpoint&, net::MessageType,
            const std::vector<uint8_t>&) {};
}

/// A message from `e` to itself: lands one same-host latency later.
Status Poke(net::SimNetwork& net, const net::Endpoint& e) {
  return net.Send(e, e, net::MessageType::kWebQuery, {});
}

std::string At(const std::string& what, const net::SimNetwork& net) {
  return what + "@" + std::to_string(net.now()) + " ";
}

// A timer armed in one slice lands before the next queued slice. A and C
// both receive at t=100, so that slice steps; A's handler arms a 20 us timer
// (t=120) while B's delivery waits at t=150. The slice commits before the
// next one is popped, so the timer fires between them: A@100, timer@120,
// B@150, as in the legacy loop. (The suite keeps its name from the
// coalescing stepper, which had to refuse to merge such a pair.)
TEST(CoalescingTest, InteractingSlicePairDoesNotCoalesce) {
  auto run = [](size_t workers, net::ParallelStats* stats_out) {
    net::SimNetwork net(RawOptions(workers));
    std::string log;  // hosts a and b; b runs alone at t=150
    const net::Endpoint a{"a", 1};
    const net::Endpoint b{"b", 1};
    const net::Endpoint c{"c", 1};
    EXPECT_TRUE(net.Listen(a, [&](const net::Endpoint&, net::MessageType,
                                  const std::vector<uint8_t>&) {
                    log += At("A", net);
                    net.ScheduleAfter(20, [&] { log += At("timer", net); });
                  }).ok());
    EXPECT_TRUE(net.Listen(b, [&](const net::Endpoint&, net::MessageType,
                                  const std::vector<uint8_t>&) {
                    log += At("B", net);
                  }).ok());
    EXPECT_TRUE(net.Listen(c, Noop()).ok());
    EXPECT_TRUE(Poke(net, a).ok());  // t=100
    EXPECT_TRUE(Poke(net, c).ok());  // t=100
    EXPECT_TRUE(net.Send(a, b, net::MessageType::kWebQuery, {}).ok());  // 150
    net.RunUntilIdle();
    if (stats_out != nullptr) *stats_out = net.parallel_stats();
    return log;
  };

  const std::string legacy = run(0, nullptr);
  EXPECT_EQ(legacy, "A@100 timer@120 B@150 ");
  for (size_t workers : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    net::ParallelStats stats;
    EXPECT_EQ(run(workers, &stats), legacy);
    EXPECT_EQ(stats.parallel_slices, 1u);  // t=100 stepped; 120 and 150 alone
    EXPECT_EQ(stats.serial_slices, 2u);
  }
}

// Serial fallback observability: a single-partition workload (everything on
// one host) never has two partitions in a slice, so the stepper routes its
// slices through the legacy serial dispatch and says so in the stats.
TEST(CoalescingTest, SerialFallbackCountsSubThresholdSlices) {
  net::SimNetworkOptions opts;
  opts.same_host_latency = 100;
  opts.bandwidth_bytes_per_sec = 0;
  opts.latency_jitter = 0;
  opts.worker_threads = 2;
  net::SimNetwork net(opts);
  const net::Endpoint a{"a", 1};
  int received = 0;
  EXPECT_TRUE(net.Listen(a, [&](const net::Endpoint&, net::MessageType,
                                const std::vector<uint8_t>&) {
                  ++received;
                }).ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(net.Send(a, a, net::MessageType::kWebQuery, {}).ok());
  }
  net.RunUntilIdle();
  EXPECT_EQ(received, 3);
  const net::ParallelStats& stats = net.parallel_stats();
  EXPECT_GT(stats.slices, 0u);
  EXPECT_EQ(stats.serial_slices, stats.slices);
  EXPECT_EQ(stats.serial_events, stats.events);
  EXPECT_EQ(stats.parallel_slices, 0u);
}

// A timer fires, then a later event of the same partition cancels it: the
// legacy loop has already retired it, so CancelTimer returns false. At t=100
// A arms a 100 us timer and pokes itself, both landing at t=200 with the
// timer first; C pokes itself too, so both slices step.
TEST(SliceStepTest, CancellingATimerThatFiredEarlierInTheSliceFails) {
  auto run = [](size_t workers, net::ParallelStats* stats_out) {
    net::SimNetwork net(RawOptions(workers));
    const net::Endpoint a{"a", 1};
    const net::Endpoint c{"c", 1};
    std::string log;  // host a only
    uint64_t timer = 0;
    int a_received = 0;
    int c_received = 0;
    EXPECT_TRUE(net.Listen(a, [&](const net::Endpoint&, net::MessageType,
                                  const std::vector<uint8_t>&) {
                    if (++a_received == 1) {
                      timer = net.ScheduleAfter(
                          100, [&] { log += At("fired", net); });
                      EXPECT_TRUE(Poke(net, a).ok());
                      return;
                    }
                    log += At(net.CancelTimer(timer) ? "cancel=true"
                                                     : "cancel=false",
                              net);
                  }).ok());
    EXPECT_TRUE(net.Listen(c, [&](const net::Endpoint&, net::MessageType,
                                  const std::vector<uint8_t>&) {
                    if (++c_received == 1) {
                      EXPECT_TRUE(Poke(net, c).ok());
                    }
                  }).ok());
    EXPECT_TRUE(Poke(net, a).ok());
    EXPECT_TRUE(Poke(net, c).ok());
    net.RunUntilIdle();
    if (stats_out != nullptr) *stats_out = net.parallel_stats();
    return log;
  };

  const std::string legacy = run(0, nullptr);
  EXPECT_EQ(legacy, "fired@200 cancel=false@200 ");
  for (size_t workers : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    net::ParallelStats stats;
    EXPECT_EQ(run(workers, &stats), legacy);
    EXPECT_EQ(stats.parallel_slices, 2u);
  }
}

// A partition sees its own CloseListener at once. At t=100 host a receives
// three deliveries and host c one: the first closes a:1, the second (also
// to a:1) is dropped, and a:2's handler then sends to a:1 and is refused —
// as in the legacy loop.
TEST(SliceStepTest, OwnCloseIsSeenByTheRestOfThePartition) {
  auto run = [](size_t workers, net::ParallelStats* stats_out) {
    net::SimNetwork net(RawOptions(workers));
    const net::Endpoint a1{"a", 1};
    const net::Endpoint a2{"a", 2};
    const net::Endpoint c{"c", 1};
    std::string log;  // host a only
    EXPECT_TRUE(net.Listen(a1, [&](const net::Endpoint&, net::MessageType,
                                   const std::vector<uint8_t>&) {
                    log += "closed ";
                    net.CloseListener(a1);
                  }).ok());
    EXPECT_TRUE(net.Listen(a2, [&](const net::Endpoint&, net::MessageType,
                                   const std::vector<uint8_t>&) {
                    const Status sent =
                        net.Send(a2, a1, net::MessageType::kWebQuery, {});
                    log += sent.code() == StatusCode::kConnectionRefused
                               ? "refused "
                               : "sent ";
                  }).ok());
    EXPECT_TRUE(net.Listen(c, Noop()).ok());
    EXPECT_TRUE(Poke(net, a1).ok());
    EXPECT_TRUE(Poke(net, a1).ok());
    EXPECT_TRUE(Poke(net, a2).ok());
    EXPECT_TRUE(Poke(net, c).ok());
    net.RunUntilIdle();
    if (stats_out != nullptr) *stats_out = net.parallel_stats();
    return log + StringPrintf(
                     "delivered=%llu dropped=%llu refused=%llu",
                     (unsigned long long)net.delivered_count(),
                     (unsigned long long)net.dropped_count(),
                     (unsigned long long)net.connection_refused_count());
  };

  const std::string legacy = run(0, nullptr);
  EXPECT_EQ(legacy, "closed refused delivered=4 dropped=1 refused=1");
  for (size_t workers : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    net::ParallelStats stats;
    EXPECT_EQ(run(workers, &stats), legacy);
    EXPECT_EQ(stats.parallel_slices, 1u);
  }
}

// The barrier replays buffered sends in the order the legacy loop issued
// them, interleaving partitions. At t=100 host a receives two deliveries
// (sequence 0 and 2) and host b one (sequence 1); each handler sends to c,
// and the three messages reach c at the same virtual time, so c sees them
// in issue order: a, b, a.
TEST(SliceStepTest, ReplayInterleavesPartitionsInIssueOrder) {
  auto run = [](size_t workers, net::ParallelStats* stats_out) {
    net::SimNetwork net(RawOptions(workers));
    const net::Endpoint a{"a", 1};
    const net::Endpoint b{"b", 1};
    const net::Endpoint c{"c", 1};
    std::string log;  // host c only
    const auto forward = [&](const net::Endpoint& self) {
      return [&net, self, c](const net::Endpoint&, net::MessageType,
                             const std::vector<uint8_t>&) {
        EXPECT_TRUE(net.Send(self, c, net::MessageType::kWebQuery,
                             {static_cast<uint8_t>(self.host[0])})
                        .ok());
      };
    };
    EXPECT_TRUE(net.Listen(a, forward(a)).ok());
    EXPECT_TRUE(net.Listen(b, forward(b)).ok());
    EXPECT_TRUE(net.Listen(c, [&](const net::Endpoint&, net::MessageType,
                                  const std::vector<uint8_t>& payload) {
                    log += At(std::string(1, static_cast<char>(payload[0])),
                              net);
                  }).ok());
    EXPECT_TRUE(Poke(net, a).ok());
    EXPECT_TRUE(Poke(net, b).ok());
    EXPECT_TRUE(Poke(net, a).ok());
    net.RunUntilIdle();
    if (stats_out != nullptr) *stats_out = net.parallel_stats();
    return log;
  };

  const std::string legacy = run(0, nullptr);
  EXPECT_EQ(legacy, "a@250 b@250 a@250 ");
  for (size_t workers : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    net::ParallelStats stats;
    EXPECT_EQ(run(workers, &stats), legacy);
    EXPECT_EQ(stats.parallel_slices, 1u);
  }
}

// -- What the stepper refuses to run -----------------------------------------

/// Runs one stepped slice at t=100 with deliveries to a:1 (first, running
/// `a_handler`) and c:1.
void RunSteppedSlice(size_t workers,
                     const std::function<void(net::SimNetwork&)>& a_handler) {
  net::SimNetwork net(RawOptions(workers));
  const net::Endpoint a{"a", 1};
  const net::Endpoint c{"c", 1};
  EXPECT_TRUE(net.Listen(a, [&](const net::Endpoint&, net::MessageType,
                                const std::vector<uint8_t>&) {
                  a_handler(net);
                }).ok());
  EXPECT_TRUE(net.Listen(c, Noop()).ok());
  EXPECT_TRUE(Poke(net, a).ok());
  EXPECT_TRUE(Poke(net, c).ok());
  net.RunUntilIdle();
}

// Other partitions resolve refusals against the slice-start listener table,
// so a listener bound inside a stepped slice would be refused there and
// accepted by the legacy loop.
TEST(SliceStepDeathTest, ListenInsideASteppedSliceDies) {
  const auto bind = [](net::SimNetwork& net) {
    EXPECT_TRUE(net.Listen(net::Endpoint{"a", 5}, Noop()).ok());
  };
  RunSteppedSlice(0, bind);  // the legacy loop binds it
  EXPECT_DEATH(RunSteppedSlice(2, bind),
               "Listen\\(a:5\\) inside a stepped slice");
}

// A close of another host's endpoint would race that host's own partition.
TEST(SliceStepDeathTest, ClosingAnotherHostsEndpointDies) {
  const auto close_c = [](net::SimNetwork& net) {
    net.CloseListener(net::Endpoint{"c", 1});
  };
  RunSteppedSlice(0, close_c);
  EXPECT_DEATH(RunSteppedSlice(2, close_c),
               "CloseListener\\(c:1\\) from host a inside a stepped slice");
}

// The close race: the user site's handler closes its result socket, and a
// server on another host reports to it later in the same slice's sequence
// order. The legacy loop refuses that report (and the server then
// terminates the query passively, §2.8); a stepped partition resolved it
// against the slice-start table and accepted it. The barrier stops the run
// instead of letting the two runs diverge.
TEST(SliceStepDeathTest, SendToAnEndpointClosedEarlierInTheSliceDies) {
  const net::Endpoint user{"user.site", 9000};
  const net::Endpoint site{"site3.example", 7000};
  auto run = [&](size_t workers) {
    net::SimNetwork net(RawOptions(workers));
    EXPECT_TRUE(net.Listen(user, [&](const net::Endpoint&, net::MessageType,
                                     const std::vector<uint8_t>&) {
                    net.CloseListener(user);
                  }).ok());
    EXPECT_TRUE(net.Listen(site, [&](const net::Endpoint&, net::MessageType,
                                     const std::vector<uint8_t>&) {
                    // Refused under the legacy loop; the counter says so.
                    (void)net.Send(site, user, net::MessageType::kReport, {});
                  }).ok());
    EXPECT_TRUE(Poke(net, user).ok());  // the close runs first
    EXPECT_TRUE(Poke(net, site).ok());
    net.RunUntilIdle();
    return StringPrintf("refused=%llu dropped=%llu",
                        (unsigned long long)net.connection_refused_count(),
                        (unsigned long long)net.dropped_count());
  };

  EXPECT_EQ(run(0), "refused=1 dropped=0");
  for (size_t workers : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    EXPECT_DEATH((void)run(workers),
                 "site3.example:7000 sent to user.site:9000, closed earlier "
                 "in the same slice");
  }
}

// row_limit's early stop is exactly that race inside the engine: the user
// site closes a live query's result socket from a report handler. The
// engine refuses the combination up front.
TEST(SliceStepDeathTest, EngineRefusesRowLimitWithWorkers) {
  web::SynthWebOptions web_options;
  web_options.num_sites = 2;
  web_options.docs_per_site = 2;
  const web::WebGraph web = web::GenerateSynthWeb(web_options);
  core::EngineOptions options;
  options.client.row_limit = 1;
  { core::Engine sequential(&web, options); }  // workers = 0 is accepted
  options.network.worker_threads = 2;
  EXPECT_DEATH({ core::Engine engine(&web, options); },
               "row_limit requires the sequential stepper");
}

}  // namespace
}  // namespace webdis
