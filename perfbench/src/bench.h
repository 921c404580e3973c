// Shared declarations of the WEBDIS benchmark harness: workload definitions,
// the deployment the harness runs them on, and the per-query records the
// metrics, the answer check and the fixed-work digest are computed from.
#ifndef WEBDIS_PERFBENCH_BENCH_H_
#define WEBDIS_PERFBENCH_BENCH_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "client/user_site.h"
#include "core/engine.h"
#include "net/sim.h"
#include "probe.h"
#include "web/graph.h"

namespace webdis::perfbench {

/// A generated web plus whatever ground truth its generator planted.
struct WebInputs {
  web::WebGraph graph;
  /// (document url, convener name) pairs planted by GenerateUniversityWeb;
  /// empty for synthetic webs.
  std::vector<std::pair<std::string, std::string>> conveners;
};

/// One workload: its inputs (all derived from the seed), its deployment
/// options and its load model.
struct Workload {
  std::string name;
  uint64_t seed = 0;
  /// Users per round; each submits one query per round (closed loop).
  int users = 0;
  /// Rounds measured per second of --seconds: the run's work is fixed by
  /// (workload, seconds) alone, never by elapsed time.
  double rounds_per_second = 1.0;
  /// Web and deployment rebuilt before every round (cold working set).
  bool rebuild_each_round = false;
  /// Rounds run after set-up and before timing (long-lived deployments).
  int warmup_rounds = 0;
  /// Long-lived workloads set up this many times; setup_s is the median.
  int setup_repeats = 1;
  core::EngineOptions options;
  /// Seeded message loss (lossy_overload); none when drop_prob is 0.
  double drop_prob = 0.0;
  uint64_t fault_seed = 0;

  WebInputs (*build_web)(uint64_t seed) = nullptr;
  /// The DISQL text each user submits in round `round` (warm-up rounds are
  /// negative).
  std::vector<std::string> (*round_queries)(const Workload& w,
                                            int round) = nullptr;
  /// True when an answer the engine names degraded is an allowed failure
  /// (lossy_overload); elsewhere every answer must be exact.
  bool degradation_expected = false;
};

Workload MakeWorkload(const std::string& name, uint64_t seed);
std::vector<std::string> WorkloadNames();

/// Everything the benchmark keeps about one completed query.
struct QueryRecord {
  std::string disql;
  bool completed = false;
  bool partial = false;
  bool budget_exhausted = false;
  size_t named_degraded = 0;  // unreachable hosts + budget-exceeded nodes
  std::set<std::string> rows;  // canonical result rows
  SimTime submit_time = 0;
  SimTime completion_time = 0;
  bool has_first_result = false;  // some report carried a row
  SimTime first_result_time = 0;
  uint64_t reports_received = 0;
  uint64_t result_rows_received = 0;
  uint64_t duplicate_rows_filtered = 0;

  bool degraded() const { return partial || budget_exhausted; }
};

/// Cumulative counters of a deployment (network, user site, and every
/// query server summed), snapshotted around the timed rounds.
enum Counter : int {
  kMessages,
  kBytes,
  kCloneMessages,  // kWebQuery + kCloneBatch
  kCloneBytes,
  kDelivered,
  kDropped,
  kRetries,  // at-least-once retransmissions, servers and user site
  kClonesReceived,
  kClonesForwarded,
  kClonesShed,
  kClonesEvicted,
  kBudgetExpired,
  kNodesProcessed,
  kDuplicatesDropped,
  kNodeQueriesEvaluated,
  kAnswersFound,
  kResultCacheHits,
  kResultCacheMisses,
  kCloneBatchesReceived,
  kReportBatchesSent,
  kWalRecords,
  kSnapshots,
  kNumCounters,
};

struct Counters {
  std::array<uint64_t, kNumCounters> v{};
  uint64_t queue_peak = 0;  // admission-queue high-water mark, any server

  uint64_t operator[](Counter c) const { return v[c]; }
};

/// Canonical rows of a result: "labels:value|value|..." per row.
std::set<std::string> CanonicalRows(
    const std::vector<relational::ResultSet>& results);

/// The deployment a workload runs on. EngineDeployment is core::Engine
/// itself (the measured run); TracedDeployment rebuilds the same deployment
/// from the engine's public classes over timing wrappers (the traced run).
class Deployment {
 public:
  virtual ~Deployment() = default;
  virtual Result<query::QueryId> Submit(const disql::CompiledQuery& compiled,
                                        const std::string& user) = 0;
  virtual void RunUntilIdle() = 0;
  /// Collects one query's outcome (inside the timed region).
  virtual QueryRecord Collect(const query::QueryId& id) = 0;
  virtual Counters Snapshot() = 0;
  virtual net::SimNetwork& network() = 0;
  virtual client::UserSite& user_site() = 0;
  /// First-row arrival times recorded by the report observer.
  std::map<std::string, SimTime>& first_rows() { return first_rows_; }

 protected:
  /// Installs the report observer that records first-row arrivals.
  void ObserveFirstRows();

 private:
  std::map<std::string, SimTime> first_rows_;
};

std::unique_ptr<Deployment> MakeEngineDeployment(const web::WebGraph* web,
                                                 const Workload& w);
std::unique_ptr<Deployment> MakeTracedDeployment(const web::WebGraph* web,
                                                 const Workload& w);

/// The engine behind an EngineDeployment (for the collect replay).
core::Engine* EngineOf(Deployment* deployment);

/// Per-call costs of the pure layer functions, replayed on payloads
/// captured during the traced run (microseconds; 0 when nothing to replay).
struct ReplayCosts {
  double materialize_us = 0;
  double parse_us = 0;
  double db_build_us = 0;
  double eval_us = 0;
  double derive_us = 0;
  double log_compare_us = 0;
  double clone_codec_us = 0;
  double report_codec_us = 0;
};

ReplayCosts Replay(const Workload& w, const std::vector<Capture>& clones,
                   const std::vector<Capture>& reports);

}  // namespace webdis::perfbench

#endif  // WEBDIS_PERFBENCH_BENCH_H_
