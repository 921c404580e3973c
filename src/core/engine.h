#ifndef WEBDIS_CORE_ENGINE_H_
#define WEBDIS_CORE_ENGINE_H_

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baseline/data_shipping.h"
#include "client/user_site.h"
#include "common/status.h"
#include "disql/compiler.h"
#include "net/reliable.h"
#include "net/sim.h"
#include "server/http_server.h"
#include "server/query_server.h"
#include "web/graph.h"
#include "web/mutation.h"

namespace webdis::core {

/// End-to-end configuration of a simulated WEBDIS deployment.
struct EngineOptions {
  net::SimNetworkOptions network;
  server::QueryServerOptions server;
  client::UserSiteOptions client;
  /// Per-host overrides of `server` (e.g. a tight admission queue on one
  /// hot site while the rest of the federation runs the defaults).
  std::map<std::string, server::QueryServerOptions> server_overrides;
  /// Fraction of web hosts that run a WEBDIS query server (1.0 = every
  /// host participates; lower values exercise the §7.1 migration path).
  double participation_fraction = 1.0;
  uint64_t participation_seed = 1;
  /// Hosts that run a query server regardless of the sampled fraction
  /// (e.g. the StartNode site, which a user would naturally pick from the
  /// participating federation).
  std::vector<std::string> forced_participants;
  /// Centrally process clones that could not be delivered to
  /// non-participating sites, via the data-shipping fallback.
  bool fallback_processing = true;
  /// Storage fault injection for the durability layer (PROTOCOL.md §8).
  /// When a host's effective server options have `persist.enabled`, the
  /// engine gives that server its own deterministic MemoryPersistBackend,
  /// seeded per-host from `persist_faults.seed`, applying these torn-write /
  /// short-read rules at crash and load time.
  server::PersistFaultRules persist_faults;
  /// Timeout used when client.use_cht is false (the strawman completion
  /// rule of Section 2.7).
  SimDuration completion_timeout = 10 * kSecond;
};

/// Aggregated network traffic for one run (deltas over the run).
struct TrafficSummary {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t inter_host_messages = 0;
  uint64_t inter_host_bytes = 0;
  uint64_t query_messages = 0;
  uint64_t query_bytes = 0;
  uint64_t report_messages = 0;
  uint64_t report_bytes = 0;
  uint64_t fetch_messages = 0;
  uint64_t fetch_bytes = 0;
  uint64_t terminate_messages = 0;
  uint64_t connection_refused = 0;
};

/// Everything measured about one query run.
struct RunOutcome {
  query::QueryId id;
  bool completed = false;
  /// Completion was reached by deadline GC rather than a settled CHT: some
  /// hosts were unreachable and the answer may be missing their rows.
  bool partial = false;
  std::vector<std::string> unreachable_hosts;
  /// Some visits were shed, expired, vetoed or truncated by the per-query
  /// budget / admission control (PROTOCOL.md §7): the answer is explicitly
  /// degraded and `budget_exceeded_nodes` names where.
  bool budget_exhausted = false;
  std::vector<std::string> budget_exceeded_nodes;
  std::vector<relational::ResultSet> results;
  SimTime submit_time = 0;
  SimTime completion_time = 0;     // when the user site *knew* it was done
  SimTime last_report_time = 0;    // when the last result actually arrived
  client::QueryRunStats client_stats;
  server::QueryServerStats server_stats;  // MergeServerStats of all servers
  size_t cht_total_entries = 0;
  size_t cht_max_active = 0;
  uint64_t cht_suppressed = 0;
  uint64_t cht_unmatched_deletes = 0;
  size_t fallback_node_count = 0;
  baseline::DataShippingOutcome fallback;  // §7.1 centralized continuation
  /// §10 dynamic-web outcome. `pinned_epoch` is the web epoch the query was
  /// submitted under (0 = unpinned / frozen web). `node_versions` maps each
  /// evaluated node to the document version its report was stamped with;
  /// the classification below compares those stamps against the web at
  /// collection time:
  ///   fresh            — current version == stamped version
  ///   stale-consistent — document still exists but was edited after the
  ///                      visit (the answer is exact for its stamped
  ///                      version, just not for the latest one)
  ///   superseded       — document (or its whole site) is gone
  /// A mutated web therefore yields an explicitly qualified answer, never a
  /// silent torn read.
  uint64_t pinned_epoch = 0;
  std::map<std::string, uint64_t> node_versions;
  size_t fresh_nodes = 0;
  size_t stale_consistent_nodes = 0;
  size_t superseded_nodes = 0;
  std::vector<std::string> stale_node_urls;
  std::vector<std::string> superseded_node_urls;
  /// Hosts that answered SiteRetired mid-run (named degraded outcome,
  /// distinct from unreachable_hosts).
  std::vector<std::string> retired_sites;
  /// Nodes hidden from this run by its epoch pin.
  std::vector<std::string> epoch_gated_nodes;
  /// Client-side at-least-once delivery counters (initial dispatch).
  net::RetryStats client_retry;
  TrafficSummary traffic;
  /// Stepper configuration and concurrency counters (workers == 0 means the
  /// run used the legacy single-threaded event loop).
  size_t workers = 0;
  net::ParallelStats parallel;

  /// Total rows across all result sets.
  size_t TotalRows() const;
};

/// Renders result sets as aligned text tables (the Figure 8 display).
std::string FormatResults(const std::vector<relational::ResultSet>& results);

/// Renders one run's degradation-relevant counters — client-side stats plus
/// the aggregated server-side send-error / shed / breaker / budget counters
/// — as `name: value` lines (zero counters omitted). The observability
/// companion to the partial-outcome flags.
std::string FormatRunStats(const RunOutcome& outcome);

/// A complete single-process WEBDIS deployment over the simulated network:
/// one HttpServer per web host, one QueryServer per *participating* host,
/// and a UserSite on a dedicated client host. Run() submits a DISQL query,
/// drives the network to quiescence, applies the configured completion rule
/// and optional centralized fallback, and returns results + full metrics.
class Engine {
 public:
  /// `web` must outlive the engine.
  Engine(const web::WebGraph* web, EngineOptions options = EngineOptions());
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Parses, compiles, submits, and runs a DISQL query to completion.
  Result<RunOutcome> Run(const std::string& disql,
                         const std::string& user = "user");

  /// Same, for an already-compiled query.
  Result<RunOutcome> RunCompiled(const disql::CompiledQuery& compiled,
                                 const std::string& user = "user");

  // -- Orchestration access (tests and benchmarks drive partial runs) ------
  net::SimNetwork& network() { return *network_; }
  client::UserSite& user_site() { return *user_site_; }
  /// nullptr if the host does not participate.
  server::QueryServer* server_for(const std::string& host);
  /// The host's storage backend; nullptr unless its effective server
  /// options enabled persistence. Tests use this to inspect snapshots and
  /// WAL bytes directly.
  server::MemoryPersistBackend* persist_backend_for(const std::string& host);
  const std::vector<std::string>& participating_hosts() const {
    return participating_hosts_;
  }
  /// Installs a visit observer on every query server.
  void ObserveVisits(server::QueryServer::VisitObserver observer);

  /// §10: attaches a seeded mutation plan over a mutable view of the
  /// engine's web. Schedules one network timer per distinct pending
  /// mutation time; each firing applies the due batch and orchestrates the
  /// deployment to match — a spawned host gets an HttpServer plus a
  /// participating QueryServer (reachable to queries pinned at or after the
  /// spawn epoch), a retired host gets QueryServer::Retire() and its HTTP
  /// server stopped. Also wires the client's epoch source to `web->epoch`
  /// so every subsequent Submit pins the then-current epoch.
  ///
  /// `web` must be the same graph the engine was constructed over (the
  /// const view the servers read through). Requires worker_threads == 0:
  /// mutations touch shared WebGraph state outside the parallel stepper's
  /// endpoint confinement. `plan` must outlive the engine.
  void InstallMutationPlan(web::WebGraph* web, web::MutationPlan* plan);

  /// Hosts spawned / retired by the installed mutation plan so far.
  const std::vector<std::string>& spawned_hosts() const {
    return spawned_hosts_;
  }
  const std::vector<std::string>& churn_retired_hosts() const {
    return churn_retired_hosts_;
  }

  /// Submits without driving the network (for step-wise orchestration).
  Result<query::QueryId> Submit(const disql::CompiledQuery& compiled,
                                const std::string& user = "user");

  /// Collects the outcome for a query after the caller drove the network.
  /// The engine keeps the kCollectWindow most recently collected runs and
  /// forgets older ones (UserSite::Forget), so an id stays valid here until
  /// kCollectWindow other ids have been collected after it; collecting a
  /// forgotten id is a CHECK failure. Collecting a retained id again
  /// neither evicts nor reorders anything. Call between event-loop runs.
  RunOutcome CollectOutcome(const query::QueryId& id,
                            const TrafficSummary& baseline_traffic);
  static constexpr size_t kCollectWindow = 256;

  /// Snapshot of cumulative traffic (subtract snapshots for deltas).
  TrafficSummary TrafficSnapshot() const;

  server::QueryServerStats AggregateServerStats() const;

  static constexpr const char* kClientHost = "user.site";

 private:
  /// Creates, starts and registers a participating QueryServer on `host`
  /// (with its per-host persistence backend when enabled). Shared between
  /// construction and mid-run site spawns.
  void AddParticipant(const std::string& host,
                      const server::QueryServerOptions& server_options);
  /// Timer callback: applies due mutations and reconciles the deployment.
  void ApplyDueMutations();

  const web::WebGraph* web_;
  EngineOptions options_;
  std::unique_ptr<net::SimNetwork> network_;
  std::map<std::string, std::unique_ptr<server::HttpServer>> http_servers_;
  std::map<std::string, std::unique_ptr<server::QueryServer>> query_servers_;
  std::map<std::string, std::unique_ptr<server::MemoryPersistBackend>>
      persist_backends_;
  std::vector<std::string> participating_hosts_;
  std::unique_ptr<client::UserSite> user_site_;
  /// The retained collected runs, oldest first, and their QueryId keys.
  std::deque<query::QueryId> collected_;
  std::set<std::string> collected_keys_;
  /// §10 churn state (set by InstallMutationPlan; null on frozen webs).
  web::WebGraph* mutable_web_ = nullptr;
  web::MutationPlan* mutation_plan_ = nullptr;
  std::vector<std::string> spawned_hosts_;
  std::vector<std::string> churn_retired_hosts_;
};

/// Runs the same compiled query through the data-shipping baseline on a
/// fresh deployment of the same web (HTTP servers only), returning the
/// baseline outcome plus its traffic summary. The comparator for T1.
struct BaselineRun {
  baseline::DataShippingOutcome outcome;
  TrafficSummary traffic;
};
Result<BaselineRun> RunDataShippingBaseline(
    const web::WebGraph& web, const disql::CompiledQuery& compiled,
    net::SimNetworkOptions network_options = net::SimNetworkOptions(),
    baseline::DataShippingOptions options = baseline::DataShippingOptions());

}  // namespace webdis::core

#endif  // WEBDIS_CORE_ENGINE_H_
