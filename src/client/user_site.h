#ifndef WEBDIS_CLIENT_USER_SITE_H_
#define WEBDIS_CLIENT_USER_SITE_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "client/cht.h"
#include "common/clock.h"
#include "common/status.h"
#include "disql/compiler.h"
#include "net/reliable.h"
#include "net/transport.h"
#include "query/report.h"

namespace webdis::client {

/// Configuration of the WEBDIS client process (Section 4.3).
struct UserSiteOptions {
  /// Mirror the log-table rules in the CHT (Section 3.1.1's modification).
  bool cht_dedup = true;
  /// Use the CHT protocol for completion detection. When false the client
  /// records arrival times only and the harness applies a timeout rule —
  /// the strawman Section 2.7 argues against.
  bool use_cht = true;
  /// Cancel() sends explicit kTerminate messages to every active CHT host
  /// instead of the paper's passive close-the-socket scheme (ablation).
  bool active_termination = false;
  /// Balance-counted completion (robust against message reordering; see
  /// CurrentHostsTable). Requires servers to report duplicate drops. False =
  /// the paper's original entry-matching rule.
  bool robust_completion = true;
  /// Ack-tree termination detection instead of the CHT — the Related Work
  /// [4] baseline: every clone acks its parent once its whole forwarding
  /// subtree has been processed; completion = all StartNode clones acked.
  /// Reports then carry results only (no CHT entries).
  bool ack_tree_termination = false;
  /// First result-socket port; each query gets the next port.
  uint16_t first_result_port = 9000;
  /// Close the result socket as soon as completion is detected (the normal
  /// behaviour). Harnesses that replay extra clones under a completed
  /// query's id (e.g. the T6 rewrite experiment) set this to false.
  bool close_socket_on_completion = true;
  /// Approximate queries (§7.1 future work): stop after this many unique
  /// result rows. The cancel rides on passive termination — the user site
  /// simply closes its socket and the distributed traversal dies out.
  /// 0 = exact (no limit).
  uint64_t row_limit = 0;
  /// At-least-once delivery for initial clone dispatch + receipt dedup of
  /// incoming reports. Must match the servers' setting (the envelope is not
  /// self-describing); the engine enforces this.
  net::RetryOptions retry;
  /// CHT deadline GC (PROTOCOL.md "Failure handling"): a CHT key with no
  /// add/delete activity for this long is declared unreachable — its host
  /// crashed or is partitioned away — and garbage-collected so the query
  /// still completes, flagged as a *partial* outcome naming the host.
  /// 0 = disabled. Needs a timer-capable transport and use_cht.
  SimDuration entry_deadline = 0;
  /// Per-query resource budget (PROTOCOL.md §7.1), stamped on every initial
  /// clone and enforced by every server the query visits. All 0 = no budget
  /// (the seed wire bytes then end in a zero flags byte).
  /// Relative deadline, converted to an absolute virtual time at Submit.
  SimDuration budget_deadline = 0;
  /// Maximum forward hops from a StartNode (0 = unlimited).
  uint32_t budget_max_hops = 0;
  /// Total clone dispatches allowed across the whole traversal, split
  /// between the initial per-site clones (which themselves ride free — the
  /// user chose the StartNodes). 0 = unlimited.
  uint64_t budget_max_clones = 0;
  /// Result-row cap per node visit (0 = unlimited). Unlike `row_limit`
  /// above — which stops the whole query once enough rows arrived — this
  /// degrades each visit individually and the traversal continues.
  uint64_t budget_max_rows_per_visit = 0;
  /// §10.1 epoch pinning: when set, Submit stamps the current web epoch on
  /// every initial clone (budget.pinned_epoch) so servers hide documents
  /// spawned after submission. Wired to WebGraph::epoch by the engine when
  /// a mutation plan is installed; nullptr = no pin (frozen-web behavior,
  /// wire bytes unchanged).
  std::function<uint64_t()> epoch_source;
};

/// Per-query client-side statistics: one field per line of
/// client/query_run_counters.def, in that order.
struct QueryRunStats {
#define WEBDIS_CLIENT_COUNTER(name) uint64_t name = 0;
#include "client/query_run_counters.def"

  /// Human-readable dump of the non-zero counters, one `name: value` per
  /// line — degradation should be observable, not just counted.
  std::string ToText() const;
};

/// Calls fn(name, value) for every counter of `stats` in declaration
/// order; `value` refers to the field (writable when `stats` is).
template <typename Stats, typename Fn>
  requires std::is_same_v<std::remove_const_t<Stats>, QueryRunStats>
void ForEachCounter(Stats& stats, Fn&& fn) {
#define WEBDIS_CLIENT_COUNTER(name) fn(#name, stats.name);
#include "client/query_run_counters.def"
}

/// The WEBDIS client process at the user site: parses nothing itself (takes
/// a CompiledQuery), opens the listening result socket, dispatches the query
/// to the StartNode sites (Figure 2 send_query), collects results, maintains
/// the CHT (Figure 2 receive_results), detects completion, and supports both
/// passive (Section 2.8) and active termination.
class UserSite {
 public:
  /// `transport` must outlive the user site.
  UserSite(std::string host, net::Transport* transport,
           UserSiteOptions options = UserSiteOptions());

  /// Virtual-clock source for timestamps (wired to SimNetwork::now by the
  /// engine); defaults to a constant 0.
  void SetClock(std::function<SimTime()> clock) { clock_ = std::move(clock); }

  /// §10.1: late-binds the epoch source (see UserSiteOptions::epoch_source).
  /// The engine calls this when a mutation plan is installed after
  /// construction; affects queries submitted from then on.
  void SetEpochSource(std::function<uint64_t()> source) {
    options_.epoch_source = std::move(source);
  }

  /// Everything the client knows about one submitted query.
  struct QueryRun {
    query::QueryId id;
    disql::CompiledQuery compiled;
    CurrentHostsTable cht;
    /// Result sets merged by column-label signature, duplicates filtered.
    std::vector<relational::ResultSet> results;
    bool completed = false;
    bool cancelled = false;
    /// Set when the row_limit cut the query short (approximate answer).
    bool truncated = false;
    /// Set when deadline GC gave up on unreachable hosts: the query reached
    /// completion but the answer may miss rows those hosts held.
    bool partial = false;
    /// Hosts whose CHT entries were garbage-collected (deduplicated).
    std::vector<std::string> unreachable_hosts;
    /// Set when any visit was cut short by the per-query budget or shed by
    /// admission control — the answer is explicitly partial (PROTOCOL.md
    /// §7.1), in contrast to a silent stall.
    bool budget_exhausted = false;
    /// Nodes named in budget-exceeded reports (deduplicated).
    std::vector<std::string> budget_exceeded_nodes;
    /// §10.2: hosts whose query server answered site-retired mid-run
    /// (deduplicated) — a *named* degraded outcome, distinct from the
    /// unreachable (crash/partition) list above.
    std::vector<std::string> retired_sites;
    /// §10.3: nodes hidden from this run by its epoch pin (deduplicated).
    std::vector<std::string> epoch_gated_nodes;
    /// §10.1: document version each evaluated node's report was stamped
    /// with (node url -> version; stamp 0 reports are not recorded). The
    /// engine classifies these fresh / stale-consistent / superseded
    /// against the web at completion time.
    std::map<std::string, uint64_t> node_versions;
    /// §10.1: the epoch pinned at Submit (0 = unpinned).
    uint64_t pinned_epoch = 0;
    /// Pending deadline-sweep timer id (0 = none armed).
    uint64_t sweep_timer = 0;
    /// Result socket closed (completion/cancel/timeout). Individual sends
    /// to this query are refused by the transport; a batch member riding a
    /// peer's carrier socket bypasses that refusal, so the demux consults
    /// this flag to apply the same passive-termination drop (§9.3).
    bool socket_closed = false;
    SimTime submit_time = 0;
    SimTime completion_time = 0;
    SimTime last_report_time = 0;
    QueryRunStats stats;
    /// Nodes whose clones could not be delivered (non-participating sites);
    /// state captured for centralized fallback processing.
    std::vector<query::ChtEntry> fallback_nodes;
    /// Ack-tree mode: tokens of StartNode clones not yet acked.
    std::set<uint64_t> outstanding_root_acks;
    /// Row filter: the relational::RowIdentity key of every row merged so
    /// far. Freed with the run.
    std::set<std::string> seen_rows;
    /// Report-transfer receipts of this run's result socket. A sender
    /// retransmits to the socket it first sent to, so the run's own history
    /// suppresses every replay it can receive; freed with the run, whose
    /// closed socket refuses later copies.
    net::ReliableReceiver receiver;

    QueryRun(bool cht_dedup, bool robust, net::ReliableReceiver receiver)
        : cht(cht_dedup, robust), receiver(std::move(receiver)) {}
  };

  /// Submits a compiled query on behalf of `user`: opens the result socket,
  /// enters the StartNodes into the CHT, and dispatches the initial clones
  /// (batched per StartNode site). Returns the query id. A StartNode URL
  /// that does not parse fails the call before any run or socket exists.
  Result<query::QueryId> Submit(const disql::CompiledQuery& compiled,
                                const std::string& user);

  /// Lookup; nullptr if unknown or forgotten.
  const QueryRun* Find(const query::QueryId& id) const;

  /// Frees a run: its CHT, results, row filter, report receipts and stats.
  /// A run whose result socket is still open is first terminated passively
  /// (§2.8): its deadline sweep is cancelled and its socket closed, so later
  /// reports to it are refused and the servers purge the query. Batched report
  /// members for a forgotten run are dropped at demux time. Unknown ids
  /// are ignored; pointers from Find(id) dangle afterwards. Call it between
  /// event-loop runs, as Engine::CollectOutcome does: the run's handlers
  /// hold a pointer to it.
  void Forget(const query::QueryId& id);

  /// Runs held: submitted and not yet forgotten.
  size_t run_count() const { return runs_.size(); }

  bool IsComplete(const query::QueryId& id) const;

  /// Cancels an ongoing query: passive mode closes the result socket (later
  /// result dispatches get connection-refused and servers purge locally);
  /// active mode additionally sends kTerminate to every active CHT host.
  void Cancel(const query::QueryId& id);

  /// Timeout-completion harness hook: marks the query complete with
  /// completion_time = last_report_time + timeout (only meaningful when
  /// use_cht is false, after the network has gone idle).
  void FinishWithTimeout(const query::QueryId& id, SimDuration timeout);

  /// Graceful recovery from node failures (§7.1 future work): gives up on
  /// every CHT entry still outstanding (e.g. held by crashed sites), moving
  /// them to the fallback list for centralized processing, and marks the
  /// query complete. Returns how many entries were abandoned.
  size_t AbandonStalled(const query::QueryId& id);

  /// §10.4 oracle hook: observes every accepted NodeReport (after receipt
  /// dedup, before CHT/merge bookkeeping). The churn oracle re-evaluates
  /// each report's rows against the historical document at its stamped
  /// version — the exact-for-its-version invariant.
  using ReportObserver = std::function<void(const query::QueryId& id,
                                            const query::NodeReport& report)>;
  void SetReportObserver(ReportObserver observer) {
    report_observer_ = std::move(observer);
  }

  const UserSiteOptions& options() const { return options_; }
  const std::string& host() const { return host_; }
  /// Client-side at-least-once delivery counters (initial clone dispatch).
  const net::RetryStats& retry_stats() const { return sender_.stats(); }

 private:
  void OnMessage(QueryRun* run, const net::Endpoint& from,
                 net::MessageType type, const std::vector<uint8_t>& payload);
  void HandleReport(QueryRun* run, const query::QueryReport& report);
  void MergeResults(QueryRun* run, const relational::ResultSet& rs);
  void MaybeComplete(QueryRun* run);
  void CloseResultSocket(QueryRun* run);
  /// Deadline GC: expires idle outstanding CHT keys, records their hosts as
  /// unreachable, and re-arms itself while the run is incomplete.
  void SweepDeadlines(QueryRun* run);
  void ScheduleSweep(QueryRun* run);
  void CancelSweep(QueryRun* run);

  // Endpoint confinement (DESIGN.md "Parallel execution"): all of the user
  // site's listeners — every per-query result socket — live on the single
  // client host, so the parallel stepper keeps them in one slice partition
  // and their handlers (and timer callbacks) run sequentially even at
  // worker_threads > 1. Fields below are confined to that partition; the
  // tools/webdis_lint.py confinement rule requires any new mutable field to
  // be WEBDIS_GUARDED_BY a mutex or audited into its allowlist.
  std::string host_;
  net::Transport* transport_;
  UserSiteOptions options_;
  net::ReliableSender sender_;
  std::function<SimTime()> clock_;
  uint16_t next_port_;
  uint32_t next_query_number_ = 1;
  std::map<std::string, std::unique_ptr<QueryRun>> runs_;  // by QueryId::Key
  ReportObserver report_observer_;
};

}  // namespace webdis::client

#endif  // WEBDIS_CLIENT_USER_SITE_H_
