#ifndef WEBDIS_SERVER_QUERY_SERVER_H_
#define WEBDIS_SERVER_QUERY_SERVER_H_

#include <deque>
#include <functional>
#include <list>
#include <map>
#include <set>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "net/breaker.h"
#include "net/reliable.h"
#include "net/transport.h"
#include "query/report.h"
#include "query/web_query.h"
#include "relational/eval.h"
#include "relational/table.h"
#include "server/db_constructor.h"
#include "server/http_server.h"
#include "server/log_table.h"
#include "server/persist.h"
#include "web/graph.h"

namespace webdis::server {

/// Admission control (PROTOCOL.md §7.2): a bounded pending-clone queue in
/// front of clone processing. Off by default — the seed processes clones
/// inline on arrival.
struct AdmissionOptions {
  /// Maximum clones queued awaiting processing. 0 = admission control off
  /// (inline processing, the seed behavior).
  size_t max_pending = 0;
  /// Per-unit service interval: the queue drains one unit per interval
  /// through the transport's timer queue, which is what makes a server
  /// saturable in the first place (and deterministic under SimNetwork).
  /// Admission control requires a transport with timers.
  SimDuration service_time = 0;
};

/// Feature toggles of the WEBDIS query server. Defaults are the paper's
/// design; each toggle ablates one optimization for the benchmarks.
struct QueryServerOptions {
  /// Node-query Log Table duplicate suppression (Section 3.1).
  bool dedup_enabled = true;
  /// Report duplicate drops to the user site so CHT completion detection is
  /// robust under arbitrary message interleavings (extension; see
  /// DESIGN.md §5 — the paper's CHT-side suppression alone can hang).
  /// Note this only fixes *reordering* hangs: if the duplicate-drop report
  /// itself is lost in flight, the CHT balance for that clone never settles
  /// and completion hangs anyway. Closing that hole needs at-least-once
  /// delivery — enable `retry` below (both sides); the drop report is then
  /// retransmitted until acknowledged (regression: FaultTest.
  /// DroppedDuplicateDropReportIsRetried).
  bool report_dropped_duplicates = true;
  /// At-least-once delivery for clone forwarding and report dispatch
  /// (PROTOCOL.md "Failure handling"). Must match the user site's setting —
  /// the delivery envelope is not self-describing. Off by default: the
  /// paper assumes 1999-TCP reliable-once-accepted semantics and the seed
  /// wire format stays byte-identical.
  net::RetryOptions retry;
  /// One clone per destination site carrying all target nodes (§3.2(4)).
  bool batch_clones_per_site = true;
  /// One report message per incoming clone, covering all its destination
  /// nodes (§3.2(3)); off = one message per node.
  bool batch_reports = true;
  /// Cross-query result sharing (PROTOCOL.md §9.1): cache node-query
  /// results keyed on (document, document version, canonical node-query
  /// form) so each distinct node query is evaluated against a document once
  /// per version — across *all* concurrent queries. Off by default (the
  /// paper's servers share nothing between queries). Purely a wall-clock
  /// optimization: hit or miss produce byte-identical reports.
  bool share_results = false;
  /// Byte budget for the result cache (0 = unbounded); LRU-evicted.
  uint64_t result_cache_max_bytes = 0;
  /// Cross-query batched envelopes (PROTOCOL.md §9.2): outbound clones and
  /// reports are staged per destination host and flushed after this window
  /// as kCloneBatch / kReportBatch messages (0 = off: every send goes out
  /// immediately, the seed behavior). Requires transport timer support;
  /// without timers the option is inert.
  SimDuration batch_window = 0;
  /// Maximum members per flushed envelope; larger groups are split.
  size_t batch_max_members = 64;
  /// Purge the log table after this many clone arrivals (0 = never). The
  /// paper purges periodically; an early purge costs only recomputation.
  uint64_t log_purge_every = 0;
  /// Overload protection (PROTOCOL.md §7): bounded admission queue with
  /// load shedding, and a per-destination circuit breaker on the forwarding
  /// path. Both off by default.
  AdmissionOptions admission;
  net::BreakerOptions breaker;
  /// Durable server state (PROTOCOL.md §8): snapshots + write-ahead log.
  /// Off by default; also requires a storage backend via SetPersistence.
  PersistOptions persist;
};

/// Counters exposed for tests and benchmarks: one field per line of
/// server/query_server_counters.def, in that order.
struct QueryServerStats {
#define WEBDIS_SERVER_COUNTER(name, merge) uint64_t name = 0;
#include "server/query_server_counters.def"
};

/// Adds `from` into `*into` counter by counter, each by its merge rule in
/// query_server_counters.def: a sum, or the larger value for queue_peak.
void MergeServerStats(const QueryServerStats& from, QueryServerStats* into);

/// Calls fn(name, value) for every counter of `stats` in declaration
/// order; `value` refers to the field (writable when `stats` is).
template <typename Stats, typename Fn>
  requires std::is_same_v<std::remove_const_t<Stats>, QueryServerStats>
void ForEachCounter(Stats& stats, Fn&& fn) {
#define WEBDIS_SERVER_COUNTER(name, merge) fn(#name, stats.name);
#include "server/query_server_counters.def"
}

/// One per-node visit, emitted to the observer hook (used by the figure
/// reproductions to trace PureRouter/ServerRouter roles and states).
struct VisitEvent {
  std::string node_url;
  query::CloneState received_state;
  bool duplicate = false;   // dropped by the log table
  bool rewritten = false;   // superset multiple-rewrite applied
  bool evaluated = false;   // acted as ServerRouter (>= 1 node-query eval)
  bool answered = false;    // >= 1 evaluation produced rows
  bool dead_end = false;    // evaluated, found nothing, nothing forwarded
  size_t forward_count = 0; // forwarding intents from this visit
};

/// The WEBDIS Query Server (Sections 2.4–2.5, 3, 4.4): a daemon at every
/// participating web site. Receives clones on the common port, recognizes
/// duplicates via the log table, constructs the per-node virtual-relation
/// database, evaluates node-queries, reports results + CHT entries to the
/// user site *before* forwarding (the ordering Section 2.7.1 requires for
/// correct completion detection), and forwards clones along the PRE.
///
/// Routing semantics note: Figure 4 read literally makes a failed node-query
/// a dead-end even when the current PRE has longer continuations, which
/// would break the paper's own sample query (a lab homepage without a
/// convener would hide its /people page under G·(L*1)). We implement the
/// reading consistent with both Figure 1 and the Section 5 sample run: a
/// node always routes along rem(p)'s continuations; only advancement to the
/// *next* (PRE, node-query) stage requires a local answer.
class QueryServer {
 public:
  /// `web` and `transport` must outlive the server.
  QueryServer(std::string host, const web::WebGraph* web,
              net::Transport* transport,
              QueryServerOptions options = QueryServerOptions());
  ~QueryServer();

  /// Binds (host, kQueryServerPort).
  Status Start();
  void Stop();

  /// Injects the clock used for budget deadlines, queue eviction and the
  /// circuit breaker (the engine passes the SimNetwork's virtual clock).
  /// Without a clock those features see time 0: deadlines never expire and
  /// a tripped breaker never reaches half-open — so deployments enabling
  /// them must provide one.
  void SetClock(std::function<SimTime()> clock) { clock_ = std::move(clock); }

  /// Installs the durability backend (PROTOCOL.md §8). `backend` must
  /// outlive the server; it is inert unless options.persist.enabled. Like
  /// the server's other state the backend is only touched from this
  /// server's own handlers, so per-server backends need no locking.
  void SetPersistence(PersistBackend* backend) { persist_ = backend; }

  /// Simulates a site crash: stops listening on the query port and loses
  /// all volatile protocol state — log table, delivery-dedup history,
  /// pending retransmissions, terminated-query set, ack bookkeeping and the
  /// database cache. Counters survive (they are measurement, not state).
  /// With persistence enabled the backend is notified (unsynced WAL bytes
  /// vanish; seeded torn-write rules may fire). The site's HTTP document
  /// server is untouched: a crashed query daemon does not take the website
  /// down.
  void Crash();
  /// Brings a crashed server back. Without persistence: empty tables
  /// (log-table loss means re-arriving clones are reprocessed; the protocol
  /// layers above absorb the duplicates). With persistence: loads the
  /// latest valid snapshot, replays the WAL idempotently on top, restores
  /// the delivery-dedup history, and re-enqueues every admitted clone whose
  /// completion record is missing (at-least-once). The recovery outcome is
  /// counted in stats (recovered_from_snapshot / replayed_wal_records /
  /// cold_starts) — a restart is never silent.
  Status Restart();

  /// §10.2: puts the server into retired mode — the site is going away for
  /// good (unlike Crash(), which models an outage that Restart() ends).
  /// The pending admission queue is shed terminally: every queued unit's
  /// sender gets the kSiteRetired NACK (terminal — retries stop) and every
  /// member's destination nodes are reported with the site-retired
  /// visibility so the user site's CHT settles with a *named* degraded
  /// outcome. The server keeps listening: later clones are answered the
  /// same way instead of vanishing into connection-refused ambiguity.
  /// Irreversible; Restart() on a retired server keeps it retired.
  void Retire();
  bool retired() const { return retired_; }

  const std::string& host() const { return host_; }
  const QueryServerStats& stats() const;
  const LogTable& log_table() const { return log_table_; }
  void PurgeLogTable() { log_table_.Purge(); }
  uint64_t pending_clones() const { return pending_clones_.size(); }
  /// Breaker state for one destination host (tests and benchmarks).
  net::HostBreakers::State BreakerState(const std::string& dest_host) {
    return breakers_.GetState(dest_host, Now());
  }

  using VisitObserver = std::function<void(const VisitEvent&)>;
  void SetVisitObserver(VisitObserver observer) {
    visit_observer_ = std::move(observer);
  }

 private:
  /// One forwarding intent: destination node plus the pipeline position the
  /// clone will be in when it arrives. `origin_report` indexes the node
  /// report of the node that generated the intent (CHT entries are
  /// attributed to it).
  struct Forward {
    std::string dest_url;
    size_t queries_consumed = 0;  // node-queries evaluated before forwarding
    pre::Pre rem;                 // derived remaining PRE
    size_t origin_report = 0;
  };

  /// One clone transfer unit: read, then admitted or processed inline.
  /// `tracked` transfers carry the delivery seq; under admission control
  /// without a WAL their ack is deferred until the dequeue commits (acking
  /// a unit that may still be shed would turn the shed into silent loss —
  /// see ReliableReceiver's deferred-acceptance API). A kWebQuery transfer
  /// holds exactly one member; a kCloneBatch transfer holds all its members
  /// in ONE unit (PROTOCOL.md §9.2) — the batch shares one seq/ack, so
  /// admission, eviction and shed are always all-or-none across the
  /// members (a partial accept under one ack would silently lose the rest).
  struct QueuedClone {
    net::Endpoint from;
    bool tracked = false;
    uint64_t seq = 0;
    std::vector<query::WebQuery> clones;
    /// Durability (PROTOCOL.md §8): the FIRST id of the kBatchAdmitted WAL
    /// record covering the unit — member i owns wal_id + i (ids are
    /// contiguous). 0 = not persisted. With the unit durable the ack is
    /// safe to send at admission — `acked` records that, so dequeue and
    /// shed must not re-commit the transfer seq (AcceptSeq on a committed
    /// seq reads as a replay and would drop the unit).
    uint64_t wal_id = 0;
    bool acked = false;
  };

  void OnMessage(const net::Endpoint& from, net::MessageType type,
                 const std::vector<uint8_t>& payload);
  /// What ReadTransfer made of one clone transfer.
  enum class TransferRead {
    kDropped,      // malformed delivery envelope: dropped unanswered
    kReplay,       // a committed transfer again; unit->seq names it
    kUndecodable,  // counted and logged; unit->seq names a tracked one
    kUnit,         // unit->clones holds every member
  };
  /// Reads a kWebQuery (a one-member unit) or kCloneBatch transfer: the
  /// only code that strips a clone transfer's delivery envelope. Peeks the
  /// envelope without committing it: the caller acks, re-acks or NACKs.
  /// Delivery dedup MUST precede all protocol processing — a redelivered
  /// clone that reached the log table would emit a second duplicate-drop
  /// report and unbalance the robust CHT's add/delete counts.
  TransferRead ReadTransfer(const net::Endpoint& from, net::MessageType type,
                            const std::vector<uint8_t>& payload,
                            QueuedClone* unit);
  /// Admission control (PROTOCOL.md §7.2, §9.2): queues a freshly read
  /// unit, evicting an earlier-deadline unit to make room, or rejects it
  /// whole — a rejected unit is NACKed (tracked) or shed (untracked).
  void Admit(QueuedClone unit);
  void ScheduleDrain();
  void DrainOne();
  /// Terminal shed: acks tracked transfers (so the sender stops), then
  /// ends every member with budget-exceeded reports so the CHT settles.
  void ShedClone(QueuedClone shed);
  /// §10.2 terminal answer for one unit at a retired server: kSiteRetired
  /// NACK for unacked tracked transfers, then ends every member with
  /// site-retired reports so the CHT converts the participants into named
  /// degraded outcomes.
  void RetireUnit(QueuedClone unit);
  /// Ends every member of a unit that will never be processed: a member of
  /// a terminated query has nothing to settle, any other is degraded
  /// (DegradeClone). Each member's WAL completion follows, so recovery
  /// never replays it.
  void EndMembers(const QueuedClone& unit, bool retired);
  /// Settles a clone without visiting its nodes: an ack-tree clone acks its
  /// parent (it is a leaf); any other reports every destination node
  /// budget-exceeded, or site-retired when `retired`.
  void DegradeClone(const query::WebQuery& clone, bool retired);
  /// Queued members across units (admission capacity counts members, not
  /// units — a 10-member batch occupies 10 slots).
  size_t PendingMembers() const;
  SimTime Now() const { return clock_ ? clock_() : 0; }

  // -- Cross-query sharing (PROTOCOL.md §9) --------------------------------
  /// Batching is live only on transports with timers (a flush needs a
  /// window to wait out).
  bool BatchingEnabled() const {
    return options_.batch_window > 0 && transport_->SupportsTimers();
  }
  /// Cache key: "<resource key>@<version>|<canonical node-query bytes>".
  static std::string ResultCacheKey(const web::WebGraph::Document& doc,
                                    const query::NodeQuery& nq);
  /// Evaluates one node-query against the visited page's virtual relations
  /// (paper §2.4), through the result cache when share_results is on. A
  /// miss refills in place the relations the node-query reads; the visit's
  /// first miss starts the visit's relations and sets *relations_started,
  /// so a PureRouter visit or a result-cache hit reads none. Returns false
  /// on evaluation error. Hit or miss, *out is byte-identical — the cache
  /// is a pure wall-clock optimization.
  bool EvaluateNodeQuery(const query::NodeQuery& nq,
                         const web::WebGraph::Document& doc,
                         bool* relations_started, relational::ResultSet* out);
  const relational::ResultSet* ResultCacheLookup(const std::string& key);
  void ResultCacheInsert(std::string key, const relational::ResultSet& rows);
  /// Arms the flush timer when anything is staged.
  void ScheduleFlush();
  /// Flushes staged reports first (passive terminations are discovered
  /// here and veto staged forwards of the terminated queries), then staged
  /// clones, then the deferred WAL completion records.
  void FlushBatches();

  // -- Durability (PROTOCOL.md §8) ----------------------------------------
  bool PersistEnabled() const {
    return persist_ != nullptr && options_.persist.enabled;
  }
  bool WalEnabled() const {
    return PersistEnabled() && options_.persist.wal_enabled;
  }
  /// Appends one framed record and applies the fsync policy.
  void AppendWalRecord(WalRecordType type, const serialize::Encoder& payload);
  /// Assigns an admitted unit's n members contiguous record ids and (when
  /// the WAL is on) logs ONE kBatchAdmitted record covering them — the
  /// single append that must precede the unit's single delivery ack
  /// (PROTOCOL.md §8.1, §9.2). Returns the first id, 0 when persistence is
  /// off.
  uint64_t PersistAdmitBatch(const QueuedClone& unit);
  /// FinishWalClone for every member id of one queued unit.
  void FinishWalUnit(const QueuedClone& unit);
  /// Marks an admitted clone terminally processed. With batching live its
  /// output may still be staged, so the completion waits for the next
  /// flush (a crash before it replays the clone and regenerates the lost
  /// sends); otherwise it is completed now. No-op for wal_id == 0.
  void FinishWalClone(uint64_t wal_id);
  /// Writes kCloneCompleted and counts the clone toward the snapshot
  /// cadence.
  void CompleteWalClone(uint64_t wal_id);
  void MaybeSnapshot();
  void WriteSnapshotNow();
  /// Restores durable state after Restart(): snapshot load, WAL replay,
  /// re-enqueue of unfinished clones. Counts the recovery outcome.
  void Recover();

  /// ProcessClone plus the terminal kCloneCompleted record.
  void ProcessCloneDurable(query::WebQuery clone, uint64_t wal_id);

  void ProcessClone(query::WebQuery clone);
  void ProcessNode(const query::WebQuery& clone, const std::string& url,
                   query::NodeReport* report, std::vector<Forward>* forwards);
  void ProcessStage(const query::WebQuery& clone,
                    const web::WebGraph::Document& doc,
                    bool* relations_started, size_t stage,
                    const pre::Pre& rem, query::NodeReport* report,
                    std::vector<Forward>* forwards);

  /// Sends (or, with batching live, stages) the clone's reports to its user
  /// site. Returns whether forwarding may proceed — forwarding after a
  /// passive termination would resurrect a query the user already
  /// abandoned, hence [[nodiscard]].
  [[nodiscard]] bool DispatchReports(const query::WebQuery& clone,
                                     std::vector<query::NodeReport> reports);
  /// Sends one kReport to its query's user site. A refusal terminates the
  /// query passively and returns false; a transient error is counted and
  /// logged, and returns true.
  [[nodiscard]] bool SendReport(const query::QueryReport& report);
  /// Passive termination (§2.8): the user site closed the query's result
  /// socket, so the query is purged here and never forwarded again.
  void TerminatePassively(const query::QueryId& id);
  /// Sends a unit of clones to `dest_host`'s query server, one member as
  /// kWebQuery or several as one kCloneBatch, and books the outcome.
  /// Returns false when the destination refused: no query server runs
  /// there, and the caller reports the members' nodes undeliverable. A
  /// transient error counts as forwarded — with retry on, the transfer is
  /// already armed for retransmission.
  bool SendClones(const std::string& dest_host,
                  std::span<const query::WebQuery> unit);

  /// Ack-tree termination baseline (Related Work [4]): a clone's ack is
  /// deferred until every child clone forwarded from it has acked.
  struct PendingAck {
    net::Endpoint parent;
    uint64_t parent_token = 0;
    size_t remaining_children = 0;
    std::string query_key;  // for purging on termination
  };
  void SendAck(const net::Endpoint& parent, uint64_t token);
  void OnAck(uint64_t token);

  // Endpoint confinement (DESIGN.md "Parallel execution"): the parallel
  // stepper may run this server's handlers concurrently with OTHER hosts'
  // handlers, but never with each other — all deliveries to one host share
  // a slice partition and run sequentially. Every field below is therefore
  // either construction-time constant or touched only from this server's
  // own OnMessage/timer callbacks, and needs no locking. The invariant is
  // enforced by tools/webdis_lint.py (confinement rule): a new mutable
  // field must be WEBDIS_GUARDED_BY a mutex or audited into its allowlist.
  std::string host_;
  const web::WebGraph* web_;
  net::Transport* transport_;
  QueryServerOptions options_;
  /// Mutable: stats() lazily folds the delivery layer's counters in.
  mutable QueryServerStats stats_;
  net::ReliableSender sender_;
  net::ReliableReceiver receiver_;
  net::HostBreakers breakers_;
  std::function<SimTime()> clock_;
  std::deque<QueuedClone> pending_clones_;
  uint64_t drain_timer_ = 0;
  LogTable log_table_;
  std::set<std::string> terminated_queries_;  // by QueryId::Key()
  std::map<uint64_t, PendingAck> pending_acks_;  // by local token
  uint64_t next_ack_token_ = 1;
  /// The visited page's virtual relations, refilled in place by every
  /// visit that evaluates; read only within that visit.
  NodeRelations node_relations_;
  /// Cross-query result cache (PROTOCOL.md §9.1): LRU list (front = most
  /// recently used) + index, bounded by options_.result_cache_max_bytes.
  /// Keys embed the document version, so a stale entry is never *served*
  /// (it simply ages out); the cache itself is volatile — cleared on
  /// Crash(), never snapshotted (it is recomputable, not protocol state).
  struct CachedResult {
    std::string key;
    relational::ResultSet rows;
    uint64_t bytes = 0;
  };
  std::list<CachedResult> result_cache_lru_;
  std::map<std::string, std::list<CachedResult>::iterator>
      result_cache_index_;
  uint64_t result_cache_bytes_ = 0;
  /// Cross-query batching (PROTOCOL.md §9.2): outbound envelopes staged by
  /// destination host / user-site host, flushed by flush_timer_ after
  /// options_.batch_window. Volatile (a crash loses staged sends; the WAL
  /// completion records below are deferred past the flush precisely so
  /// replay regenerates them).
  std::map<std::string, std::vector<query::WebQuery>> staged_clones_;
  std::map<std::string, std::vector<query::QueryReport>> staged_reports_;
  uint64_t flush_timer_ = 0;
  /// WAL record ids whose clones reached a terminal exit (processed, shed
  /// or retired) while batching is live, so their output may still be
  /// staged: their kCloneCompleted records are written at the end of the
  /// next flush (crash before that replays the clones, so the
  /// staged-and-lost reports are regenerated — at-least-once).
  std::vector<uint64_t> wal_pending_flush_;
  VisitObserver visit_observer_;
  bool started_ = false;
  /// §10.2: retired mode. Deliberately NOT reset by Crash()/Restart() —
  /// retirement is permanent, not an outage.
  bool retired_ = false;
  /// Durability (PROTOCOL.md §8): storage backend (not owned), the next
  /// WAL record id (monotonic across restarts — recovered from the maximum
  /// of the snapshot's last_wal_id and the replayed records), and the
  /// terminally-processed-clone count since the last snapshot.
  PersistBackend* persist_ = nullptr;
  uint64_t next_wal_id_ = 1;
  uint64_t clones_since_snapshot_ = 0;
};

}  // namespace webdis::server

#endif  // WEBDIS_SERVER_QUERY_SERVER_H_
