#ifndef WEBDIS_NET_SIM_H_
#define WEBDIS_NET_SIM_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "net/transport.h"

namespace webdis::common {
class ThreadPool;
}  // namespace webdis::common

namespace webdis::net {

class FaultPlan;

/// Cost model for the simulated network. Delivery time of a message is
/// latency(from,to) + bytes / bandwidth. Defaults model a late-90s setting:
/// sub-millisecond within a host, tens of milliseconds across sites, and
/// ~1 MB/s of usable bandwidth.
struct SimNetworkOptions {
  SimDuration same_host_latency = 100 * kMicrosecond;
  SimDuration inter_host_latency = 20 * kMillisecond;
  uint64_t bandwidth_bytes_per_sec = 1'000'000;
  /// Uniform random extra delay in [0, latency_jitter] added per message
  /// (seeded, deterministic). Non-zero jitter shuffles delivery order —
  /// the stress tests use it to exercise protocol robustness against
  /// reordering.
  SimDuration latency_jitter = 0;
  uint64_t jitter_seed = 1;
  /// Safety valve: RunUntilIdle aborts after this many deliveries (protects
  /// against runaway forwarding loops in buggy configurations).
  uint64_t max_deliveries = 50'000'000;

  /// Optional processing-cost model: how long the receiving endpoint takes
  /// to handle one message. Deliveries to an endpoint are serialized (each
  /// daemon "sequentially processes the queue of pending web-queries",
  /// §4.4), so a loaded endpoint queues — this is what makes the client-
  /// site-bottleneck claim of Section 1 measurable. Null = zero-cost
  /// handling (the default).
  using ServiceTimeModel = std::function<SimDuration(
      const Endpoint& to, MessageType type, size_t wire_bytes)>;
  ServiceTimeModel service_time;

  /// Deterministic parallel stepper (DESIGN.md "Parallel execution").
  /// 0 = the classic single-threaded event loop. N >= 1 = time-stepped
  /// execution with N concurrent executors (N-1 pool threads plus the
  /// driving thread): each time-slice — all queued events sharing the
  /// minimum virtual timestamp — is partitioned by destination host, the
  /// partitions' handlers run concurrently with all outbound Send /
  /// ScheduleAfter / Listen effects buffered per worker, and the buffers
  /// are replayed into the event queue in original (time, sequence) order.
  /// Any N >= 1 therefore produces bit-identical results, traffic stats and
  /// delivery order; N = 1 is the sequential reference for that guarantee.
  size_t worker_threads = 0;

  /// Parallelism floors for the stepper: a slice with fewer distinct
  /// destination partitions or fewer events than these runs through the
  /// legacy serial dispatch instead — forking the pool and buffering ops
  /// for one or two events costs more than it saves. Results are identical
  /// either way (the legacy loop and the stepper are equivalent); only the
  /// execution strategy changes.
  size_t min_parallel_partitions = 2;
  size_t min_parallel_events = 2;

  /// Adaptive slice coalescing (DESIGN.md "Parallel execution"): after a
  /// slice runs, the stepper keeps extending the same batch with the next
  /// queued slice as long as no buffered effect could land before it (and
  /// no listener mutation or timer cancellation is pending), deferring the
  /// replay/commit to the batch boundary. Off = commit after every slice
  /// (the pre-coalescing behaviour, kept as the equivalence reference).
  bool coalesce_slices = true;
};

/// Counters describing how much concurrency the time-stepped stepper
/// actually found (all zero when worker_threads == 0).
struct ParallelStats {
  uint64_t slices = 0;           // time-slices stepped
  uint64_t parallel_slices = 0;  // slices with >= 2 host partitions
  uint64_t events = 0;           // events dispatched by the stepper
  uint64_t parallel_events = 0;  // events inside parallel slices
  uint64_t max_slice_events = 0;
  uint64_t max_slice_partitions = 0;
  /// Coalescing: batches that merged >= 2 slices into one commit, and the
  /// total slices they absorbed (coalesced_slices / coalesced_batches is
  /// the mean merge depth).
  uint64_t coalesced_batches = 0;
  uint64_t coalesced_slices = 0;
  /// Threshold fallback: slices dispatched through the legacy serial loop
  /// because they were under the min_parallel_* floors (or contained a
  /// driver-context timer), and the events they carried.
  uint64_t serial_slices = 0;
  uint64_t serial_events = 0;

  /// Fraction of events that ran inside a parallel slice — how much of the
  /// workload was eligible for multi-core execution.
  double Occupancy() const {
    return events == 0 ? 0.0
                       : static_cast<double>(parallel_events) /
                             static_cast<double>(events);
  }
};

/// Traffic counters, overall and per message type.
struct TrafficStats {
  uint64_t messages = 0;
  uint64_t bytes = 0;

  void Add(uint64_t message_bytes) {
    ++messages;
    bytes += message_bytes;
  }
};

/// Deterministic discrete-event network. Single-threaded: Send() enqueues a
/// delivery event; RunUntilIdle() drains events in (time, sequence) order,
/// invoking listener handlers inline (handlers may Send more messages).
///
/// This is the measurement substrate for every benchmark: it meters exactly
/// the bytes and messages each protocol variant puts on the wire, and its
/// virtual clock gives reproducible response-time and completion-detection
/// numbers — the quantities the paper argues about qualitatively.
class SimNetwork : public Transport {
 public:
  explicit SimNetwork(SimNetworkOptions options = SimNetworkOptions());
  ~SimNetwork() override;

  // -- Transport ------------------------------------------------------------
  Status Listen(const Endpoint& endpoint, MessageHandler handler) override;
  void CloseListener(const Endpoint& endpoint) override;
  Status Send(const Endpoint& from, const Endpoint& to, MessageType type,
              std::vector<uint8_t> payload) override;

  /// Timers share the event queue: a timer scheduled for t fires in
  /// (time, sequence) order with message deliveries and advances the
  /// virtual clock. RunUntilIdle drains timers too.
  uint64_t ScheduleAfter(SimDuration delay, std::function<void()> fn) override;
  bool CancelTimer(uint64_t id) override;
  bool SupportsTimers() const override { return true; }

  // -- Simulation control ---------------------------------------------------

  /// Delivers the earliest pending message; false if none pending.
  bool RunOne();

  /// Drains all pending messages (including ones enqueued by handlers).
  void RunUntilIdle();

  /// Current virtual time (microseconds).
  SimTime now() const { return now_; }

  /// True if no messages are in flight.
  bool Idle() const { return events_.empty(); }

  // -- Fault injection ------------------------------------------------------

  /// Filter invoked per accepted message; return true to silently drop it
  /// (models loss *after* the connection was accepted — the failure window
  /// the paper's report-then-forward ordering defends against).
  using DropFilter =
      std::function<bool(const Endpoint& from, const Endpoint& to,
                         MessageType type)>;
  void SetDropFilter(DropFilter filter) { drop_filter_ = std::move(filter); }

  /// Attaches a composable fault schedule (see net/fault.h), consulted per
  /// accepted message after the drop filter. The plan decides drop /
  /// duplication / extra delay and is passed the virtual clock, so its
  /// time-phased rules work. Not owned; pass nullptr to detach.
  void SetFaultPlan(FaultPlan* plan) { fault_plan_ = plan; }

  /// Closes every listener on the host (models a site crash).
  void KillHost(const std::string& host);

  /// Adds a fixed extra delay to every message to or from `host` — models
  /// the "considerable heterogeneity in network and site characteristics"
  /// (Section 2.7) that makes timeout-based completion untenable: a single
  /// slow site forces the global timeout up.
  void SetHostExtraLatency(const std::string& host, SimDuration extra);

  // -- Metrics --------------------------------------------------------------

  const TrafficStats& total_traffic() const { return total_; }
  const TrafficStats& traffic_for(MessageType type) const;
  /// Traffic that actually crossed hosts (excludes same-host messages).
  const TrafficStats& inter_host_traffic() const { return inter_host_; }
  uint64_t connection_refused_count() const { return refused_; }
  uint64_t dropped_count() const { return dropped_; }
  uint64_t delivered_count() const { return delivered_; }
  /// Stepper concurrency counters (zeros under the legacy event loop).
  const ParallelStats& parallel_stats() const { return parallel_stats_; }

  void ResetMetrics();

 private:
  struct Event {
    SimTime deliver_at;
    uint64_t sequence;  // tie-break for determinism
    Endpoint from;
    Endpoint to;
    MessageType type;
    std::vector<uint8_t> payload;
    // Timer events: non-null `timer` marks the event as a scheduled
    // callback rather than a message delivery.
    std::function<void()> timer;
    uint64_t timer_id = 0;
    // Stepper partition the timer fires on: the host whose handler armed
    // it, or "" for driver-context timers, whose slices run serially.
    // Message deliveries partition by `to.host` instead.
    std::string affinity;
  };
  /// The event queue, ordered by (deliver_at, sequence). An ordered map
  /// rather than a priority queue: the coalescing stepper needs to peek at
  /// the *next* slice's time and contents without committing to popping it,
  /// and to extract events without the const-top copy a priority_queue
  /// forces.
  using EventQueue = std::map<std::pair<SimTime, uint64_t>, Event>;

  // -- Parallel stepper internals (parallel_sim.cc) -------------------------
  // During a time-slice, worker threads divert every Transport call into
  // their partition's SliceContext (buffered ops + listener overlay); the
  // driving thread replays the buffers in (sequence, issue-index) order
  // after the slice barrier, which reproduces the sequential evolution of
  // the jitter RNG, per-endpoint serial queues, sequence numbers and
  // traffic meters bit for bit.
  struct SliceContext;
  struct BatchState;
  static SliceContext*& ThreadSliceContext();
  /// The calling thread's slice context, iff it belongs to `net` (a handler
  /// may legitimately drive a second, independent SimNetwork — that one
  /// keeps legacy semantics).
  static SliceContext* CurrentSliceContext(const SimNetwork* net);
  Status SliceSend(SliceContext* ctx, const Endpoint& from, const Endpoint& to,
                   MessageType type, std::vector<uint8_t> payload);
  Status SliceListen(SliceContext* ctx, const Endpoint& endpoint,
                     MessageHandler handler);
  void SliceCloseListener(SliceContext* ctx, const Endpoint& endpoint);
  uint64_t SliceScheduleAfter(SliceContext* ctx, SimDuration delay,
                              std::function<void()> fn);
  bool SliceCancelTimer(SliceContext* ctx, uint64_t id);
  void DispatchSlice(SliceContext* ctx);
  void RunStepped();
  /// One stepper iteration: pops the earliest slice, dispatches it (legacy
  /// path if under the parallelism floors or driver-bound), and — when
  /// coalescing is on — keeps absorbing subsequent non-interacting slices
  /// into the same batch before a single commit.
  void StepBatch();
  /// Extracts every queued event at the minimum timestamp; stores it in
  /// `*t_out`.
  std::vector<Event> PopSlice(SimTime* t_out);
  /// Runs one already-popped slice inside `batch`: advances the clock,
  /// assigns events to (new or existing) partitions, and fork/joins the
  /// active ones.
  void RunBatchSlice(BatchState* batch, std::vector<Event> slice, SimTime t);
  /// True if the next queued slice may join `batch` without changing
  /// observable behaviour (the non-interaction rule, DESIGN.md §8).
  bool CanExtendBatch(const BatchState& batch) const;
  /// The batch barrier: merges counters, retires fired timers, and replays
  /// all buffered ops in (issue-time, sequence, issue-index) order.
  void CommitBatch(BatchState* batch);
  /// The body of RunOne after the pop: legacy inline dispatch. Used by the
  /// event loop and by stepper slices containing driver-context timers.
  void DispatchEventLegacy(Event event);
  /// Queues an event keyed by (deliver_at, sequence).
  void PushEvent(Event event);

  void EnqueueDelivery(const Endpoint& from, const Endpoint& to,
                       MessageType type, std::vector<uint8_t> payload,
                       SimDuration extra_delay, uint64_t wire_bytes);
  /// The tail of Send after the synchronous refusal check (metering, fault
  /// decisions, enqueue). Slice replay calls this directly: workers already
  /// resolved refusal against their slice view.
  Status SendAccepted(const Endpoint& from, const Endpoint& to,
                      MessageType type, std::vector<uint8_t> payload);

  SimNetworkOptions options_;
  Rng jitter_rng_;
  SimTime now_ = 0;
  uint64_t next_sequence_ = 0;
  uint64_t delivered_ = 0;
  uint64_t refused_ = 0;
  uint64_t dropped_ = 0;
  uint64_t timers_fired_ = 0;
  /// Atomic: timer ids are handed out from worker threads during a slice.
  /// Their *values* may differ between worker counts; they are opaque
  /// handles and never observable in results or stats.
  std::atomic<uint64_t> next_timer_id_ = 1;
  std::set<uint64_t> pending_timers_;
  EventQueue events_;
  std::map<Endpoint, MessageHandler> listeners_;
  std::map<Endpoint, SimTime> busy_until_;  // per-listener serial queue
  std::map<std::string, SimDuration> host_extra_latency_;
  DropFilter drop_filter_;
  FaultPlan* fault_plan_ = nullptr;
  TrafficStats total_;
  TrafficStats inter_host_;
  std::map<MessageType, TrafficStats> by_type_;
  ParallelStats parallel_stats_;
  std::unique_ptr<common::ThreadPool> pool_;  // created on first stepped run
};

}  // namespace webdis::net

#endif  // WEBDIS_NET_SIM_H_
