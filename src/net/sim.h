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
  /// ScheduleAfter / CloseListener / CancelTimer effects buffered per
  /// partition, and the buffers are replayed into the event queue in
  /// original (sequence, issue index) order before the next slice. Any
  /// N >= 1 therefore produces bit-identical results, traffic stats and
  /// delivery order; N = 1 is the sequential reference for that guarantee.
  /// Handlers must not Listen inside a stepped slice and may close only
  /// their own host's endpoints (both CHECKed).
  size_t worker_threads = 0;
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
  /// Always 0: every slice commits on its own, so no batch merges slices.
  /// Kept because perfbench reads them (its slices-per-batch metric).
  uint64_t coalesced_batches = 0;
  uint64_t coalesced_slices = 0;
  /// Serial fallback: slices dispatched through the legacy serial loop
  /// because they had fewer than two host partitions or contained a
  /// driver-context timer, and the events they carried.
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

  /// Attaches a composable fault schedule (see net/fault.h), consulted per
  /// accepted message. A dropped message models loss *after* the
  /// connection was accepted — the failure window the paper's
  /// report-then-forward ordering defends against. The plan decides drop /
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
  /// Safety valve: RunUntilIdle aborts after this many deliveries and timer
  /// firings (protects against runaway forwarding loops in buggy
  /// configurations).
  static constexpr uint64_t kMaxDeliveries = 50'000'000;

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
  /// rather than a priority queue: the stepper extracts a whole slice by
  /// moving events out, without the const-top copy a priority_queue forces.
  using EventQueue = std::map<std::pair<SimTime, uint64_t>, Event>;

  // -- Parallel stepper internals (parallel_sim.cc) -------------------------
  // During a time-slice, worker threads divert every Transport call into
  // their partition's SliceContext (buffered ops + own closes); the driving
  // thread replays the buffers in (sequence, issue-index) order after the
  // slice barrier, which reproduces the sequential evolution of the jitter
  // RNG, per-endpoint serial queues, sequence numbers and traffic meters bit
  // for bit.
  struct SliceContext;
  static SliceContext*& ThreadSliceContext();
  /// The calling thread's slice context, iff it belongs to `net` (a handler
  /// may legitimately drive a second, independent SimNetwork — that one
  /// keeps legacy semantics).
  static SliceContext* CurrentSliceContext(const SimNetwork* net);
  Status SliceSend(SliceContext* ctx, const Endpoint& from, const Endpoint& to,
                   MessageType type, std::vector<uint8_t> payload);
  void SliceCloseListener(SliceContext* ctx, const Endpoint& endpoint);
  uint64_t SliceScheduleAfter(SliceContext* ctx, SimDuration delay,
                              std::function<void()> fn);
  bool SliceCancelTimer(SliceContext* ctx, uint64_t id);
  void DispatchSlice(SliceContext* ctx);
  void RunStepped();
  /// One stepper iteration: pops every event at the minimum timestamp,
  /// dispatches the slice serially if it has a driver-context timer or
  /// fewer than two host partitions, and otherwise fork/joins the
  /// partitions and replays their buffered ops in (sequence, issue index)
  /// order.
  void StepSlice();
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
  FaultPlan* fault_plan_ = nullptr;
  TrafficStats total_;
  TrafficStats inter_host_;
  std::map<MessageType, TrafficStats> by_type_;
  ParallelStats parallel_stats_;
  std::unique_ptr<common::ThreadPool> pool_;  // created on first stepped run
};

}  // namespace webdis::net

#endif  // WEBDIS_NET_SIM_H_
