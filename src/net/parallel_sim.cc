// Deterministic time-stepped parallel mode for SimNetwork ("ParallelSimNetwork",
// enabled by SimNetworkOptions::worker_threads; see DESIGN.md "Parallel
// execution").
//
// The loop: take every queued event sharing the minimum virtual timestamp (a
// *time-slice*), partition the slice by destination host — the paper's own
// serialization unit, since each site's daemon "sequentially processes the
// queue of pending web-queries" (§4.4) — and run the partitions concurrently
// on a common::ThreadPool. While a slice runs, worker threads never mutate
// shared network state: every Transport call they make is diverted into their
// partition's SliceContext, which buffers the operation tagged with
// (issue virtual time, issuing event sequence, issue index). After the
// barrier, the driving thread replays all buffers in that tag order, which is
// exactly the order a sequential stepper would have issued them — so the
// jitter RNG stream, the per-endpoint busy_until_ queues, sequence-number
// assignment, fault-plan decisions and traffic meters evolve bit-identically
// for any worker count.
//
// Adaptive slice coalescing: committing after every slice makes the driving
// thread the bottleneck on workloads whose wavefronts split into many small
// sub-slices (e.g. 100 µs same-host echoes between 20 ms inter-host hops).
// So after a slice runs, the stepper *extends the batch*: the next queued
// slice joins the same set of partitions — no commit in between — whenever
// it provably cannot interact with anything the batch has buffered:
//
//   1. No buffered effect may land before the next slice's time t'. For a
//      buffered send the earliest landing is issue_time + base latency
//      (jitter, bandwidth, per-host extra latency and service queueing only
//      add); for a buffered timer it is exactly issue_time + delay. Landing
//      *at* t' is safe: the replayed event enters the queue with a sequence
//      above every pre-existing t' event and runs in a later batch at the
//      same virtual time — the order the sequential stepper produces.
//   2. No listener mutation may be buffered. Cross-slice sends resolve
//      refusal against the frozen listener table; a buffered Listen/Close
//      would make that table stale (refused vs silently dropped changes
//      §2.8 passive-termination behaviour).
//   3. The next slice may not contain a timer event whose id any batch
//      partition has cancelled — the cancel has not committed, so the stale
//      timer would fire.
//   4. Driver-context timers (empty affinity) always break the batch: they
//      run through the legacy path with direct access to global state.
//
// Within a batch, same-host events of successive slices land in the *same*
// partition, preserving per-host order; the virtual clock advances per
// slice between fork/joins, so handlers observe the same now() as under
// sequential stepping. The batch barrier then merges counters and replays
// every buffered op once, sorted by (issue time, sequence, index).
//
// Slices under SimNetworkOptions::min_parallel_{partitions,events} skip all
// of this and dispatch through the legacy serial loop — buffering and
// fork/join overhead only pays above a minimum width.
//
// Visibility rule: a partition sees its *own* listener mutations immediately
// (via a per-partition overlay) and everyone else's from the start of the
// batch; mutations commit globally at the batch barrier. Handlers must
// confine their state to their endpoint's host (the confinement rule checked
// by tools/webdis_lint.py); timers carry the affinity of the context that
// armed them.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "net/sim.h"

namespace webdis::net {

namespace {
constexpr SimTime kNeverLands = std::numeric_limits<SimTime>::max();
// Cap on slices merged into one batch (bounds buffered-op memory).
constexpr size_t kMaxCoalesceSlices = 64;
}  // namespace

struct SimNetwork::SliceContext {
  struct Op {
    enum Kind {
      kSend,
      kListen,
      kCloseListener,
      kScheduleTimer,
      kCancelTimer,
    };
    Kind kind;
    SimTime issue_time = 0;  // virtual time of the slice that issued the op
    uint64_t seq = 0;    // sequence of the slice event that issued the op
    uint32_t index = 0;  // issue order within that event's handler
    Endpoint from;
    Endpoint to;  // also the endpoint for kListen / kCloseListener
    MessageType type{};
    std::vector<uint8_t> payload;
    MessageHandler handler;          // kListen
    SimDuration delay = 0;           // kScheduleTimer
    std::function<void()> timer_fn;  // kScheduleTimer
    uint64_t timer_id = 0;           // kScheduleTimer / kCancelTimer
    std::string affinity;            // kScheduleTimer
  };

  SimNetwork* net = nullptr;
  std::string key;            // partition affinity (destination host)
  std::vector<Event> events;  // the *current* slice's events, sequence order
  // Listener changes made by this partition during the batch: engaged =
  // (re)bound handler, nullopt = closed. Own mutations are visible to the
  // partition immediately; the base map stays frozen until the barrier.
  std::map<Endpoint, std::optional<MessageHandler>> listener_overlay;
  std::set<uint64_t> scheduled;  // timer ids armed during this batch
  std::set<uint64_t> cancelled;  // timer ids cancelled during this batch
  std::set<uint64_t> fired;      // timer ids fired during this batch
  std::vector<Op> ops;
  uint64_t current_seq = 0;
  uint32_t op_index = 0;
  uint64_t delivered = 0;
  uint64_t refused = 0;
  uint64_t dropped = 0;
  uint64_t timers_fired = 0;
  /// Earliest virtual time any effect buffered by this partition could
  /// enter the event queue — the quantity the batch-extension rule compares
  /// against the next slice's timestamp.
  SimTime min_effect_landing = kNeverLands;
  /// Set when the partition buffered a Listen/CloseListener; any such op
  /// ends batch extension (rule 2 above).
  bool has_listener_ops = false;

  Op& PushOp(Op::Kind kind) {
    Op& op = ops.emplace_back();
    op.kind = kind;
    op.issue_time = net->now_;
    op.seq = current_seq;
    op.index = op_index++;
    return op;
  }
};

/// Everything a coalesced batch accumulates between its first slice and its
/// commit: the partition set (grown as new hosts appear, never reset), the
/// timer events it consumed, and the clock bookkeeping.
struct SimNetwork::BatchState {
  std::map<std::string, size_t> part_index;
  std::vector<std::unique_ptr<SliceContext>> parts;
  /// Ids of every timer event dispatched by the batch (fired or stale);
  /// all leave pending_timers_ at commit.
  std::vector<uint64_t> timer_event_ids;
  SimTime end_time = 0;      // time of the last slice that advanced now_
  bool any_advance = false;  // did any slice advance now_?
  size_t num_slices = 0;
};

SimNetwork::SliceContext*& SimNetwork::ThreadSliceContext() {
  thread_local SliceContext* ctx = nullptr;
  return ctx;
}

SimNetwork::SliceContext* SimNetwork::CurrentSliceContext(
    const SimNetwork* net) {
  SliceContext* ctx = ThreadSliceContext();
  return (ctx != nullptr && ctx->net == net) ? ctx : nullptr;
}

Status SimNetwork::SliceSend(SliceContext* ctx, const Endpoint& from,
                             const Endpoint& to, MessageType type,
                             std::vector<uint8_t> payload) {
  // Same synchronous refusal semantics as the legacy path, resolved against
  // the slice view: own overlay first, then the frozen base map.
  bool listening;
  auto ov = ctx->listener_overlay.find(to);
  if (ov != ctx->listener_overlay.end()) {
    listening = ov->second.has_value();
  } else {
    listening = listeners_.contains(to);
  }
  if (!listening) {
    ++ctx->refused;
    return Status::ConnectionRefused(
        StringPrintf("no listener at %s", to.ToString().c_str()));
  }
  // Earliest possible landing: base latency only — jitter, bandwidth
  // transfer, per-host extra latency and service queueing are all >= 0.
  const SimDuration base_latency = (from.host == to.host)
                                       ? options_.same_host_latency
                                       : options_.inter_host_latency;
  ctx->min_effect_landing =
      std::min(ctx->min_effect_landing, now_ + base_latency);
  SliceContext::Op& op = ctx->PushOp(SliceContext::Op::kSend);
  op.from = from;
  op.to = to;
  op.type = type;
  op.payload = std::move(payload);
  return Status::OK();
}

Status SimNetwork::SliceListen(SliceContext* ctx, const Endpoint& endpoint,
                               MessageHandler handler) {
  bool bound;
  auto ov = ctx->listener_overlay.find(endpoint);
  if (ov != ctx->listener_overlay.end()) {
    bound = ov->second.has_value();
  } else {
    bound = listeners_.contains(endpoint);
  }
  if (bound) {
    return Status::InvalidArgument(StringPrintf(
        "endpoint %s already bound", endpoint.ToString().c_str()));
  }
  ctx->has_listener_ops = true;
  SliceContext::Op& op = ctx->PushOp(SliceContext::Op::kListen);
  op.to = endpoint;
  op.handler = handler;
  ctx->listener_overlay[endpoint] = std::move(handler);
  return Status::OK();
}

void SimNetwork::SliceCloseListener(SliceContext* ctx,
                                    const Endpoint& endpoint) {
  ctx->has_listener_ops = true;
  SliceContext::Op& op = ctx->PushOp(SliceContext::Op::kCloseListener);
  op.to = endpoint;
  ctx->listener_overlay[endpoint] = std::nullopt;
}

uint64_t SimNetwork::SliceScheduleAfter(SliceContext* ctx, SimDuration delay,
                                        std::function<void()> fn) {
  const uint64_t id = next_timer_id_.fetch_add(1, std::memory_order_relaxed);
  ctx->scheduled.insert(id);
  // A timer's landing is exact: issue time + delay, no cost model applies.
  ctx->min_effect_landing = std::min(ctx->min_effect_landing, now_ + delay);
  SliceContext::Op& op = ctx->PushOp(SliceContext::Op::kScheduleTimer);
  op.delay = delay;
  op.timer_fn = std::move(fn);
  op.timer_id = id;
  op.affinity = ctx->key;  // the new timer fires on the arming partition
  return id;
}

bool SimNetwork::SliceCancelTimer(SliceContext* ctx, uint64_t id) {
  if (ctx->cancelled.contains(id)) return false;  // already cancelled
  if (ctx->fired.contains(id)) return false;      // fired earlier this batch
  const bool was_pending =
      ctx->scheduled.contains(id) || pending_timers_.contains(id);
  if (!was_pending) return false;
  ctx->cancelled.insert(id);
  ctx->PushOp(SliceContext::Op::kCancelTimer).timer_id = id;
  return true;
}

void SimNetwork::DispatchSlice(SliceContext* ctx) {
  for (Event& event : ctx->events) {
    ctx->current_seq = event.sequence;
    ctx->op_index = 0;
    if (event.timer) {
      // Skip timers cancelled before this batch (no longer pending) or by
      // an earlier event of this partition; same rule as the legacy loop.
      // Cross-partition cancels cannot reach here: a slice containing a
      // batch-cancelled timer id refuses to join the batch.
      if (!pending_timers_.contains(event.timer_id) ||
          ctx->cancelled.contains(event.timer_id)) {
        continue;
      }
      ctx->fired.insert(event.timer_id);
      ++ctx->timers_fired;
      event.timer();
      continue;
    }
    ++ctx->delivered;
    MessageHandler handler;  // copied: the handler may close/re-register
    auto ov = ctx->listener_overlay.find(event.to);
    if (ov != ctx->listener_overlay.end()) {
      if (!ov->second.has_value()) {
        ++ctx->dropped;
        continue;
      }
      handler = *ov->second;
    } else {
      auto it = listeners_.find(event.to);
      if (it == listeners_.end()) {
        ++ctx->dropped;
        continue;
      }
      handler = it->second;
    }
    handler(event.from, event.type, event.payload);
  }
}

std::vector<SimNetwork::Event> SimNetwork::PopSlice(SimTime* t_out) {
  const SimTime t = events_.begin()->first.first;
  std::vector<Event> slice;
  auto it = events_.begin();
  while (it != events_.end() && it->first.first == t) {
    slice.push_back(std::move(it->second));
    it = events_.erase(it);
  }
  *t_out = t;
  return slice;
}

void SimNetwork::RunBatchSlice(BatchState* batch, std::vector<Event> slice,
                               SimTime t) {
  // Advance the clock exactly when the legacy loop would: the first event
  // that actually runs does it. A slice of nothing but stale cancelled
  // timers leaves `now_` untouched. Workers read now_ during the fork/join;
  // the driving thread only writes it here, between barriers.
  const bool advances =
      std::any_of(slice.begin(), slice.end(), [this](const Event& e) {
        return e.timer == nullptr || pending_timers_.contains(e.timer_id);
      });
  if (advances) {
    now_ = t;
    batch->end_time = t;
    batch->any_advance = true;
  }

  // Assign events to partitions, first-appearance (= sequence) order.
  // Partitions persist across the batch's slices: a host revisited by a
  // later slice reuses its context, preserving per-host op/effect order.
  std::vector<SliceContext*> active;
  for (Event& event : slice) {
    const std::string& key = event.timer ? event.affinity : event.to.host;
    if (event.timer) batch->timer_event_ids.push_back(event.timer_id);
    auto [it, inserted] = batch->part_index.try_emplace(key,
                                                        batch->parts.size());
    if (inserted) {
      batch->parts.push_back(std::make_unique<SliceContext>());
      batch->parts.back()->net = this;
      batch->parts.back()->key = key;
    }
    SliceContext* ctx = batch->parts[it->second].get();
    if (ctx->events.empty()) active.push_back(ctx);
    ctx->events.push_back(std::move(event));
  }
  parallel_stats_.max_slice_partitions = std::max<uint64_t>(
      parallel_stats_.max_slice_partitions, active.size());
  if (active.size() >= 2) {
    ++parallel_stats_.parallel_slices;
    size_t slice_events = 0;
    for (const SliceContext* ctx : active) slice_events += ctx->events.size();
    parallel_stats_.parallel_events += slice_events;
  }

  if (active.size() == 1) {
    ThreadSliceContext() = active[0];
    DispatchSlice(active[0]);
    ThreadSliceContext() = nullptr;
  } else {
    if (pool_ == nullptr) {
      pool_ =
          std::make_unique<common::ThreadPool>(options_.worker_threads - 1);
    }
    pool_->RunBatch(active.size(), [this, &active](size_t i) {
      ThreadSliceContext() = active[i];
      DispatchSlice(active[i]);
      ThreadSliceContext() = nullptr;
    });
  }

  // Contexts keep their overlays, timer sets, counters and buffered ops for
  // the rest of the batch; only the per-slice event list resets.
  for (SliceContext* ctx : active) ctx->events.clear();
  ++batch->num_slices;
}

bool SimNetwork::CanExtendBatch(const BatchState& batch) const {
  if (events_.empty()) return false;
  SimTime min_landing = kNeverLands;
  for (const auto& ctx : batch.parts) {
    if (ctx->has_listener_ops) return false;  // rule 2
    min_landing = std::min(min_landing, ctx->min_effect_landing);
  }
  const SimTime t_next = events_.begin()->first.first;
  if (min_landing < t_next) return false;  // rule 1 (equality is safe)
  for (auto it = events_.begin();
       it != events_.end() && it->first.first == t_next; ++it) {
    const Event& e = it->second;
    if (e.timer == nullptr) continue;
    if (e.affinity.empty()) return false;  // rule 4: driver timer
    for (const auto& ctx : batch.parts) {  // rule 3: uncommitted cancel
      if (ctx->cancelled.contains(e.timer_id)) return false;
    }
  }
  return true;
}

void SimNetwork::CommitBatch(BatchState* batch) {
  for (const auto& ctx : batch->parts) {
    delivered_ += ctx->delivered;
    refused_ += ctx->refused;
    dropped_ += ctx->dropped;
    timers_fired_ += ctx->timers_fired;
  }
  WEBDIS_CHECK(delivered_ + timers_fired_ <= options_.max_deliveries)
      << "simulated network exceeded max_deliveries — runaway forwarding?";
  // Every timer event the batch consumed leaves the pending set, whether it
  // fired or had been cancelled (erase is idempotent).
  for (const uint64_t id : batch->timer_event_ids) {
    pending_timers_.erase(id);
  }
  // Replay buffered ops in (issue time, sequence, issue-index) order — the
  // order the sequential stepper would have issued them. now_ tracks each
  // op's issue time during the replay so the jitter draw, fault decision
  // and busy_until_ arithmetic see the clock their issuer saw.
  std::vector<SliceContext::Op*> ops;
  for (const auto& ctx : batch->parts) {
    for (SliceContext::Op& op : ctx->ops) ops.push_back(&op);
  }
  std::sort(ops.begin(), ops.end(),
            [](const SliceContext::Op* a, const SliceContext::Op* b) {
              if (a->issue_time != b->issue_time)
                return a->issue_time < b->issue_time;
              if (a->seq != b->seq) return a->seq < b->seq;
              return a->index < b->index;
            });
  for (SliceContext::Op* op : ops) {
    switch (op->kind) {
      case SliceContext::Op::kSend: {
        now_ = op->issue_time;
        // Refusal was already resolved by the issuing worker; the accepted
        // path always returns OK.
        const Status accepted =
            SendAccepted(op->from, op->to, op->type, std::move(op->payload));
        WEBDIS_CHECK(accepted.ok());
        break;
      }
      case SliceContext::Op::kListen:
        // First listener wins on a (cross-partition) conflict, matching the
        // sequential rule that later Listen calls are refused.
        listeners_.emplace(op->to, std::move(op->handler));
        break;
      case SliceContext::Op::kCloseListener:
        listeners_.erase(op->to);
        busy_until_.erase(op->to);
        break;
      case SliceContext::Op::kScheduleTimer: {
        Event event;
        event.deliver_at = op->issue_time + op->delay;
        event.sequence = next_sequence_++;
        event.timer = std::move(op->timer_fn);
        event.timer_id = op->timer_id;
        event.affinity = std::move(op->affinity);
        pending_timers_.insert(op->timer_id);
        PushEvent(std::move(event));
        break;
      }
      case SliceContext::Op::kCancelTimer:
        pending_timers_.erase(op->timer_id);
        break;
    }
  }
  // Leave the clock where the last slice that ran anything put it.
  if (batch->any_advance) now_ = batch->end_time;
}

void SimNetwork::StepBatch() {
  SimTime t = 0;
  std::vector<Event> slice = PopSlice(&t);
  ++parallel_stats_.slices;
  parallel_stats_.events += slice.size();
  parallel_stats_.max_slice_events =
      std::max<uint64_t>(parallel_stats_.max_slice_events, slice.size());

  // Driver-context timers (empty affinity: sweeps, completion strawmen,
  // crash/restart schedules) may touch global state such as listener tables
  // directly, so their slice keeps exact legacy semantics, serially.
  const bool driver_slice =
      std::any_of(slice.begin(), slice.end(), [](const Event& e) {
        return e.timer != nullptr && e.affinity.empty();
      });
  size_t partitions = 0;
  if (!driver_slice) {
    std::set<std::string_view> keys;
    for (const Event& event : slice) {
      keys.insert(event.timer ? std::string_view(event.affinity)
                              : std::string_view(event.to.host));
    }
    partitions = keys.size();
  }
  if (driver_slice || partitions < options_.min_parallel_partitions ||
      slice.size() < options_.min_parallel_events) {
    // Too narrow to pay for buffering and a fork/join (or driver-bound):
    // the legacy loop is both correct and faster here.
    parallel_stats_.max_slice_partitions =
        std::max<uint64_t>(parallel_stats_.max_slice_partitions,
                           driver_slice ? 1 : partitions);
    ++parallel_stats_.serial_slices;
    parallel_stats_.serial_events += slice.size();
    for (Event& event : slice) DispatchEventLegacy(std::move(event));
    return;
  }

  BatchState batch;
  RunBatchSlice(&batch, std::move(slice), t);
  while (options_.coalesce_slices &&
         batch.num_slices < kMaxCoalesceSlices &&
         CanExtendBatch(batch)) {
    slice = PopSlice(&t);
    ++parallel_stats_.slices;
    parallel_stats_.events += slice.size();
    parallel_stats_.max_slice_events =
        std::max<uint64_t>(parallel_stats_.max_slice_events, slice.size());
    RunBatchSlice(&batch, std::move(slice), t);
  }
  if (batch.num_slices >= 2) {
    ++parallel_stats_.coalesced_batches;
    parallel_stats_.coalesced_slices += batch.num_slices;
  }
  CommitBatch(&batch);
}

void SimNetwork::RunStepped() {
  while (!events_.empty()) {
    StepBatch();
  }
}

}  // namespace webdis::net
