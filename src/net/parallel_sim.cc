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
// partition's SliceContext, which buffers the operation tagged with (issuing
// event sequence, issue index). After the barrier, the driving thread
// replays all buffers in that tag order, which is exactly the order the
// sequential loop would have issued them — so the jitter RNG stream, the
// per-endpoint busy_until_ queues, sequence-number assignment, fault-plan
// decisions and traffic meters evolve bit-identically for any worker count.
//
// Every slice commits before the next one is popped. An effect a slice
// buffers can land no earlier than the slice's own time, and one landing at
// it enters the queue with a sequence above every event the slice popped —
// so it runs in the next slice, which is where the sequential loop runs it
// too.
//
// A slice with fewer than two host partitions has nothing to overlap, and a
// slice holding a driver-context timer (empty affinity: sweeps, crash and
// restart schedules) may touch global state directly; both run through the
// legacy serial dispatch.
//
// Visibility rule: a partition sees its own CloseListener at once (its
// `closed` set) and every other partition's at the barrier. Two
// preconditions, both CHECKed, keep that view equal to the sequential
// loop's: no handler binds a listener inside a stepped slice, and a handler
// closes only its own host's endpoints. The one case left — partition S
// sends to an endpoint that partition U closed earlier in the slice's
// sequence order, which the sequential loop refuses — stops the run at the
// barrier instead of diverging. Handlers must confine their state to their
// endpoint's host (the confinement rule checked by tools/webdis_lint.py);
// timers carry the affinity of the context that armed them.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "net/sim.h"

namespace webdis::net {

struct SimNetwork::SliceContext {
  struct Op {
    enum Kind {
      kSend,
      kCloseListener,
      kScheduleTimer,
      kCancelTimer,
    };
    Kind kind;
    uint64_t seq = 0;    // sequence of the slice event that issued the op
    uint32_t index = 0;  // issue order within that event's handler
    Endpoint from;
    Endpoint to;  // also the endpoint for kCloseListener
    MessageType type{};
    std::vector<uint8_t> payload;
    SimDuration delay = 0;           // kScheduleTimer
    std::function<void()> timer_fn;  // kScheduleTimer
    uint64_t timer_id = 0;           // kScheduleTimer / kCancelTimer
    std::string affinity;            // kScheduleTimer
  };

  SimNetwork* net = nullptr;
  std::string key;            // partition affinity (destination host)
  // This partition's events in sequence order, pointing into the slice,
  // which outlives the fork/join and the commit.
  std::vector<Event*> events;
  // Endpoints this partition closed during the slice, all on its own host.
  // Its later events see them closed; the base map stays frozen until the
  // barrier.
  std::set<Endpoint> closed;
  std::set<uint64_t> scheduled;  // timer ids armed during this slice
  std::set<uint64_t> cancelled;  // timer ids cancelled during this slice
  std::set<uint64_t> fired;      // timer ids fired during this slice
  std::vector<Op> ops;
  uint64_t current_seq = 0;
  uint32_t op_index = 0;
  uint64_t delivered = 0;
  uint64_t refused = 0;
  uint64_t dropped = 0;
  uint64_t timers_fired = 0;

  Op& PushOp(Op::Kind kind) {
    Op& op = ops.emplace_back();
    op.kind = kind;
    op.seq = current_seq;
    op.index = op_index++;
    return op;
  }
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
  // the slice view: own closes first, then the frozen base map.
  if (ctx->closed.contains(to) || !listeners_.contains(to)) {
    ++ctx->refused;
    return Status::ConnectionRefused(
        StringPrintf("no listener at %s", to.ToString().c_str()));
  }
  SliceContext::Op& op = ctx->PushOp(SliceContext::Op::kSend);
  op.from = from;
  op.to = to;
  op.type = type;
  op.payload = std::move(payload);
  return Status::OK();
}

void SimNetwork::SliceCloseListener(SliceContext* ctx,
                                    const Endpoint& endpoint) {
  // Another host's partition may already have resolved a send against this
  // endpoint; only the owner's partition sees its closes in sequence.
  WEBDIS_CHECK(endpoint.host == ctx->key)
      << "CloseListener(" << endpoint.ToString() << ") from host "
      << ctx->key
      << " inside a stepped slice: a handler closes only its own host's "
         "endpoints";
  ctx->closed.insert(endpoint);
  ctx->PushOp(SliceContext::Op::kCloseListener).to = endpoint;
}

uint64_t SimNetwork::SliceScheduleAfter(SliceContext* ctx, SimDuration delay,
                                        std::function<void()> fn) {
  const uint64_t id = next_timer_id_.fetch_add(1, std::memory_order_relaxed);
  ctx->scheduled.insert(id);
  SliceContext::Op& op = ctx->PushOp(SliceContext::Op::kScheduleTimer);
  op.delay = delay;
  op.timer_fn = std::move(fn);
  op.timer_id = id;
  op.affinity = ctx->key;  // the new timer fires on the arming partition
  return id;
}

bool SimNetwork::SliceCancelTimer(SliceContext* ctx, uint64_t id) {
  if (ctx->cancelled.contains(id)) return false;  // already cancelled
  if (ctx->fired.contains(id)) return false;      // fired earlier this slice
  const bool was_pending =
      ctx->scheduled.contains(id) || pending_timers_.contains(id);
  if (!was_pending) return false;
  ctx->cancelled.insert(id);
  ctx->PushOp(SliceContext::Op::kCancelTimer).timer_id = id;
  return true;
}

void SimNetwork::DispatchSlice(SliceContext* ctx) {
  for (Event* event : ctx->events) {
    ctx->current_seq = event->sequence;
    ctx->op_index = 0;
    if (event->timer) {
      // Skip timers cancelled before this slice (no longer pending) or by
      // an earlier event of this partition; same rule as the legacy loop.
      // A timer fires on the partition that armed it, whose host state
      // alone holds its id, so no other partition cancels it.
      if (!pending_timers_.contains(event->timer_id) ||
          ctx->cancelled.contains(event->timer_id)) {
        continue;
      }
      ctx->fired.insert(event->timer_id);
      ++ctx->timers_fired;
      event->timer();
      continue;
    }
    ++ctx->delivered;
    auto it = listeners_.find(event->to);
    if (it == listeners_.end() || ctx->closed.contains(event->to)) {
      ++ctx->dropped;
      continue;
    }
    // No copy needed: the base map stays frozen until the barrier.
    it->second(event->from, event->type, event->payload);
  }
}

void SimNetwork::StepSlice() {
  // 1. Pop every event at the minimum timestamp.
  const SimTime t = events_.begin()->first.first;
  std::vector<Event> slice;
  for (auto it = events_.begin();
       it != events_.end() && it->first.first == t;) {
    slice.push_back(std::move(it->second));
    it = events_.erase(it);
  }
  ++parallel_stats_.slices;
  parallel_stats_.events += slice.size();
  parallel_stats_.max_slice_events =
      std::max<uint64_t>(parallel_stats_.max_slice_events, slice.size());

  // 2. A slice with a driver-context timer may touch global state such as
  // the listener table directly, and a slice on one host has nothing to
  // overlap: both run through the legacy dispatch, serially.
  const auto host_of = [](const Event& e) -> const std::string& {
    return e.timer ? e.affinity : e.to.host;
  };
  const bool driver_slice =
      std::any_of(slice.begin(), slice.end(), [](const Event& e) {
        return e.timer != nullptr && e.affinity.empty();
      });
  const std::string& first_host = host_of(slice.front());
  if (driver_slice ||
      std::all_of(slice.begin(), slice.end(), [&](const Event& e) {
        return host_of(e) == first_host;
      })) {
    parallel_stats_.max_slice_partitions =
        std::max<uint64_t>(parallel_stats_.max_slice_partitions, 1);
    ++parallel_stats_.serial_slices;
    parallel_stats_.serial_events += slice.size();
    for (Event& event : slice) DispatchEventLegacy(std::move(event));
    return;
  }

  // 3. Partition by host in first-appearance (= sequence) order, fork/join
  // the partitions, then commit once. The clock advances exactly when the
  // legacy loop's would: with the first event that runs, so a slice of
  // nothing but cancelled timers leaves `now_`. Workers read `now_` during
  // the fork/join; the driving thread only writes it outside it.
  if (std::any_of(slice.begin(), slice.end(), [this](const Event& e) {
        return e.timer == nullptr || pending_timers_.contains(e.timer_id);
      })) {
    now_ = t;
  }
  std::vector<SliceContext> parts;
  std::map<std::string_view, size_t> part_index;
  for (Event& event : slice) {
    auto [it, inserted] = part_index.try_emplace(host_of(event), parts.size());
    if (inserted) {
      parts.emplace_back().net = this;
      parts.back().key = it->first;
    }
    parts[it->second].events.push_back(&event);
  }
  parallel_stats_.max_slice_partitions =
      std::max<uint64_t>(parallel_stats_.max_slice_partitions, parts.size());
  ++parallel_stats_.parallel_slices;
  parallel_stats_.parallel_events += slice.size();
  if (pool_ == nullptr) {
    pool_ = std::make_unique<common::ThreadPool>(options_.worker_threads - 1);
  }
  pool_->RunBatch(parts.size(), [this, &parts](size_t i) {
    ThreadSliceContext() = &parts[i];
    DispatchSlice(&parts[i]);
    ThreadSliceContext() = nullptr;
  });

  std::vector<SliceContext::Op*> ops;
  for (SliceContext& ctx : parts) {
    delivered_ += ctx.delivered;
    refused_ += ctx.refused;
    dropped_ += ctx.dropped;
    timers_fired_ += ctx.timers_fired;
    for (SliceContext::Op& op : ctx.ops) ops.push_back(&op);
  }
  // Every timer event the slice consumed leaves the pending set, whether it
  // fired or had been cancelled.
  for (const Event& event : slice) {
    if (event.timer) pending_timers_.erase(event.timer_id);
  }
  WEBDIS_CHECK(delivered_ + timers_fired_ <= kMaxDeliveries)
      << "simulated network exceeded kMaxDeliveries — runaway forwarding?";
  // Replay in (sequence, issue index) order — the order the sequential loop
  // issued them in.
  std::sort(ops.begin(), ops.end(),
            [](const SliceContext::Op* a, const SliceContext::Op* b) {
              return std::tie(a->seq, a->index) < std::tie(b->seq, b->index);
            });
  for (SliceContext::Op* op : ops) {
    switch (op->kind) {
      case SliceContext::Op::kSend: {
        // The sender saw the destination listening; only a close replayed
        // before this send, i.e. issued earlier in the slice by the
        // destination's host, can have removed it since.
        WEBDIS_CHECK(listeners_.contains(op->to))
            << op->from.ToString() << " sent to " << op->to.ToString()
            << ", closed earlier in the same slice: the sequential loop "
               "refuses this send";
        const Status accepted =
            SendAccepted(op->from, op->to, op->type, std::move(op->payload));
        WEBDIS_CHECK(accepted.ok());
        break;
      }
      case SliceContext::Op::kCloseListener:
        listeners_.erase(op->to);
        busy_until_.erase(op->to);
        break;
      case SliceContext::Op::kScheduleTimer: {
        Event event;
        event.deliver_at = now_ + op->delay;
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
}

void SimNetwork::RunStepped() {
  while (!events_.empty()) {
    StepSlice();
  }
}

}  // namespace webdis::net
