#include "net/sim.h"

#include "common/logging.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "net/fault.h"
#include "serialize/framing.h"

namespace webdis::net {

SimNetwork::SimNetwork(SimNetworkOptions options)
    : options_(std::move(options)), jitter_rng_(options_.jitter_seed) {}

SimNetwork::~SimNetwork() = default;

Status SimNetwork::Listen(const Endpoint& endpoint, MessageHandler handler) {
  // A listener bound mid-slice would be invisible to the other partitions'
  // sends until the barrier, so refusals would differ from the legacy loop.
  WEBDIS_CHECK(CurrentSliceContext(this) == nullptr)
      << "Listen(" << endpoint.ToString()
      << ") inside a stepped slice: bind listeners from the driver or a "
         "driver-context timer";
  if (listeners_.contains(endpoint)) {
    return Status::InvalidArgument(StringPrintf(
        "endpoint %s already bound", endpoint.ToString().c_str()));
  }
  listeners_.emplace(endpoint, std::move(handler));
  return Status::OK();
}

void SimNetwork::CloseListener(const Endpoint& endpoint) {
  if (SliceContext* ctx = CurrentSliceContext(this); ctx != nullptr) {
    SliceCloseListener(ctx, endpoint);
    return;
  }
  listeners_.erase(endpoint);
  busy_until_.erase(endpoint);
}

Status SimNetwork::Send(const Endpoint& from, const Endpoint& to,
                        MessageType type, std::vector<uint8_t> payload) {
  if (SliceContext* ctx = CurrentSliceContext(this); ctx != nullptr) {
    return SliceSend(ctx, from, to, type, std::move(payload));
  }
  // Connect-time check: no listener means connection refused, which the
  // caller observes synchronously (like a failed TCP connect).
  if (!listeners_.contains(to)) {
    ++refused_;
    return Status::ConnectionRefused(StringPrintf(
        "no listener at %s", to.ToString().c_str()));
  }
  return SendAccepted(from, to, type, std::move(payload));
}

Status SimNetwork::SendAccepted(const Endpoint& from, const Endpoint& to,
                                MessageType type,
                                std::vector<uint8_t> payload) {
  // Meter the wire cost: payload plus the frame header every transport
  // prepends.
  const uint64_t wire_bytes =
      payload.size() + serialize::kFrameHeaderSize;
  total_.Add(wire_bytes);
  by_type_[type].Add(wire_bytes);
  const bool crosses_hosts = from.host != to.host;
  if (crosses_hosts) inter_host_.Add(wire_bytes);

  FaultDecision fault;
  if (fault_plan_ != nullptr) {
    fault = fault_plan_->Decide(from, to, type, now_);
    if (fault.drop) {
      ++dropped_;
      return Status::OK();  // accepted, then lost in flight
    }
  }
  // Duplicated messages model a retransmission racing its original: each
  // copy takes an independent trip through latency jitter and the serial
  // receive queue.
  for (uint32_t i = 0; i < fault.duplicates; ++i) {
    EnqueueDelivery(from, to, type, payload, fault.extra_delay, wire_bytes);
  }
  EnqueueDelivery(from, to, type, std::move(payload), fault.extra_delay,
                  wire_bytes);
  return Status::OK();
}

void SimNetwork::EnqueueDelivery(const Endpoint& from, const Endpoint& to,
                                 MessageType type,
                                 std::vector<uint8_t> payload,
                                 SimDuration extra_delay,
                                 uint64_t wire_bytes) {
  SimDuration latency = (from.host != to.host) ? options_.inter_host_latency
                                               : options_.same_host_latency;
  latency += extra_delay;
  if (options_.latency_jitter > 0) {
    latency += jitter_rng_.Uniform(options_.latency_jitter + 1);
  }
  if (!host_extra_latency_.empty()) {
    auto from_extra = host_extra_latency_.find(from.host);
    if (from_extra != host_extra_latency_.end()) {
      latency += from_extra->second;
    }
    auto to_extra = host_extra_latency_.find(to.host);
    if (to_extra != host_extra_latency_.end()) {
      latency += to_extra->second;
    }
  }
  const SimDuration transfer =
      options_.bandwidth_bytes_per_sec == 0
          ? 0
          : (wire_bytes * kSecond) / options_.bandwidth_bytes_per_sec;
  Event event;
  SimTime deliver_at = now_ + latency + transfer;
  if (options_.service_time) {
    // The receiving endpoint is a serial queue: handling starts when both
    // the message has arrived and the previous message is done.
    const SimDuration service =
        options_.service_time(to, type, wire_bytes);
    SimTime& busy_until = busy_until_[to];
    deliver_at = std::max(deliver_at, busy_until) + service;
    busy_until = deliver_at;
  }
  event.deliver_at = deliver_at;
  event.sequence = next_sequence_++;
  event.from = from;
  event.to = to;
  event.type = type;
  event.payload = std::move(payload);
  PushEvent(std::move(event));
}

void SimNetwork::PushEvent(Event event) {
  const auto key = std::make_pair(event.deliver_at, event.sequence);
  events_.emplace(key, std::move(event));
}

uint64_t SimNetwork::ScheduleAfter(SimDuration delay,
                                   std::function<void()> fn) {
  if (SliceContext* ctx = CurrentSliceContext(this); ctx != nullptr) {
    return SliceScheduleAfter(ctx, delay, std::move(fn));
  }
  Event event;
  event.deliver_at = now_ + delay;
  event.sequence = next_sequence_++;
  event.timer = std::move(fn);
  event.timer_id = next_timer_id_++;
  pending_timers_.insert(event.timer_id);
  const uint64_t id = event.timer_id;
  PushEvent(std::move(event));
  return id;
}

bool SimNetwork::CancelTimer(uint64_t id) {
  if (SliceContext* ctx = CurrentSliceContext(this); ctx != nullptr) {
    return SliceCancelTimer(ctx, id);
  }
  // The queued event stays; RunOne skips it when the id is no longer
  // pending.
  return pending_timers_.erase(id) > 0;
}

bool SimNetwork::RunOne() {
  if (events_.empty()) return false;
  auto it = events_.begin();
  Event event = std::move(it->second);
  events_.erase(it);
  DispatchEventLegacy(std::move(event));
  return true;
}

void SimNetwork::DispatchEventLegacy(Event event) {
  if (event.timer) {
    if (pending_timers_.erase(event.timer_id) == 0) {
      return;  // cancelled while queued
    }
    now_ = event.deliver_at;
    ++timers_fired_;
    WEBDIS_CHECK(delivered_ + timers_fired_ <= kMaxDeliveries)
        << "simulated network exceeded kMaxDeliveries — runaway timers?";
    event.timer();
    return;
  }
  now_ = event.deliver_at;
  ++delivered_;
  WEBDIS_CHECK(delivered_ + timers_fired_ <= kMaxDeliveries)
      << "simulated network exceeded kMaxDeliveries — runaway forwarding?";
  auto it = listeners_.find(event.to);
  if (it == listeners_.end()) {
    // Listener closed while the message was in flight: silently dropped,
    // exactly like packets racing a socket close.
    ++dropped_;
    return;
  }
  // Copy the handler: the handler itself may close/re-register listeners.
  MessageHandler handler = it->second;
  handler(event.from, event.type, event.payload);
}

void SimNetwork::RunUntilIdle() {
  if (options_.worker_threads > 0) {
    RunStepped();
    return;
  }
  while (RunOne()) {
  }
}

void SimNetwork::SetHostExtraLatency(const std::string& host,
                                     SimDuration extra) {
  host_extra_latency_[host] = extra;
}

void SimNetwork::KillHost(const std::string& host) {
  for (auto it = listeners_.begin(); it != listeners_.end();) {
    if (it->first.host == host) {
      it = listeners_.erase(it);
    } else {
      ++it;
    }
  }
}

const TrafficStats& SimNetwork::traffic_for(MessageType type) const {
  static const TrafficStats kEmpty;
  auto it = by_type_.find(type);
  return it == by_type_.end() ? kEmpty : it->second;
}

void SimNetwork::ResetMetrics() {
  total_ = TrafficStats();
  inter_host_ = TrafficStats();
  by_type_.clear();
  refused_ = 0;
  dropped_ = 0;
  delivered_ = 0;
}

}  // namespace webdis::net
