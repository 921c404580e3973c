#include "net/reliable.h"

#include <algorithm>
#include <utility>

#include "serialize/encoder.h"

namespace webdis::net {

Status ReliableSender::Send(const Endpoint& from, const Endpoint& to,
                            MessageType type, std::vector<uint8_t> payload) {
  if (!enabled()) {
    return transport_->Send(from, to, type, std::move(payload));
  }
  const uint64_t seq = next_seq_++;
  serialize::Encoder enc;
  enc.PutU64(seq);
  enc.PutRaw(payload.data(), payload.size());
  std::vector<uint8_t> enveloped = enc.Release();

  Status status = transport_->Send(from, to, type, enveloped);
  if (status.code() == StatusCode::kConnectionRefused) {
    // First-attempt refusal is synchronous protocol signal (passive
    // termination, crashed next hop) — report it, track nothing.
    return status;
  }
  ++stats_.tracked;
  Pending pending;
  pending.from = from;
  pending.to = to;
  pending.type = type;
  pending.enveloped = std::move(enveloped);
  pending.attempts = 1;
  pending.timeout = options_.initial_timeout;
  pending_.emplace(seq, std::move(pending));
  Arm(seq);
  return status;
}

void ReliableSender::Arm(uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;
  it->second.timer = transport_->ScheduleAfter(
      it->second.timeout, [this, seq] { OnTimeout(seq); });
}

void ReliableSender::OnTimeout(uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;  // acked while the timer was in flight
  Pending& pending = it->second;
  if (pending.attempts >= options_.max_attempts) {
    ++stats_.exhausted;
    const Endpoint to = pending.to;
    pending_.erase(it);
    Notify(to, DeliveryEvent::kExhausted);
    return;
  }
  ++pending.attempts;
  ++stats_.retries;
  Status resend = transport_->Send(pending.from, pending.to, pending.type,
                                   pending.enveloped);
  if (resend.code() == StatusCode::kConnectionRefused) {
    // The destination is gone (crashed, or the user site closed its result
    // socket after completion). The original Send already succeeded from
    // the caller's view; stop retrying quietly.
    ++stats_.refused_on_retry;
    const Endpoint to = pending.to;
    pending_.erase(it);
    Notify(to, DeliveryEvent::kRefusedOnRetry);
    return;
  }
  if (!pending.overloaded) {
    pending.timeout = std::min<SimDuration>(
        static_cast<SimDuration>(static_cast<double>(pending.timeout) *
                                 options_.backoff_factor),
        options_.max_timeout);
  }
  // Overloaded transfers keep their interval here: growth happens in
  // OnOverloaded, where the NACK confirms the destination is still shedding.
  Arm(seq);
}

void ReliableSender::OnAck(const std::vector<uint8_t>& payload) {
  serialize::Decoder dec(payload);
  uint64_t seq = 0;
  if (!dec.GetU64(&seq).ok() || !dec.ExpectAtEnd("delivery ack").ok()) {
    return;  // malformed ack: ignore
  }
  auto it = pending_.find(seq);
  if (it == pending_.end()) {
    ++stats_.duplicate_acks;
    return;
  }
  if (it->second.timer != 0) transport_->CancelTimer(it->second.timer);
  const Endpoint to = it->second.to;
  pending_.erase(it);
  ++stats_.acked;
  Notify(to, DeliveryEvent::kAcked);
}

void ReliableSender::OnOverloaded(const std::vector<uint8_t>& payload) {
  serialize::Decoder dec(payload);
  uint64_t seq = 0;
  if (!dec.GetU64(&seq).ok() || !dec.ExpectAtEnd("overload nack").ok()) {
    return;  // malformed NACK: ignore
  }
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;  // already acked, NACKed, or abandoned
  Pending& pending = it->second;
  ++stats_.overload_nacks;
  if (pending.timer != 0) transport_->CancelTimer(pending.timer);
  pending.timer = 0;
  if (!pending.overloaded) {
    // Class change: restart the schedule at the (longer) overload base.
    pending.overloaded = true;
    pending.timeout = options_.overload_initial_timeout;
  } else {
    pending.timeout = static_cast<SimDuration>(
        static_cast<double>(pending.timeout) * options_.overload_backoff_factor);
  }
  pending.timeout = JitterOverload(pending.timeout);
  Arm(seq);
  Notify(pending.to, DeliveryEvent::kOverloadNack);
}

void ReliableSender::OnSiteRetired(const std::vector<uint8_t>& payload) {
  serialize::Decoder dec(payload);
  uint64_t seq = 0;
  if (!dec.GetU64(&seq).ok() || !dec.ExpectAtEnd("site-retired nack").ok()) {
    return;  // malformed NACK: ignore
  }
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;  // already acked, NACKed, or abandoned
  // Terminal: the site is gone for good. Cancel the retransmission timer
  // and drop the transfer — retrying against a retired site only burns
  // attempts that the retired side will NACK again.
  if (it->second.timer != 0) transport_->CancelTimer(it->second.timer);
  const Endpoint to = it->second.to;
  pending_.erase(it);
  ++stats_.site_retired;
  Notify(to, DeliveryEvent::kSiteRetired);
}

SimDuration ReliableSender::JitterOverload(SimDuration timeout) {
  const double j = options_.overload_jitter;
  if (j > 0.0) {
    const double factor = 1.0 - j / 2.0 + j * jitter_rng_.NextDouble();
    timeout = static_cast<SimDuration>(static_cast<double>(timeout) * factor);
  }
  if (timeout < 1) timeout = 1;
  return std::min(timeout, options_.overload_max_timeout);
}

void ReliableSender::CancelAll() {
  for (auto& [seq, pending] : pending_) {
    if (pending.timer != 0) transport_->CancelTimer(pending.timer);
  }
  pending_.clear();
}

bool ReliableReceiver::Accept(const Endpoint& self, const Endpoint& from,
                              const std::vector<uint8_t>& payload,
                              std::vector<uint8_t>* inner) {
  if (!enabled_) {
    *inner = payload;
    return true;
  }
  uint64_t seq = 0;
  if (!PeekSeq(payload, &seq)) return false;  // malformed envelope: drop
  // AcceptSeq always acknowledges — the sender may be retrying because the
  // previous ack was lost — and refuses a replay: already processed.
  return AcceptSeq(self, from, seq) && StripEnvelope(payload, inner);
}

bool ReliableReceiver::PeekSeq(const std::vector<uint8_t>& payload,
                               uint64_t* seq) {
  serialize::Decoder dec(payload);
  return dec.GetU64(seq).ok();
}

bool ReliableReceiver::StripEnvelope(const std::vector<uint8_t>& payload,
                                     std::vector<uint8_t>* inner) {
  serialize::Decoder dec(payload);
  uint64_t seq = 0;
  if (!dec.GetU64(&seq).ok()) return false;
  inner->assign(payload.begin() + dec.position(), payload.end());
  return true;
}

bool ReliableReceiver::TestSeen(const Endpoint& from, uint64_t seq) const {
  auto it = seen_.find(from);
  return it != seen_.end() && it->second.count(seq) != 0;
}

void ReliableReceiver::SendAck(const Endpoint& self, const Endpoint& from,
                               uint64_t seq) {
  serialize::Encoder ack;
  ack.PutU64(seq);
  // Refusal is fine: the sender may already be gone.
  (void)transport_->Send(self, from, MessageType::kDeliveryAck, ack.Release());
}

void ReliableReceiver::SendOverloaded(const Endpoint& self,
                                      const Endpoint& from, uint64_t seq) {
  serialize::Encoder nack;
  nack.PutU64(seq);
  (void)transport_->Send(self, from, MessageType::kOverloaded, nack.Release());
}

void ReliableReceiver::SendSiteRetired(const Endpoint& self,
                                       const Endpoint& from, uint64_t seq) {
  serialize::Encoder nack;
  nack.PutU64(seq);
  // Refusal is fine: the sender may already be gone.
  (void)transport_->Send(self, from, MessageType::kSiteRetired,
                         nack.Release());
}

bool ReliableReceiver::AcceptSeq(const Endpoint& self, const Endpoint& from,
                                 uint64_t seq) {
  SendAck(self, from, seq);
  if (!seen_[from].insert(seq).second) {
    ++suppressed_;
    return false;
  }
  return true;
}

}  // namespace webdis::net
