#ifndef WEBDIS_NET_RELIABLE_H_
#define WEBDIS_NET_RELIABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "net/transport.h"

namespace webdis::net {

/// Tuning for the at-least-once delivery layer. Disabled by default: the
/// paper assumes reliable-once-accepted 1999 TCP, and the seed protocol
/// (including its golden wire format) stays byte-identical unless a
/// deployment opts in.
struct RetryOptions {
  bool enabled = false;
  /// First retransmission fires this long after the original send.
  SimDuration initial_timeout = 200 * kMillisecond;
  /// Timeout grows by this factor per retransmission, capped below.
  double backoff_factor = 2.0;
  SimDuration max_timeout = 2 * kSecond;
  /// Total attempts (original + retransmissions). When exhausted the
  /// transfer is abandoned — recovery then falls to the receiver side
  /// (CHT deadline GC at the user site).
  uint32_t max_attempts = 5;

  /// Overload backoff class (PROTOCOL.md §7.2). A transfer NACKed with
  /// MessageType::kOverloaded proved the host is *alive but saturated* —
  /// retrying on the loss-recovery schedule above would pile on. Once
  /// NACKed, a transfer re-arms on this longer, jittered schedule instead.
  SimDuration overload_initial_timeout = 800 * kMillisecond;
  double overload_backoff_factor = 2.0;
  SimDuration overload_max_timeout = 8 * kSecond;
  /// Timeout is multiplied by a uniform factor in [1 - j/2, 1 + j/2] so a
  /// cohort of shed senders does not retry in lockstep. The cap above is
  /// applied *after* jitter, so it is a hard bound.
  double overload_jitter = 0.5;
  /// Seed for the jitter stream (deterministic under SimNetwork).
  uint64_t jitter_seed = 1;
};

struct RetryStats {
  uint64_t tracked = 0;          // transfers sent with delivery tracking
  uint64_t retries = 0;          // retransmissions put on the wire
  uint64_t acked = 0;            // transfers confirmed by a DeliveryAck
  uint64_t duplicate_acks = 0;   // acks for transfers no longer tracked
  uint64_t exhausted = 0;        // transfers abandoned after max_attempts
  uint64_t refused_on_retry = 0; // retransmissions refused at connect time
  uint64_t overload_nacks = 0;   // kOverloaded NACKs received
  uint64_t site_retired = 0;     // kSiteRetired terminal NACKs received
};

/// Terminal (or class-changing) per-transfer outcomes, surfaced to the
/// delivery observer so the owner can feed a circuit breaker: an ack is
/// evidence the destination is healthy; exhaustion and refusal-on-retry are
/// evidence it is not. An overload NACK is deliberately *neither* — the
/// host answered, it is alive, just saturated.
enum class DeliveryEvent {
  kAcked,
  kExhausted,
  kRefusedOnRetry,
  kOverloadNack,
  /// §10.2: the destination answered kSiteRetired — it is gone for good.
  /// Terminal like kRefusedOnRetry (retrying is futile), and the owner
  /// should feed it to the breaker as failure evidence so later sends to
  /// the host short-circuit.
  kSiteRetired,
};

/// Sender half of at-least-once delivery for clone forwarding and report
/// dispatch. Each tracked Send prepends a `u64 transfer_seq` envelope and
/// arms a retransmission timer with capped exponential backoff; the timer
/// is disarmed when the matching MessageType::kDeliveryAck arrives (the
/// owner routes those to OnAck).
///
/// Failure semantics are preserved where the protocol depends on them: a
/// synchronous ConnectionRefused on the *first* attempt passes through
/// untracked, because passive termination (§2.8) and the crashed-next-hop
/// report path both act on it. Refusal on a retransmission stops the timer
/// silently — by then the original Send already reported success.
///
/// Inert unless both options.enabled and the transport supports timers;
/// when inert, Send is a plain pass-through with no envelope.
class ReliableSender {
 public:
  ReliableSender(Transport* transport, RetryOptions options)
      : transport_(transport),
        options_(options),
        jitter_rng_(options.jitter_seed) {}
  ~ReliableSender() { CancelAll(); }

  ReliableSender(const ReliableSender&) = delete;
  ReliableSender& operator=(const ReliableSender&) = delete;

  bool enabled() const {
    return options_.enabled && transport_->SupportsTimers();
  }

  /// Sends `payload` as `type`, tracked for redelivery when enabled().
  /// `from` must be an endpoint this sender's owner listens on: acks come
  /// back to it.
  Status Send(const Endpoint& from, const Endpoint& to, MessageType type,
              std::vector<uint8_t> payload);

  /// Routes a received kDeliveryAck payload (u64 transfer_seq) here.
  void OnAck(const std::vector<uint8_t>& payload);

  /// Routes a received kOverloaded payload (u64 transfer_seq) here: the
  /// receiver shed the transfer. The pending entry moves to the overload
  /// backoff class and re-arms with a longer, jittered timeout.
  void OnOverloaded(const std::vector<uint8_t>& payload);

  /// Routes a received kSiteRetired payload (u64 transfer_seq) here: the
  /// destination site retired (§10.2). Unlike kOverloaded this is
  /// *terminal* — the transfer is abandoned immediately, like a
  /// synchronous ConnectionRefused, and no further retransmission is ever
  /// scheduled. The retired site already converted the transfer's nodes
  /// into named degraded reports, so nothing is silently lost.
  void OnSiteRetired(const std::vector<uint8_t>& payload);

  /// Observes per-transfer outcomes (see DeliveryEvent). Called with the
  /// destination endpoint; the owner typically feeds a HostBreakers.
  void set_delivery_observer(
      std::function<void(const Endpoint& to, DeliveryEvent event)> observer) {
    observer_ = std::move(observer);
  }

  /// Drops all in-flight tracking and cancels timers (crash semantics:
  /// pending retransmissions are volatile state).
  void CancelAll();

  const RetryStats& stats() const { return stats_; }
  uint64_t pending_count() const { return pending_.size(); }

 private:
  struct Pending {
    Endpoint from;
    Endpoint to;
    MessageType type;
    std::vector<uint8_t> enveloped;  // seq header + payload, as wired
    uint32_t attempts = 1;
    SimDuration timeout = 0;
    uint64_t timer = 0;
    bool overloaded = false;  // NACKed at least once: overload backoff class
  };

  void Arm(uint64_t seq);
  void OnTimeout(uint64_t seq);
  void Notify(const Endpoint& to, DeliveryEvent event) {
    if (observer_) observer_(to, event);
  }
  /// Applies the overload jitter factor, then the overload cap.
  SimDuration JitterOverload(SimDuration timeout);

  Transport* transport_;
  RetryOptions options_;
  uint64_t next_seq_ = 1;
  std::map<uint64_t, Pending> pending_;
  RetryStats stats_;
  std::function<void(const Endpoint& to, DeliveryEvent event)> observer_;
  Rng jitter_rng_;
};

/// Receiver half: strips the transfer envelope, acknowledges every copy,
/// and reports replays so the owner can drop them *before* any protocol
/// processing. Exact-duplicate suppression must happen ahead of the log
/// table: a redelivered clone that reached the log-table check would emit a
/// second duplicate-drop report and unbalance the robust CHT's add/delete
/// counts.
class ReliableReceiver {
 public:
  /// `enabled` must match the sender side's enabled() — the envelope is not
  /// self-describing.
  ReliableReceiver(Transport* transport, bool enabled)
      : transport_(transport), enabled_(enabled) {}

  /// Decodes one received payload. Returns true with the inner payload in
  /// `*inner` when the owner should process it; false for replays (already
  /// acknowledged) and malformed envelopes. When disabled, passes the
  /// payload through untouched. `self` is the endpoint the message arrived
  /// on (the ack's source), `from` the sender to ack back to.
  bool Accept(const Endpoint& self, const Endpoint& from,
              const std::vector<uint8_t>& payload,
              std::vector<uint8_t>* inner);

  /// --- Deferred-acceptance API (admission control, PROTOCOL.md §7.2) ---
  /// An admission-controlled server must NOT ack a transfer it may still
  /// shed: the ack would stop the sender's retries and turn the shed into
  /// silent loss. Instead it peeks the envelope on arrival, decides
  /// admission, and acks only when the clone is actually dequeued for
  /// processing (AcceptSeq) — or NACKs it (SendOverloaded).

  /// Decodes the u64 transfer_seq from an enveloped payload without acking
  /// or recording anything. False on a malformed envelope.
  static bool PeekSeq(const std::vector<uint8_t>& payload, uint64_t* seq);

  /// Copies the inner payload (envelope stripped) without acking or
  /// recording anything. False on a malformed envelope.
  static bool StripEnvelope(const std::vector<uint8_t>& payload,
                            std::vector<uint8_t>* inner);

  /// True if this transfer was already accepted (a retransmission).
  bool TestSeen(const Endpoint& from, uint64_t seq) const;

  /// Sends the kOverloaded NACK for a shed transfer: the sender moves it to
  /// the overload backoff class and retries later.
  void SendOverloaded(const Endpoint& self, const Endpoint& from,
                      uint64_t seq);

  /// Sends the terminal kSiteRetired NACK (§10.2): this site retired and
  /// will never process the transfer. The sender abandons it immediately.
  void SendSiteRetired(const Endpoint& self, const Endpoint& from,
                       uint64_t seq);

  /// Commits acceptance of a peeked transfer: acks it and records the seq.
  /// Returns false for a replay (a retransmitted copy of a transfer that
  /// was already committed — the queue can briefly hold both).
  bool AcceptSeq(const Endpoint& self, const Endpoint& from, uint64_t seq);

  /// Forgets all receipt history (crash semantics: the dedup table is
  /// volatile, like the log table — after restart, redelivered transfers
  /// are processed anew and the protocol layers above absorb them).
  void Reset() { seen_.clear(); }

  /// --- Durability hooks (server/persist) ---
  /// The receipt history is exactly the state that makes "never process an
  /// acked transfer twice" survive a restart: a server that persists it can
  /// re-ack post-crash retransmissions instead of reprocessing them.

  /// Number of receipts ForEachSeen visits.
  size_t SeenCount() const {
    size_t count = 0;
    for (const auto& [from, seqs] : seen_) count += seqs.size();
    return count;
  }

  /// Visits every (sender, transfer_seq) receipt in deterministic order.
  void ForEachSeen(
      const std::function<void(const Endpoint& from, uint64_t seq)>& fn)
      const {
    for (const auto& [from, seqs] : seen_) {
      for (uint64_t seq : seqs) fn(from, seq);
    }
  }

  /// Re-records one receipt during recovery (no ack, no counters: the ack
  /// already happened in the pre-crash life; a retransmission arriving
  /// later is re-acked through the normal TestSeen path).
  void RestoreSeen(const Endpoint& from, uint64_t seq) {
    seen_[from].insert(seq);
  }

  bool enabled() const { return enabled_; }
  uint64_t suppressed_count() const { return suppressed_; }

 private:
  /// Acks without recording.
  void SendAck(const Endpoint& self, const Endpoint& from, uint64_t seq);

  Transport* transport_;
  bool enabled_;
  std::map<Endpoint, std::set<uint64_t>> seen_;
  uint64_t suppressed_ = 0;
};

}  // namespace webdis::net

#endif  // WEBDIS_NET_RELIABLE_H_
