#ifndef WEBDIS_NET_TRANSPORT_H_
#define WEBDIS_NET_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"

namespace webdis::net {

/// Application-level message types carried over the transport.
///
/// The trailing `payload:` annotations are machine-read by tools/webdis_lint
/// (wire-parity invariant): every constant must name its payload codec —
/// `struct <Type>` (EncodeTo/DecodeFrom pair), `codec <Enc>/<Dec>` (free
/// function pair), or a primitive like `u64 <field>` — and must have a
/// golden frame in tests/wire_golden_test.cc plus a "<Name> (type <N>)"
/// entry in PROTOCOL.md. Adding a constant without all three fails CI.
enum class MessageType : uint8_t {
  // A clone, sent to a query-server's well-known port.
  kWebQuery = 1,  // payload: struct query::WebQuery
  // Results + CHT entries, sent to the user-site result socket.
  kReport = 2,  // payload: struct query::QueryReport
  // Active termination (ablation of §2.8's passive mode).
  kTerminate = 3,  // payload: struct query::QueryId
  // Data-shipping baseline: document request.
  kFetchRequest = 4,  // payload: codec EncodeFetchRequest/DecodeFetchRequest
  // Data-shipping baseline: document contents.
  kFetchResponse = 5,  // payload: codec EncodeFetchResponse/DecodeFetchResponse
  // Ack-tree termination baseline (Related Work [4]).
  kAck = 6,  // payload: u64 ack_token
  // Per-transfer receipt of the at-least-once layer (PROTOCOL.md §6.1).
  kDeliveryAck = 7,  // payload: u64 transfer_seq
  // Admission-control NACK (PROTOCOL.md §7.2): the receiver shed the
  // transfer instead of processing it; the sender re-arms it under the
  // overload backoff class instead of retrying hot.
  kOverloaded = 8,  // payload: u64 transfer_seq
  // Cross-query sharing (PROTOCOL.md §9): clones of *different* queries
  // bound for the same destination host, carried in one framed message and
  // admitted atomically (all members or none).
  kCloneBatch = 9,  // payload: struct query::CloneBatch
  // Cross-query sharing (PROTOCOL.md §9): reports for different queries
  // bound for the same user-site host, batched per flush window.
  kReportBatch = 10,  // payload: struct query::ReportBatch
  // Site-churn NACK (PROTOCOL.md §10): the destination site retired — a
  // *terminal* outcome, unlike kOverloaded. The sender abandons the
  // transfer immediately instead of backing off to cap against a site
  // that will never come back.
  kSiteRetired = 11,  // payload: u64 transfer_seq
};

std::string_view MessageTypeToString(MessageType type);

/// A network address: host + port. In the simulated network hosts are
/// symbolic names; in the TCP transport every host maps to 127.0.0.1 and
/// ports distinguish the parties.
struct Endpoint {
  std::string host;
  uint16_t port = 0;

  std::string ToString() const;

  bool operator==(const Endpoint& other) const {
    return host == other.host && port == other.port;
  }
  bool operator<(const Endpoint& other) const {
    if (host != other.host) return host < other.host;
    return port < other.port;
  }
};

/// Invoked on message delivery. `from` identifies the sender's endpoint.
using MessageHandler = std::function<void(
    const Endpoint& from, MessageType type,
    const std::vector<uint8_t>& payload)>;

/// Message transport between sites. Connection semantics mirror 1999 TCP as
/// the paper relies on them:
///  * Send() fails synchronously with ConnectionRefused when nothing listens
///    on the target endpoint — this is what makes the paper's *passive query
///    termination* (§2.8) work: the user site closes its result socket and
///    every later result dispatch fails at connect time;
///  * once accepted, delivery is asynchronous (the simulated network can be
///    told to drop accepted messages for failure-injection tests).
class Transport {
 public:
  virtual ~Transport() = default;

  /// Registers a listener. Fails if the endpoint is already bound.
  [[nodiscard]] virtual Status Listen(const Endpoint& endpoint,
                                      MessageHandler handler) = 0;

  /// Stops listening; subsequent Sends to the endpoint are refused.
  virtual void CloseListener(const Endpoint& endpoint) = 0;

  /// Sends one message. See class comment for failure semantics. The result
  /// is load-bearing: synchronous ConnectionRefused drives both passive
  /// termination and the crashed-next-hop fallback, so it must be inspected
  /// (or explicitly voided with a reason) at every call site.
  [[nodiscard]] virtual Status Send(const Endpoint& from, const Endpoint& to,
                                    MessageType type,
                                    std::vector<uint8_t> payload) = 0;

  // -- Timers ---------------------------------------------------------------
  // The retry/recovery layers (net/reliable.h), admission control, batching
  // and the user site's deadline sweep schedule on these.

  /// Schedules `fn` to run after `delay` on the transport's dispatch context
  /// (the simulated clock for SimNetwork, wall time for TcpTransport).
  /// Returns a nonzero timer id.
  virtual uint64_t ScheduleAfter(SimDuration delay,
                                 std::function<void()> fn) = 0;

  /// Cancels a pending timer; returns true if it had not fired yet.
  virtual bool CancelTimer(uint64_t id) = 0;

  /// Every transport schedules. Still virtual only because the benchmark
  /// harness's timing decorator (perfbench/src/probe.h) overrides it.
  virtual bool SupportsTimers() const { return true; }
};

}  // namespace webdis::net

#endif  // WEBDIS_NET_TRANSPORT_H_
