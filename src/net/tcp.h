#ifndef WEBDIS_NET_TCP_H_
#define WEBDIS_NET_TCP_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <thread>

#include "common/thread_annotations.h"
#include "net/transport.h"

namespace webdis::net {

/// Real-socket transport over localhost. Symbolic endpoints (host, port) are
/// mapped to ephemeral 127.0.0.1 ports via an in-process registry, so many
/// "hosts" can all listen on the WEBDIS well-known port concurrently (as a
/// real deployment would across machines). Messages are frames
/// (serialize/framing.h) carrying the sender endpoint plus the payload, one
/// connection per message — the paper's WEBDIS used exactly this
/// one-shot-socket style between Java sites.
///
/// Threading model: accept/read happen on background threads, but handler
/// dispatch is *pumped by the caller* via ProcessPending()/PumpUntilIdle(),
/// so client/server code stays single-threaded like with SimNetwork. All
/// state shared with the background threads is guarded by mu_ and annotated
/// for Clang's -Wthread-safety analysis.
class TcpTransport : public Transport {
 public:
  TcpTransport();
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  // -- Transport ------------------------------------------------------------
  /// Binds an ephemeral 127.0.0.1 port and registers it for the symbolic
  /// endpoint.
  Status Listen(const Endpoint& endpoint, MessageHandler handler) override
      WEBDIS_EXCLUDES(mu_);
  void CloseListener(const Endpoint& endpoint) override WEBDIS_EXCLUDES(mu_);
  /// Resolves the symbolic endpoint, connects, writes one frame, closes.
  /// Synchronous ConnectionRefused when nothing is listening (unregistered
  /// endpoints count too — exactly the semantics passive termination needs).
  Status Send(const Endpoint& from, const Endpoint& to, MessageType type,
              std::vector<uint8_t> payload) override WEBDIS_EXCLUDES(mu_);

  /// Wall-clock timers, fired from the caller's pump (ProcessPending /
  /// PumpUntilIdle) — never from a background thread, preserving the
  /// single-threaded dispatch model.
  uint64_t ScheduleAfter(SimDuration delay, std::function<void()> fn) override
      WEBDIS_EXCLUDES(mu_);
  bool CancelTimer(uint64_t id) override WEBDIS_EXCLUDES(mu_);

  /// The real 127.0.0.1 port bound for a symbolic endpoint (0 if none).
  uint16_t ResolvePort(const Endpoint& endpoint) const WEBDIS_EXCLUDES(mu_);

  // -- Dispatch pump --------------------------------------------------------
  /// Dispatches all received-but-undelivered messages. Returns how many.
  size_t ProcessPending() WEBDIS_EXCLUDES(mu_);

  /// Pumps until no message arrives for `quiesce_ms` milliseconds. Returns
  /// total dispatched. Use after submitting work to let the exchange settle.
  size_t PumpUntilIdle(int quiesce_ms = 200) WEBDIS_EXCLUDES(mu_);

 private:
  struct Listener;
  struct Delivery {
    Endpoint from;
    Endpoint to;
    MessageType type;
    std::vector<uint8_t> payload;
  };
  struct Timer {
    // webdis-lint: allow(clock) — the TCP transport is the one component
    // whose timers are *defined* to be wall-clock (common/clock.h).
    std::chrono::steady_clock::time_point due;
    std::function<void()> fn;
  };

  void AcceptLoop(Listener* listener) WEBDIS_EXCLUDES(mu_);
  void ReadConnection(int fd, Listener* listener) WEBDIS_EXCLUDES(mu_);
  /// Fires every due timer; returns how many fired.
  size_t FireDueTimers() WEBDIS_EXCLUDES(mu_);

  mutable Mutex mu_;
  CondVar cv_;
  std::map<Endpoint, std::unique_ptr<Listener>> listeners_
      WEBDIS_GUARDED_BY(mu_);
  // symbolic -> bound 127.0.0.1 port
  std::map<Endpoint, uint16_t> real_ports_ WEBDIS_GUARDED_BY(mu_);
  std::deque<Delivery> pending_ WEBDIS_GUARDED_BY(mu_);
  uint64_t next_timer_id_ WEBDIS_GUARDED_BY(mu_) = 1;
  std::map<uint64_t, Timer> timers_ WEBDIS_GUARDED_BY(mu_);
};

}  // namespace webdis::net

#endif  // WEBDIS_NET_TCP_H_
