#ifndef WEBDIS_NET_FAULT_H_
#define WEBDIS_NET_FAULT_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "net/transport.h"

namespace webdis::net {

/// What a FaultPlan decided for one accepted message.
struct FaultDecision {
  bool drop = false;          // lose the message in flight
  uint32_t duplicates = 0;    // extra copies to deliver besides the original
  SimDuration extra_delay = 0;  // added to every delivered copy
};

/// A composable fault schedule, consulted per accepted message. Faults model
/// loss *after* the connection was accepted — the window the paper's
/// report-then-forward ordering defends against (connection refusal is
/// already modelled synchronously by every Transport).
///
/// Three composable mechanisms:
///  * **Rules** — probabilistic or exact-count drop / duplication / delay,
///    scoped by message type, source/destination host, a match-count window
///    (`skip_first` / `max_faults`, for "lose exactly the 3rd clone"-style
///    phase targeting) and a virtual-time window (`active_from`/`active_until`,
///    honoured by SimNetwork which passes its clock).
///  * **Partitions** — symmetric host pairs whose traffic is dropped entirely
///    until healed (models a network partition; heal models its repair).
///  * A seeded RNG, so every randomized fault schedule is reproducible.
///
/// Attach to the simulated network with SimNetwork::SetFaultPlan, or wrap
/// any transport (including TcpTransport) in a FaultyTransport.
class FaultPlan {
 public:
  explicit FaultPlan(uint64_t seed = 1) : rng_(seed) {}

  struct Rule {
    /// Match scope; unset/empty fields match anything.
    std::optional<MessageType> type;
    std::string from_host;
    std::string to_host;
    /// Count-phase scope: let the first N matching messages through
    /// unfaulted, and stop faulting after `max_faults` faults.
    uint64_t skip_first = 0;
    uint64_t max_faults = std::numeric_limits<uint64_t>::max();
    /// Time-phase scope (virtual time; only enforced when the caller passes
    /// a clock, as SimNetwork does).
    SimTime active_from = 0;
    SimTime active_until = std::numeric_limits<SimTime>::max();
    /// Fault probabilities per matching message.
    double drop_prob = 0.0;
    double duplicate_prob = 0.0;
    double delay_prob = 0.0;
    SimDuration delay = 0;
  };

  /// Appends a rule; rules are consulted in insertion order and their
  /// effects combine (any drop wins; duplicates and delays accumulate).
  void AddRule(Rule rule) { rules_.push_back(RuleState{std::move(rule), 0, 0}); }

  /// Cuts all traffic between the two hosts (both directions) until healed.
  void Partition(const std::string& host_a, const std::string& host_b);
  void Heal(const std::string& host_a, const std::string& host_b);
  void HealAll() { partitions_.clear(); }
  bool Partitioned(const std::string& host_a, const std::string& host_b) const;

  /// Decides the fate of one accepted message. `now` is the caller's clock
  /// (0 when the transport keeps no virtual time).
  FaultDecision Decide(const Endpoint& from, const Endpoint& to,
                       MessageType type, SimTime now = 0);

  struct Stats {
    uint64_t dropped = 0;
    uint64_t duplicated = 0;
    uint64_t delayed = 0;
    uint64_t partition_drops = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct RuleState {
    Rule rule;
    uint64_t matches = 0;
    uint64_t faults = 0;
  };

  Rng rng_;
  std::vector<RuleState> rules_;
  std::set<std::pair<std::string, std::string>> partitions_;  // ordered pairs
  Stats stats_;
};

/// Transport decorator applying a FaultPlan to every Send — the way to
/// inject faults over transports without a native hook (e.g. real TCP).
/// Listen passes through untouched. Unlike SimNetwork's native hook (which
/// checks the listener first), a dropped send cannot probe acceptance over a
/// real transport, so it also suppresses synchronous refusal for that one
/// message; the retry layer's timeout covers both losses identically. A
/// delayed message is sent from a timer on the base transport.
class FaultyTransport : public Transport {
 public:
  /// Both must outlive the decorator. `plan` may be shared with other
  /// transports (its RNG then interleaves deterministically per call order).
  FaultyTransport(Transport* base, FaultPlan* plan)
      : base_(base), plan_(plan) {}

  Status Listen(const Endpoint& endpoint, MessageHandler handler) override {
    return base_->Listen(endpoint, std::move(handler));
  }
  void CloseListener(const Endpoint& endpoint) override {
    base_->CloseListener(endpoint);
  }
  Status Send(const Endpoint& from, const Endpoint& to, MessageType type,
              std::vector<uint8_t> payload) override;

  uint64_t ScheduleAfter(SimDuration delay, std::function<void()> fn) override {
    return base_->ScheduleAfter(delay, std::move(fn));
  }
  bool CancelTimer(uint64_t id) override { return base_->CancelTimer(id); }

 private:
  Transport* base_;
  FaultPlan* plan_;
};

}  // namespace webdis::net

#endif  // WEBDIS_NET_FAULT_H_
