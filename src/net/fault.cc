#include "net/fault.h"

#include <algorithm>

namespace webdis::net {

namespace {

std::pair<std::string, std::string> OrderedPair(const std::string& a,
                                                const std::string& b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

void FaultPlan::Partition(const std::string& host_a,
                          const std::string& host_b) {
  partitions_.insert(OrderedPair(host_a, host_b));
}

void FaultPlan::Heal(const std::string& host_a, const std::string& host_b) {
  partitions_.erase(OrderedPair(host_a, host_b));
}

bool FaultPlan::Partitioned(const std::string& host_a,
                            const std::string& host_b) const {
  return partitions_.contains(OrderedPair(host_a, host_b));
}

FaultDecision FaultPlan::Decide(const Endpoint& from, const Endpoint& to,
                                MessageType type, SimTime now) {
  FaultDecision decision;
  if (Partitioned(from.host, to.host)) {
    decision.drop = true;
    ++stats_.partition_drops;
    ++stats_.dropped;
    return decision;
  }
  for (RuleState& state : rules_) {
    const Rule& rule = state.rule;
    if (rule.type && *rule.type != type) continue;
    if (!rule.from_host.empty() && rule.from_host != from.host) continue;
    if (!rule.to_host.empty() && rule.to_host != to.host) continue;
    if (now < rule.active_from || now > rule.active_until) continue;
    const uint64_t match_index = state.matches++;
    if (match_index < rule.skip_first) continue;
    if (state.faults >= rule.max_faults) continue;
    bool faulted = false;
    if (rng_.Bernoulli(rule.drop_prob)) {
      decision.drop = true;
      faulted = true;
    }
    if (rng_.Bernoulli(rule.duplicate_prob)) {
      ++decision.duplicates;
      faulted = true;
    }
    if (rule.delay > 0 && rng_.Bernoulli(rule.delay_prob)) {
      decision.extra_delay += rule.delay;
      faulted = true;
    }
    if (faulted) ++state.faults;
  }
  if (decision.drop) {
    // A drop swallows the message; any duplication/delay decided alongside
    // it is moot.
    decision.duplicates = 0;
    decision.extra_delay = 0;
    ++stats_.dropped;
  } else {
    if (decision.duplicates > 0) stats_.duplicated += decision.duplicates;
    if (decision.extra_delay > 0) ++stats_.delayed;
  }
  return decision;
}

Status FaultyTransport::Send(const Endpoint& from, const Endpoint& to,
                             MessageType type, std::vector<uint8_t> payload) {
  FaultDecision decision = plan_->Decide(from, to, type);
  if (decision.drop) {
    // Swallowed in flight. Over a real transport we cannot probe acceptance
    // without delivering, so a dropped message also suppresses synchronous
    // refusal for this one send — the retry layer's timeout (or the next
    // undropped attempt's refusal) covers both losses the same way.
    return Status::OK();
  }
  for (uint32_t i = 0; i < decision.duplicates; ++i) {
    std::vector<uint8_t> copy = payload;
    // Ignore duplicate-delivery failures; the original's status is what the
    // caller acts on.
    (void)base_->Send(from, to, type, std::move(copy));
  }
  if (decision.extra_delay > 0) {
    std::vector<uint8_t> delayed = std::move(payload);
    Transport* base = base_;
    base_->ScheduleAfter(
        decision.extra_delay,
        [base, from, to, type, delayed = std::move(delayed)]() mutable {
          (void)base->Send(from, to, type, std::move(delayed));
        });
    // The caller cannot observe refusal of a delayed message — same as a
    // connect that succeeds now against a host that dies before delivery.
    return Status::OK();
  }
  return base_->Send(from, to, type, std::move(payload));
}

}  // namespace webdis::net
