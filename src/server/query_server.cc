#include "server/query_server.h"

#include <algorithm>
#include <iterator>
#include <limits>

#include "common/logging.h"
#include "common/strings.h"
#include "html/url.h"
#include "relational/eval.h"
#include "serialize/encoder.h"
#include "server/db_constructor.h"

namespace webdis::server {

namespace {

// The merge rules named in query_server_counters.def.
uint64_t Sum(uint64_t total, uint64_t value) { return total + value; }
uint64_t Max(uint64_t total, uint64_t value) { return std::max(total, value); }

}  // namespace

void MergeServerStats(const QueryServerStats& from, QueryServerStats* into) {
#define WEBDIS_SERVER_COUNTER(name, merge) \
  into->name = merge(into->name, from.name);
#include "server/query_server_counters.def"
}

QueryServer::QueryServer(std::string host, const web::WebGraph* web,
                         net::Transport* transport,
                         QueryServerOptions options)
    : host_(std::move(host)),
      web_(web),
      transport_(transport),
      options_(options),
      sender_(transport, options.retry),
      receiver_(transport, options.retry.enabled),
      breakers_(options.breaker) {
  // Delivery outcomes feed the forwarding-path circuit breaker: an ack is
  // evidence the peer server is healthy, exhaustion/refusal-on-retry that
  // it is not. Overload NACKs are neutral (the host answered). Only peer
  // query servers are scored — report traffic to the user site's result
  // socket has its own semantics (passive termination).
  sender_.set_delivery_observer(
      [this](const net::Endpoint& to, net::DeliveryEvent event) {
        if (to.port != kQueryServerPort) return;
        switch (event) {
          case net::DeliveryEvent::kAcked:
            breakers_.RecordSuccess(to.host, Now());
            break;
          case net::DeliveryEvent::kExhausted:
          case net::DeliveryEvent::kRefusedOnRetry:
          // A kSiteRetired NACK is the strongest failure evidence there is
          // (the destination told us it is gone for good, §10.2): trip the
          // breaker so later forwards to the host short-circuit locally.
          case net::DeliveryEvent::kSiteRetired:
            breakers_.RecordFailure(to.host, Now());
            break;
          case net::DeliveryEvent::kOverloadNack:
            break;
        }
      });
}

QueryServer::~QueryServer() {
  if (drain_timer_ != 0) transport_->CancelTimer(drain_timer_);
  if (flush_timer_ != 0) transport_->CancelTimer(flush_timer_);
}

const QueryServerStats& QueryServer::stats() const {
  stats_.retries = sender_.stats().retries;
  stats_.retry_exhausted = sender_.stats().exhausted;
  stats_.redeliveries_suppressed = receiver_.suppressed_count();
  stats_.overload_nacks_received = sender_.stats().overload_nacks;
  stats_.site_retired_nacks_received = sender_.stats().site_retired;
  stats_.breaker_trips = breakers_.stats().trips;
  stats_.breaker_short_circuits = breakers_.stats().short_circuits;
  stats_.breaker_probes = breakers_.stats().probes;
  stats_.breaker_recoveries = breakers_.stats().recoveries;
  stats_.result_cache_bytes = result_cache_bytes_;
  return stats_;
}

void QueryServer::Crash() {
  Stop();
  sender_.CancelAll();
  receiver_.Reset();
  breakers_.Reset();
  log_table_.Purge();
  terminated_queries_.clear();
  pending_acks_.clear();
  // The result cache is volatile by design (PROTOCOL.md §9.1): it is
  // recomputable, not protocol state, so it is rebuilt cold — never
  // snapshotted.
  result_cache_lru_.clear();
  result_cache_index_.clear();
  result_cache_bytes_ = 0;
  // Staged envelopes die with the crash; their WAL completion records were
  // deferred past the flush, so replay regenerates the lost sends.
  staged_clones_.clear();
  staged_reports_.clear();
  wal_pending_flush_.clear();
  if (flush_timer_ != 0) {
    transport_->CancelTimer(flush_timer_);
    flush_timer_ = 0;
  }
  // Queued clones are volatile: lost with the crash, recovered by the
  // sender's retries (unacked — acks are deferred to dequeue) or, failing
  // that, by the user site's CHT deadline sweep.
  pending_clones_.clear();
  if (drain_timer_ != 0) {
    transport_->CancelTimer(drain_timer_);
    drain_timer_ = 0;
  }
  // Storage survives the crash — that is its job — but the backend models
  // power loss: unsynced WAL bytes vanish and seeded torn-write rules may
  // fire (MemoryPersistBackend; see PROTOCOL.md §8).
  if (persist_ != nullptr) persist_->OnCrash();
}

Status QueryServer::Restart() {
  WEBDIS_RETURN_IF_ERROR(Start());
  Recover();
  return Status::OK();
}

Status QueryServer::Start() {
  if (started_) return Status::InvalidArgument("QueryServer already started");
  const net::Endpoint endpoint{host_, kQueryServerPort};
  WEBDIS_RETURN_IF_ERROR(transport_->Listen(
      endpoint,
      [this](const net::Endpoint& from, net::MessageType type,
             const std::vector<uint8_t>& payload) {
        OnMessage(from, type, payload);
      }));
  started_ = true;
  return Status::OK();
}

void QueryServer::Stop() {
  if (!started_) return;
  transport_->CloseListener(net::Endpoint{host_, kQueryServerPort});
  started_ = false;
}

void QueryServer::OnMessage(const net::Endpoint& from, net::MessageType type,
                            const std::vector<uint8_t>& payload) {
  switch (type) {
    case net::MessageType::kWebQuery:
    case net::MessageType::kCloneBatch: {
      const net::Endpoint self{host_, kQueryServerPort};
      QueuedClone unit;
      const TransferRead read = ReadTransfer(from, type, payload, &unit);
      if (read == TransferRead::kDropped) return;
      if (retired_) {
        // §10.2: a retired site never processes another clone. Answer
        // terminally — kSiteRetired NACK plus named degraded reports — so
        // the sender stops retrying and the user site's CHT settles. A
        // replay was answered once already; only its NACK is due again.
        if (read == TransferRead::kUnit) {
          RetireUnit(std::move(unit));
        } else if (unit.tracked) {
          receiver_.SendSiteRetired(self, from, unit.seq);
          ++stats_.site_retired_nacks_sent;
        }
        return;
      }
      if (read != TransferRead::kUnit) {
        // Re-ack a replay, whose original ack may have been lost;
        // AcceptSeq counts it in redeliveries_suppressed. A malformed
        // transfer decodes no better on retransmission, so commit (ack) it
        // too — after logging the commit (§8), or a post-restart
        // retransmission would be decoded again.
        if (read == TransferRead::kUndecodable && unit.tracked) {
          serialize::Encoder rec;
          WalTransferSeen{from, unit.seq}.EncodeTo(&rec);
          AppendWalRecord(WalRecordType::kTransferSeen, rec);
        }
        if (unit.tracked) (void)receiver_.AcceptSeq(self, from, unit.seq);
        return;
      }
      if (options_.admission.max_pending != 0) {
        Admit(std::move(unit));
        return;
      }
      // Ack-after-append (§8): the admission record must be on storage
      // before the ack, or a crash in the gap would lose an acked clone.
      // One record and one ack cover a whole batch (all-or-none, §9.2).
      unit.wal_id = PersistAdmitBatch(unit);
      // Cannot be a replay: ReadTransfer just checked.
      if (unit.tracked) (void)receiver_.AcceptSeq(self, from, unit.seq);
      if (unit.clones.size() > 1) {
        ++stats_.clone_batches_received;
        stats_.clone_batch_members_received += unit.clones.size();
      }
      for (size_t i = 0; i < unit.clones.size(); ++i) {
        ProcessCloneDurable(std::move(unit.clones[i]),
                            unit.wal_id == 0 ? 0 : unit.wal_id + i);
      }
      return;
    }
    case net::MessageType::kDeliveryAck: {
      sender_.OnAck(payload);
      return;
    }
    case net::MessageType::kOverloaded: {
      sender_.OnOverloaded(payload);
      return;
    }
    case net::MessageType::kSiteRetired: {
      sender_.OnSiteRetired(payload);
      return;
    }
    case net::MessageType::kAck: {
      serialize::Decoder dec(payload);
      uint64_t token = 0;
      if (!dec.GetU64(&token).ok() || !dec.ExpectAtEnd("ack").ok()) {
        ++stats_.decode_errors;
        return;
      }
      OnAck(token);
      return;
    }
    case net::MessageType::kTerminate: {
      serialize::Decoder dec(payload);
      query::QueryId id;
      Status status = query::QueryId::DecodeFrom(&dec, &id);
      if (status.ok()) status = dec.ExpectAtEnd("terminate payload");
      if (!status.ok()) {
        ++stats_.decode_errors;
        return;
      }
      terminated_queries_.insert(id.Key());
      log_table_.PurgeQuery(id.Key());
      std::erase_if(pending_acks_, [&id](const auto& entry) {
        return entry.second.query_key == id.Key();
      });
      ++stats_.active_terminations;
      if (WalEnabled()) {
        // A restarted server must not resurrect a terminated query from
        // recovered clones.
        serialize::Encoder rec;
        WalQueryTerminated{id.Key()}.EncodeTo(&rec);
        AppendWalRecord(WalRecordType::kQueryTerminated, rec);
      }
      return;
    }
    default:
      WEBDIS_LOG(kWarning) << host_ << ": unexpected message type "
                           << net::MessageTypeToString(type);
  }
}

namespace {

/// Deadline used for eviction ordering: a unit's most urgent member's, and
/// "never" for a unit whose members carry none.
SimTime UnitDeadline(const std::vector<query::WebQuery>& clones) {
  SimTime deadline = std::numeric_limits<SimTime>::max();
  for (const query::WebQuery& clone : clones) {
    if (clone.budget.has_deadline) {
      deadline = std::min(deadline, clone.budget.deadline);
    }
  }
  return deadline;
}

/// A report naming a node degraded without a visit: budget-exceeded, or
/// site-retired at a retired site (§10.2).
query::NodeReport MakeDegradedReport(std::string url, query::CloneState state,
                                     bool retired) {
  query::NodeReport nr;
  nr.node_url = std::move(url);
  nr.received_state = std::move(state);
  if (retired) {
    nr.visibility = query::NodeReport::kVisibilitySiteRetired;
  } else {
    nr.budget_exceeded = true;
  }
  return nr;
}

/// Announce-then-delete for a clone that never reached its destination
/// site: one undeliverable report per destination node clears the CHT
/// entries its parent announced, and tells the user site to fall back to
/// centralized processing for those nodes.
void AddUndeliverableReports(const query::WebQuery& clone,
                             std::vector<query::NodeReport>* out) {
  for (const std::string& url : clone.dest_urls) {
    query::NodeReport nr;
    nr.node_url = url;
    nr.received_state = clone.State();
    nr.undeliverable = true;
    out->push_back(std::move(nr));
  }
}

}  // namespace

QueryServer::TransferRead QueryServer::ReadTransfer(
    const net::Endpoint& from, net::MessageType type,
    const std::vector<uint8_t>& payload, QueuedClone* unit) {
  unit->from = from;
  unit->tracked = receiver_.enabled();
  std::vector<uint8_t> inner;
  if (unit->tracked) {
    if (!net::ReliableReceiver::PeekSeq(payload, &unit->seq) ||
        !net::ReliableReceiver::StripEnvelope(payload, &inner)) {
      return TransferRead::kDropped;
    }
    if (receiver_.TestSeen(from, unit->seq)) return TransferRead::kReplay;
  }
  serialize::Decoder dec(unit->tracked ? inner : payload);
  const bool single = type == net::MessageType::kWebQuery;
  Status status;
  if (single) {
    unit->clones.emplace_back();
    status = query::WebQuery::DecodeFrom(&dec, &unit->clones.back());
  } else {
    query::CloneBatch batch;
    status = query::CloneBatch::DecodeFrom(&dec, &batch);
    unit->clones = std::move(batch.clones);
  }
  if (status.ok()) {
    status = dec.ExpectAtEnd(single ? "clone payload" : "clone-batch payload");
  }
  if (!status.ok()) {
    ++stats_.decode_errors;
    WEBDIS_LOG(kWarning) << host_ << (single ? ": bad clone: "
                                             : ": bad clone batch: ")
                         << status.ToString();
    unit->clones.clear();
    return TransferRead::kUndecodable;
  }
  return TransferRead::kUnit;
}

size_t QueryServer::PendingMembers() const {
  size_t members = 0;
  for (const QueuedClone& unit : pending_clones_) {
    members += unit.clones.size();
  }
  return members;
}

void QueryServer::Admit(QueuedClone unit) {
  const net::Endpoint self{host_, kQueryServerPort};
  const size_t members = unit.clones.size();
  const size_t capacity = options_.admission.max_pending;
  const size_t queued = PendingMembers();
  // Capacity counts members, and a unit is all-or-none: a partial accept
  // under its one ack would silently lose the rest. An empty queue always
  // admits, whatever the unit's size: without this exception a batch
  // larger than max_pending could never be admitted and a tracked sender
  // would NACK-retry it forever.
  if (!pending_clones_.empty() && queued + members > capacity) {
    // Overflow. Evict the queued unit with the earliest deadline (the first
    // queued on a tie) when it is strictly closer to death than the
    // newcomer (it would likely expire in the queue anyway) and evicting it
    // lets the newcomer fit or empties the queue; otherwise reject the
    // newcomer whole.
    auto victim = pending_clones_.end();
    SimTime earliest = UnitDeadline(unit.clones);
    for (auto it = pending_clones_.begin(); it != pending_clones_.end();
         ++it) {
      const SimTime deadline = UnitDeadline(it->clones);
      if (deadline < earliest) {
        earliest = deadline;
        victim = it;
      }
    }
    if (victim != pending_clones_.end() &&
        (pending_clones_.size() == 1 ||
         queued - victim->clones.size() + members <= capacity)) {
      QueuedClone evicted = std::move(*victim);
      pending_clones_.erase(victim);
      stats_.clones_evicted += evicted.clones.size();
      ShedClone(std::move(evicted));
    } else {
      stats_.clones_shed += members;
      if (members > 1) ++stats_.batches_shed;
      if (unit.tracked) {
        // NACK: the sender moves the transfer to the overload backoff class
        // and retries once the queue has (hopefully) drained.
        receiver_.SendOverloaded(self, unit.from, unit.seq);
        ++stats_.overload_nacks_sent;
      } else {
        // No retry layer to come back later — shedding silently would
        // strand the user site's CHT entries until deadline GC. Terminal
        // shed with explicit budget-exceeded reports instead.
        ShedClone(std::move(unit));
      }
      return;
    }
  }
  unit.wal_id = PersistAdmitBatch(unit);
  if (unit.tracked && WalEnabled()) {
    // Durable queue: ack at admission, after the append above (§8). The
    // shed-after-ack hazard the deferred-acceptance API exists for is gone —
    // eviction shed is terminal-with-reports, and queue loss on crash is
    // recovered from the WAL instead of from the sender's retries. Cannot
    // be a replay: ReadTransfer just checked.
    (void)receiver_.AcceptSeq(self, unit.from, unit.seq);
    unit.acked = true;
  }
  if (members > 1) {
    ++stats_.clone_batches_received;
    stats_.clone_batch_members_received += members;
  }
  pending_clones_.push_back(std::move(unit));
  stats_.queue_peak =
      std::max<uint64_t>(stats_.queue_peak, PendingMembers());
  ScheduleDrain();
}

void QueryServer::ScheduleDrain() {
  if (pending_clones_.empty() || drain_timer_ != 0) return;
  drain_timer_ =
      transport_->ScheduleAfter(options_.admission.service_time, [this] {
        drain_timer_ = 0;
        DrainOne();
        ScheduleDrain();
      });
}

void QueryServer::DrainOne() {
  if (pending_clones_.empty()) return;
  QueuedClone next = std::move(pending_clones_.front());
  pending_clones_.pop_front();
  if (next.tracked && !next.acked &&
      !receiver_.AcceptSeq(net::Endpoint{host_, kQueryServerPort}, next.from,
                           next.seq)) {
    FinishWalUnit(next);
    return;  // a retransmitted copy of this transfer was queued twice
  }
  // A batch unit is one service slot: its members were one wire message and
  // share one ack, so they drain together.
  for (size_t i = 0; i < next.clones.size(); ++i) {
    ProcessCloneDurable(std::move(next.clones[i]),
                        next.wal_id == 0 ? 0 : next.wal_id + i);
  }
}

void QueryServer::ShedClone(QueuedClone shed) {
  const net::Endpoint self{host_, kQueryServerPort};
  if (shed.tracked && !shed.acked &&
      !receiver_.AcceptSeq(self, shed.from, shed.seq)) {
    FinishWalUnit(shed);
    return;  // replay of a committed transfer: already handled once
  }
  EndMembers(shed, /*retired=*/false);
}

void QueryServer::Retire() {
  if (retired_) return;
  retired_ = true;
  if (drain_timer_ != 0) {
    transport_->CancelTimer(drain_timer_);
    drain_timer_ = 0;
  }
  // Shed the admission queue terminally: queued work will never be served.
  std::deque<QueuedClone> queued;
  queued.swap(pending_clones_);
  for (QueuedClone& unit : queued) {
    RetireUnit(std::move(unit));
  }
}

void QueryServer::RetireUnit(QueuedClone unit) {
  const net::Endpoint self{host_, kQueryServerPort};
  if (unit.tracked && !unit.acked) {
    // Terminal NACK instead of an ack: the sender abandons the transfer
    // immediately and feeds its breaker (§10.2).
    receiver_.SendSiteRetired(self, unit.from, unit.seq);
    ++stats_.site_retired_nacks_sent;
    // Record receipt without acking: if the NACK is lost, the
    // retransmission is answered with the NACK alone — a second round of
    // reports would double-delete the nodes' CHT entries.
    receiver_.RestoreSeen(unit.from, unit.seq);
  }
  EndMembers(unit, /*retired=*/true);
}

void QueryServer::EndMembers(const QueuedClone& unit, bool retired) {
  // Every member ends here for good, so its kCloneCompleted record (when
  // persisted) is due whatever it had left to settle.
  for (size_t i = 0; i < unit.clones.size(); ++i) {
    const query::WebQuery& clone = unit.clones[i];
    if (!terminated_queries_.contains(clone.id.Key())) {
      DegradeClone(clone, retired);
    }
    FinishWalClone(unit.wal_id == 0 ? 0 : unit.wal_id + i);
  }
}

void QueryServer::DegradeClone(const query::WebQuery& clone, bool retired) {
  if (clone.ack_mode) {
    // Ack-tree baseline: an unvisited clone is a leaf — ack the parent so
    // the tree still completes.
    SendAck(net::Endpoint{clone.ack_parent_host, clone.ack_parent_port},
            clone.ack_token);
    return;
  }
  std::vector<query::NodeReport> reports;
  reports.reserve(clone.dest_urls.size());
  for (const std::string& url : clone.dest_urls) {
    reports.push_back(MakeDegradedReport(url, clone.State(), retired));
  }
  if (retired) stats_.retired_reports_sent += reports.size();
  (void)DispatchReports(clone, std::move(reports));
}

std::string QueryServer::ResultCacheKey(const web::WebGraph::Document& doc,
                                        const query::NodeQuery& nq) {
  // The node-query's wire encoding IS its canonical form: two clones of
  // different queries carrying the same select hit the same entry. The
  // version stamp is the staleness rule (§9.1): an edited document changes
  // the key, so a stale result can never be served.
  serialize::Encoder enc;
  nq.EncodeTo(&enc);
  std::string key = doc.url.ResourceKey();
  key += '@';
  key += std::to_string(doc.version);
  key += '|';
  key.append(reinterpret_cast<const char*>(enc.data().data()), enc.size());
  return key;
}

const relational::ResultSet* QueryServer::ResultCacheLookup(
    const std::string& key) {
  auto it = result_cache_index_.find(key);
  if (it == result_cache_index_.end()) return nullptr;
  result_cache_lru_.splice(result_cache_lru_.begin(), result_cache_lru_,
                           it->second);
  return &it->second->rows;
}

void QueryServer::ResultCacheInsert(std::string key,
                                    const relational::ResultSet& rows) {
  CachedResult entry;
  entry.bytes = key.size() + sizeof(CachedResult);
  for (const std::string& label : rows.column_labels) {
    entry.bytes += label.size();
  }
  for (const relational::Tuple& row : rows.rows) {
    for (const relational::Value& v : row) entry.bytes += v.ApproxBytes();
  }
  entry.key = std::move(key);
  entry.rows = rows;  // empty results are cached too — misses are work
  result_cache_bytes_ += entry.bytes;
  result_cache_lru_.push_front(std::move(entry));
  result_cache_index_[result_cache_lru_.front().key] =
      result_cache_lru_.begin();
  if (options_.result_cache_max_bytes > 0) {
    // Evict cold entries until the budget holds; the just-inserted entry
    // survives even when it alone exceeds the budget (the caller holds no
    // reference here, but evicting the newest entry would make a one-entry
    // cache thrash forever).
    while (result_cache_bytes_ > options_.result_cache_max_bytes &&
           result_cache_lru_.size() > 1) {
      CachedResult& victim = result_cache_lru_.back();
      result_cache_bytes_ -= victim.bytes;
      ++stats_.result_cache_evictions;
      result_cache_index_.erase(victim.key);
      result_cache_lru_.pop_back();
    }
  }
}

bool QueryServer::EvaluateNodeQuery(const query::NodeQuery& nq,
                                    const web::WebGraph::Document& doc,
                                    bool* relations_started,
                                    relational::ResultSet* out) {
  std::string key;
  if (options_.share_results) {
    key = ResultCacheKey(doc, nq);
    if (const relational::ResultSet* hit = ResultCacheLookup(key)) {
      ++stats_.result_cache_hits;
      *out = *hit;
      return true;
    }
    ++stats_.result_cache_misses;
  }
  if (!*relations_started) {
    ++stats_.db_constructions;
    node_relations_.Visit(doc.parsed);
    *relations_started = true;
  }
  auto result = relational::Execute(nq.select,
                                    node_relations_.Fill(nq.select.from));
  if (!result.ok()) {
    WEBDIS_LOG(kWarning) << host_ << ": node-query failed on "
                         << doc.url.ResourceKey() << ": "
                         << result.status().ToString();
    return false;
  }
  if (options_.share_results) ResultCacheInsert(std::move(key), *result);
  *out = std::move(result).value();
  return true;
}

void QueryServer::ProcessStage(const query::WebQuery& clone,
                               const web::WebGraph::Document& doc,
                               bool* relations_started, size_t stage,
                               const pre::Pre& rem,
                               query::NodeReport* report,
                               std::vector<Forward>* forwards) {
  // ServerRouter half: the PRE admits the zero-length path here, so the
  // stage's node-query is evaluated against this node's virtual relations
  // (through the cross-query result cache when share_results is on).
  if (rem.ContainsNull()) {
    ++stats_.node_queries_evaluated;
    const query::NodeQuery& nq = clone.remaining_queries[stage];
    relational::ResultSet rows;
    if (!EvaluateNodeQuery(nq, doc, relations_started, &rows)) {
      // Evaluation error: logged inside, nothing to report or advance.
    } else if (!rows.rows.empty()) {
      ++stats_.answers_found;
      report->result_sets.push_back(std::move(rows));
      // Advance to the next (PRE, node-query) stage from this node — only
      // from nodes that answered (Figure 1's node 7 rule).
      if (stage + 1 < clone.remaining_queries.size()) {
        const pre::Pre& next_pre = clone.future_pres[stage];
        ProcessStage(clone, doc, relations_started, stage + 1, next_pre,
                     report, forwards);
      }
    } else {
      ++stats_.dead_ends;
    }
  }
  // PureRouter half: continue along the current PRE's remaining paths
  // regardless of the local answer (see the class comment on routing
  // semantics).
  for (const html::LinkType link_type : rem.FirstLinks()) {
    const pre::Pre derived = rem.Derive(link_type);
    for (const html::ParsedAnchor& anchor : doc.parsed.anchors) {
      if (anchor.ltype != link_type) continue;
      forwards->push_back(
          Forward{anchor.resolved.ResourceKey(), stage, derived});
    }
  }
}

void QueryServer::ProcessNode(const query::WebQuery& clone,
                              const std::string& url,
                              query::NodeReport* report,
                              std::vector<Forward>* forwards) {
  report->node_url = url;
  report->received_state = clone.State();

  VisitEvent event;
  event.node_url = url;
  event.received_state = clone.State();

  pre::Pre rem = clone.rem_pre;
  if (options_.dedup_enabled) {
    const pre::LogDecision decision =
        log_table_.Check(url, clone.id.Key(), clone.State(),
                         clone.budget.has_deadline ? clone.budget.deadline
                                                   : LogTable::kNoDeadline);
    if (decision.comparison == pre::LogComparison::kDuplicate) {
      ++stats_.duplicates_dropped;
      report->duplicate_drop = true;
      event.duplicate = true;
      if (visit_observer_) visit_observer_(event);
      return;
    }
    if (decision.comparison == pre::LogComparison::kSupersetRewrite) {
      // Process only the difference: the rewrite A·A*(m-1)·B is never
      // nullable, so this node acts as a PureRouter for this clone
      // (Section 3.1.1).
      ++stats_.superset_rewrites;
      rem = *decision.rewritten;
      event.rewritten = true;
    }
  }

  const web::WebGraph::Document* doc = web_->Find(url);
  if (doc == nullptr || doc->url.host != host_) {
    // A floating link or a mis-routed clone: report the visit (so the CHT
    // entry clears) but there is nothing to process or forward. Under churn
    // this also covers a document removed mid-run (§10) — the stamp stays
    // 0 and the verdict classifies the node superseded.
    ++stats_.missing_documents;
    if (visit_observer_) visit_observer_(event);
    return;
  }
  if (clone.budget.pinned_epoch != 0 &&
      doc->born_epoch > clone.budget.pinned_epoch) {
    // §10.3: the document was spawned after this query's pinned epoch —
    // invisible to this run. Report the visit (the CHT entry clears) with
    // the epoch-gated visibility; nothing is evaluated or forwarded, so a
    // mid-run spawn can never be half-seen.
    ++stats_.epoch_gated_nodes;
    report->visibility = query::NodeReport::kVisibilityEpochGated;
    if (visit_observer_) visit_observer_(event);
    return;
  }
  report->doc_version = doc->version;

  ++stats_.nodes_processed;
  bool relations_started = false;
  const size_t forwards_before = forwards->size();
  const size_t results_before = report->result_sets.size();
  ProcessStage(clone, *doc, &relations_started, 0, rem, report, forwards);

  event.evaluated = rem.ContainsNull();
  event.answered = report->result_sets.size() > results_before;
  event.forward_count = forwards->size() - forwards_before;
  event.dead_end = event.evaluated && !event.answered &&
                   event.forward_count == 0;
  if (visit_observer_) visit_observer_(event);
}

void QueryServer::SendAck(const net::Endpoint& parent, uint64_t token) {
  serialize::Encoder enc;
  enc.PutU64(token);
  const Status status =
      transport_->Send(net::Endpoint{host_, kQueryServerPort}, parent,
                       net::MessageType::kAck, enc.Release());
  if (status.ok()) {
    ++stats_.acks_sent;
    return;
  }
  // [[nodiscard]] audit: acks bypass the retry layer (their loss is the
  // ack-tree baseline's known weakness — the paper's CHT design exists
  // precisely because a lost ack stalls tree completion). Surface it loudly
  // instead of dropping the Status on the floor. Refusal is benign: the
  // parent purged the query (termination) and no longer wants acks.
  if (status.code() != StatusCode::kConnectionRefused) {
    ++stats_.ack_send_failures;
    WEBDIS_LOG(kWarning) << host_ << ": ack to " << parent.ToString()
                         << " failed: " << status.ToString();
  }
}

void QueryServer::OnAck(uint64_t token) {
  ++stats_.acks_received;
  auto it = pending_acks_.find(token);
  if (it == pending_acks_.end()) return;  // stale (query purged)
  PendingAck& pending = it->second;
  if (pending.remaining_children > 0) --pending.remaining_children;
  if (pending.remaining_children == 0) {
    SendAck(pending.parent, pending.parent_token);
    pending_acks_.erase(it);
  }
}

bool QueryServer::DispatchReports(const query::WebQuery& clone,
                                  std::vector<query::NodeReport> reports) {
  if (reports.empty()) return true;
  std::vector<query::QueryReport> messages;
  if (options_.batch_reports) {
    query::QueryReport qr;
    qr.id = clone.id;
    qr.node_reports = std::move(reports);
    messages.push_back(std::move(qr));
  } else {
    for (query::NodeReport& nr : reports) {
      query::QueryReport qr;
      qr.id = clone.id;
      qr.node_reports.push_back(std::move(nr));
      messages.push_back(std::move(qr));
    }
  }
  if (BatchingEnabled() && !clone.ack_mode) {
    // Cross-query batching (§9.2): stage for the next flush window, where
    // reports of *different* queries to the same user-site host share one
    // kReportBatch envelope. Passive-termination detection moves to flush
    // time — the flush vetoes staged forwards of terminated queries, so
    // the no-forwarding-after-termination contract still holds (§9.3).
    auto& staged = staged_reports_[clone.id.reply_host];
    for (query::QueryReport& qr : messages) {
      staged.push_back(std::move(qr));
    }
    ScheduleFlush();
    return true;
  }
  for (const query::QueryReport& qr : messages) {
    if (!SendReport(qr)) return false;
  }
  return true;
}

bool QueryServer::SendReport(const query::QueryReport& report) {
  const net::Endpoint user_site{report.id.reply_host, report.id.reply_port};
  serialize::Encoder enc;
  report.EncodeTo(&enc);
  const Status status =
      sender_.Send(net::Endpoint{host_, kQueryServerPort}, user_site,
                   net::MessageType::kReport, enc.Release());
  if (status.code() == StatusCode::kConnectionRefused) {
    // Only the synchronous refusal means the socket is closed — see
    // report_send_errors below.
    TerminatePassively(report.id);
    return false;
  }
  if (!status.ok()) {
    // Transient transport error (e.g. IoError mid-write over real TCP).
    // NOT a termination signal: purging here would strand the user site's
    // CHT entries until deadline-GC even though the site is alive. With
    // retry enabled the transfer is already armed for retransmission;
    // either way the deadline sweep is the backstop, so keep going.
    ++stats_.report_send_errors;
    WEBDIS_LOG(kWarning) << host_ << ": report to " << user_site.ToString()
                         << " failed: " << status.ToString();
  }
  return true;
}

void QueryServer::TerminatePassively(const query::QueryId& id) {
  ++stats_.passive_terminations;
  terminated_queries_.insert(id.Key());
  log_table_.PurgeQuery(id.Key());
}

bool QueryServer::SendClones(const std::string& dest_host,
                             std::span<const query::WebQuery> unit) {
  const size_t count = unit.size();
  serialize::Encoder enc;
  if (count == 1) {
    unit.front().EncodeTo(&enc);
  } else {
    query::CloneBatch::EncodeMembers(unit, &enc);
  }
  const Status status = sender_.Send(
      net::Endpoint{host_, kQueryServerPort},
      net::Endpoint{dest_host, kQueryServerPort},
      count == 1 ? net::MessageType::kWebQuery : net::MessageType::kCloneBatch,
      enc.Release());
  if (status.code() == StatusCode::kConnectionRefused) {
    // The destination runs no query server (non-participating site, or it
    // crashed).
    stats_.undeliverable_forwards += count;
    breakers_.RecordFailure(dest_host, Now());
    return false;
  }
  if (!status.ok()) {
    // Transient error, not refusal: the clones may still arrive via the
    // retry layer, so the CHT entries stay valid — reporting the nodes
    // undeliverable would fall back to centralized processing AND possibly
    // process them remotely on redelivery.
    stats_.forward_send_errors += count;
    WEBDIS_LOG(kWarning) << host_ << ": forward to " << dest_host
                         << " failed: " << status.ToString();
  } else if (!sender_.enabled()) {
    // No delivery acks to wait for: synchronous acceptance is the best
    // evidence of destination health we will get.
    breakers_.RecordSuccess(dest_host, Now());
  }
  stats_.clones_forwarded += count;
  if (count > 1) {
    ++stats_.clone_batches_sent;
    stats_.clone_batch_members_sent += count;
  }
  return true;
}

void QueryServer::ProcessClone(query::WebQuery clone) {
  ++stats_.clones_received;
  if (options_.log_purge_every != 0 &&
      stats_.clones_received % options_.log_purge_every == 0) {
    log_table_.Purge();
  }
  // Entries of a query past its deadline can decide nothing again: the
  // deadline gate below drops its late clones before ProcessNode reads them.
  log_table_.Expire(Now());
  if (terminated_queries_.contains(clone.id.Key())) {
    return;  // query was terminated; drop silently
  }
  if (const Status status = clone.Validate(); !status.ok()) {
    ++stats_.decode_errors;
    WEBDIS_LOG(kWarning) << host_ << ": invalid clone: " << status.ToString();
    return;
  }

  // -- Budget: deadline gate (PROTOCOL.md §7.1) -----------------------------
  // Checked before any evaluation: a clone that arrives past its deadline is
  // dead on arrival. Its visit is still *reported* (budget-exceeded) so the
  // user site's CHT entries clear and the degradation is named, never silent.
  const query::QueryBudget budget = clone.budget;
  if (budget.has_deadline && Now() > budget.deadline) {
    ++stats_.budget_expired_clones;
    DegradeClone(clone, /*retired=*/false);
    return;
  }

  std::vector<query::NodeReport> reports;
  std::vector<Forward> forwards;
  for (const std::string& url : clone.dest_urls) {
    query::NodeReport report;
    const size_t report_index = reports.size();
    const size_t forwards_before = forwards.size();
    ProcessNode(clone, url, &report, &forwards);
    // Budget: per-visit result cap. Truncation is flagged on the report —
    // the user site records the node as budget-degraded but still takes the
    // surviving rows and CHT entries.
    if (budget.has_row_limit) {
      uint64_t allowed = budget.max_rows_per_visit;
      for (relational::ResultSet& rs : report.result_sets) {
        if (rs.rows.size() > allowed) {
          stats_.rows_truncated += rs.rows.size() - allowed;
          rs.rows.resize(allowed);
          report.budget_exceeded = true;
        }
        allowed -= rs.rows.size();
      }
    }
    for (size_t i = forwards_before; i < forwards.size(); ++i) {
      forwards[i].origin_report = report_index;
    }
    reports.push_back(std::move(report));
  }

  // -- Group forwarding intents into clones ---------------------------------
  // Key: destination site (+ pipeline state). With batching off, every
  // destination node gets its own clone (ablation of §3.2(4)). A CHT entry
  // is emitted for exactly the (clone, destination) pairs actually
  // dispatched — merged duplicate intents must NOT add entries, or the user
  // site would wait for reports that can never come.
  struct OutClone {
    std::string dest_host;
    size_t queries_consumed;
    pre::Pre rem;
    std::vector<std::string> dest_urls;
  };
  std::vector<OutClone> out_clones;
  const uint32_t total_queries =
      static_cast<uint32_t>(clone.remaining_queries.size());
  for (const Forward& f : forwards) {
    auto parsed = html::ParseUrl(f.dest_url);
    if (!parsed.ok()) continue;
    const std::string& dest_host = parsed->host;
    OutClone* slot = nullptr;
    if (options_.batch_clones_per_site) {
      for (OutClone& c : out_clones) {
        if (c.dest_host == dest_host &&
            c.queries_consumed == f.queries_consumed &&
            c.rem.Equals(f.rem)) {
          slot = &c;
          break;
        }
      }
    }
    if (slot == nullptr) {
      out_clones.push_back(
          OutClone{dest_host, f.queries_consumed, f.rem, {}});
      slot = &out_clones.back();
    }
    if (std::find(slot->dest_urls.begin(), slot->dest_urls.end(),
                  f.dest_url) != slot->dest_urls.end()) {
      continue;  // merged with an earlier intent: no dispatch, no entry
    }
    slot->dest_urls.push_back(f.dest_url);
    query::ChtEntry entry;
    entry.node_url = f.dest_url;
    entry.state.num_q =
        total_queries - static_cast<uint32_t>(f.queries_consumed);
    entry.state.rem_pre = f.rem;
    reports[f.origin_report].next_entries.push_back(std::move(entry));
  }

  // The paper's original design drops duplicates silently; the robust
  // default reports them so CHT balances always settle.
  if (!options_.report_dropped_duplicates) {
    std::erase_if(reports, [](const query::NodeReport& r) {
      return r.duplicate_drop;
    });
  }
  // Ack-tree termination baseline: the CHT machinery is unused, so reports
  // carry only actual results — drop notices and next-entry lists would be
  // wasted bytes (the acks below settle completion instead).
  if (clone.ack_mode) {
    for (query::NodeReport& r : reports) r.next_entries.clear();
    std::erase_if(reports, [](const query::NodeReport& r) {
      return r.result_sets.empty();
    });
  }

  // -- Report first, then forward (Section 2.7.1's ordering) ----------------
  if (!DispatchReports(clone, std::move(reports))) {
    return;  // passive termination
  }

  // -- Budget: hop & clone-allowance gates (PROTOCOL.md §7.1) ---------------
  // The CHT entries for every out-clone were just announced above, so a
  // blocked dispatch must produce a follow-up budget-exceeded report that
  // deletes them — the same announce-then-delete pattern the undeliverable
  // path uses. A clone on its last hop (hops_left == 1) forwards nothing;
  // the clone allowance pays one unit per dispatched out-clone and splits
  // the remainder across the children, bounding the forwarding tree by the
  // value the user site stamped.
  std::vector<OutClone> vetoed;
  if (budget.has_hop_limit && budget.hops_left <= 1) {
    vetoed = std::move(out_clones);
    out_clones.clear();
  }
  if (budget.has_clone_limit && out_clones.size() > budget.clones_left) {
    const auto keep = static_cast<ptrdiff_t>(budget.clones_left);
    std::move(out_clones.begin() + keep, out_clones.end(),
              std::back_inserter(vetoed));
    out_clones.resize(budget.clones_left);
  }
  uint64_t child_alloc_base = 0;
  uint64_t child_alloc_extra = 0;
  if (budget.has_clone_limit && !out_clones.empty()) {
    const uint64_t leftover = budget.clones_left - out_clones.size();
    child_alloc_base = leftover / out_clones.size();
    child_alloc_extra = leftover % out_clones.size();
  }

  // Ack-tree mode: children forwarded from this clone ack against a fresh
  // local token; this clone's own ack to its parent is deferred until all
  // children report in (Dijkstra–Scholten).
  const uint64_t ack_token =
      clone.ack_mode ? next_ack_token_++ : 0;
  size_t ack_children = 0;
  std::vector<query::NodeReport> followup_reports;
  for (const OutClone& out : vetoed) {
    ++stats_.budget_vetoed_forwards;
    for (const std::string& url : out.dest_urls) {
      query::CloneState state;
      state.num_q =
          total_queries - static_cast<uint32_t>(out.queries_consumed);
      state.rem_pre = out.rem;
      followup_reports.push_back(
          MakeDegradedReport(url, std::move(state), /*retired=*/false));
    }
  }
  for (size_t out_index = 0; out_index < out_clones.size(); ++out_index) {
    const OutClone& out = out_clones[out_index];
    query::WebQuery next;
    next.id = clone.id;
    for (size_t i = out.queries_consumed;
         i < clone.remaining_queries.size(); ++i) {
      next.remaining_queries.push_back(clone.remaining_queries[i].Clone());
    }
    for (size_t i = out.queries_consumed; i < clone.future_pres.size(); ++i) {
      next.future_pres.push_back(clone.future_pres[i]);
    }
    next.rem_pre = out.rem;
    next.dest_urls = out.dest_urls;
    next.budget = budget;
    if (next.budget.has_hop_limit) --next.budget.hops_left;
    if (next.budget.has_clone_limit) {
      next.budget.clones_left =
          child_alloc_base + (out_index < child_alloc_extra ? 1 : 0);
    }
    if (clone.ack_mode) {
      next.ack_mode = true;
      next.ack_parent_host = host_;
      next.ack_parent_port = kQueryServerPort;
      next.ack_token = ack_token;
    }
    // Circuit breaker (PROTOCOL.md §7.3): a tripped destination converts
    // the dispatch into an immediate host-unreachable outcome instead of
    // burning the retry budget against a host known to be failing.
    if (!breakers_.Allow(out.dest_host, Now())) {
      ++stats_.undeliverable_forwards;
      AddUndeliverableReports(next, &followup_reports);
      continue;
    }
    if (BatchingEnabled() && !clone.ack_mode) {
      // Cross-query batching (§9.2): stage for the next flush window, where
      // clones of *different* queries to the same destination host share
      // one kCloneBatch envelope. The breaker was consulted above; refusal
      // handling (undeliverable follow-ups) moves to flush time.
      staged_clones_[out.dest_host].push_back(std::move(next));
      ScheduleFlush();
      continue;
    }
    if (SendClones(out.dest_host, {&next, 1})) {
      ++ack_children;
    } else {
      AddUndeliverableReports(next, &followup_reports);
    }
  }
  if (!followup_reports.empty() && !clone.ack_mode) {
    // Deliberately dropped: this is the last action for the clone, so the
    // no-forwarding-after-termination contract has nothing left to gate.
    (void)DispatchReports(clone, std::move(followup_reports));
  }
  if (clone.ack_mode) {
    const net::Endpoint parent{clone.ack_parent_host, clone.ack_parent_port};
    if (ack_children == 0) {
      // Leaf of the forwarding tree: ack immediately.
      SendAck(parent, clone.ack_token);
    } else {
      pending_acks_[ack_token] =
          PendingAck{parent, clone.ack_token, ack_children, clone.id.Key()};
    }
  }
}

// -- Durability (PROTOCOL.md §8) ---------------------------------------------

void QueryServer::AppendWalRecord(WalRecordType type,
                                  const serialize::Encoder& payload) {
  if (!WalEnabled()) return;
  Status status = persist_->AppendWal(EncodeWalRecord(type, payload.data()));
  if (status.ok() &&
      options_.persist.fsync == WalFsyncPolicy::kEveryAppend) {
    status = persist_->SyncWal();
  }
  if (!status.ok()) {
    ++stats_.wal_append_errors;
    WEBDIS_LOG(kWarning) << host_ << ": WAL append failed: "
                         << status.ToString();
    return;
  }
  ++stats_.wal_records_appended;
}

uint64_t QueryServer::PersistAdmitBatch(const QueuedClone& unit) {
  if (!PersistEnabled()) return 0;
  const uint64_t first = next_wal_id_;
  next_wal_id_ += unit.clones.size();
  if (WalEnabled()) {
    // One record covering every member, appended before the unit's single
    // ack (§9.2): all-or-none durability matches all-or-none admission.
    serialize::Encoder payload;
    WalBatchAdmitted::EncodeFields(first, unit.from, unit.tracked, unit.seq,
                                   unit.clones, &payload);
    AppendWalRecord(WalRecordType::kBatchAdmitted, payload);
  }
  return first;
}

void QueryServer::FinishWalUnit(const QueuedClone& unit) {
  if (unit.wal_id == 0) return;
  for (size_t i = 0; i < unit.clones.size(); ++i) {
    FinishWalClone(unit.wal_id + i);
  }
}

void QueryServer::FinishWalClone(uint64_t wal_id) {
  if (wal_id == 0) return;
  if (BatchingEnabled()) {
    // The clone's output — reports of a processed, shed or retired unit —
    // may still sit in the staging maps. Completing it now would let a
    // crash in the gap lose those sends with no replay to regenerate them
    // (a CHT hang), and a snapshot triggered now would cover clones whose
    // output is still staged.
    wal_pending_flush_.push_back(wal_id);
    ScheduleFlush();
    return;
  }
  CompleteWalClone(wal_id);
}

void QueryServer::CompleteWalClone(uint64_t wal_id) {
  if (WalEnabled()) {
    serialize::Encoder payload;
    WalCloneCompleted{wal_id}.EncodeTo(&payload);
    AppendWalRecord(WalRecordType::kCloneCompleted, payload);
  }
  ++clones_since_snapshot_;
  MaybeSnapshot();
}

void QueryServer::ProcessCloneDurable(query::WebQuery clone,
                                      uint64_t wal_id) {
  ProcessClone(std::move(clone));
  // Every exit from ProcessClone is terminal for this clone (evaluated,
  // expired, invalid, or dropped as terminated), so the completion record
  // is due unconditionally.
  FinishWalClone(wal_id);
}

void QueryServer::ScheduleFlush() {
  if (flush_timer_ != 0) return;
  if (staged_clones_.empty() && staged_reports_.empty() &&
      wal_pending_flush_.empty()) {
    return;
  }
  flush_timer_ = transport_->ScheduleAfter(options_.batch_window, [this] {
    flush_timer_ = 0;
    FlushBatches();
  });
}

void QueryServer::FlushBatches() {
  // Take the staged state up front: refusal handling below routes through
  // DispatchReports, which may stage fresh follow-ups (flushed next
  // window) — iterating the live maps while that happens would be UB.
  std::map<std::string, std::vector<query::QueryReport>> reports;
  std::map<std::string, std::vector<query::WebQuery>> clones;
  std::vector<uint64_t> finished;
  reports.swap(staged_reports_);
  clones.swap(staged_clones_);
  finished.swap(wal_pending_flush_);

  // -- Reports first (the §2.7.1 ordering holds across the flush too) -------
  for (auto& [reply_host, members] : reports) {
    for (size_t begin = 0; begin < members.size();
         begin += options_.batch_max_members) {
      const size_t end =
          std::min(members.size(), begin + options_.batch_max_members);
      if (end - begin == 1) {
        // A lone member gains nothing from an envelope: send it as a plain
        // kReport with the standard refusal semantics.
        (void)SendReport(members[begin]);
        continue;
      }
      // The carrier socket is the lowest member port: deterministic, and
      // any member socket works — the user site demultiplexes by QueryId.
      query::ReportBatch batch;
      uint16_t carrier_port = std::numeric_limits<uint16_t>::max();
      for (size_t i = begin; i < end; ++i) {
        carrier_port = std::min(carrier_port, members[i].id.reply_port);
        batch.reports.push_back(std::move(members[i]));
      }
      serialize::Encoder enc;
      batch.EncodeTo(&enc);
      const net::Endpoint carrier{reply_host, carrier_port};
      const Status status =
          sender_.Send(net::Endpoint{host_, kQueryServerPort}, carrier,
                       net::MessageType::kReportBatch, enc.Release());
      if (status.code() == StatusCode::kConnectionRefused) {
        // Only the CARRIER socket is provably closed — terminate the
        // queries bound to that port passively (§2.8) and resend the other
        // members individually so one completed query cannot take its
        // batch peers down with it.
        for (const query::QueryReport& qr : batch.reports) {
          if (qr.id.reply_port == carrier_port) {
            TerminatePassively(qr.id);
          } else {
            (void)SendReport(qr);
          }
        }
      } else if (!status.ok()) {
        ++stats_.report_send_errors;
        WEBDIS_LOG(kWarning) << host_ << ": report batch to "
                             << carrier.ToString()
                             << " failed: " << status.ToString();
      } else {
        ++stats_.report_batches_sent;
        stats_.report_batch_members_sent += end - begin;
      }
    }
  }

  // -- Then clones (§2.7.1: every member's reports went out above) ----------
  for (auto& [dest_host, members] : clones) {
    // Members of queries passively terminated since staging (including by
    // the report flush just above) must not be forwarded — resurrecting a
    // query the user abandoned is exactly what §2.8 forbids.
    std::erase_if(members, [this](const query::WebQuery& m) {
      return terminated_queries_.contains(m.id.Key());
    });
    for (size_t begin = 0; begin < members.size();
         begin += options_.batch_max_members) {
      const size_t end =
          std::min(members.size(), begin + options_.batch_max_members);
      const std::span<const query::WebQuery> unit(members.data() + begin,
                                                  end - begin);
      if (SendClones(dest_host, unit)) continue;
      // Announce-then-delete every member's CHT entries, exactly like the
      // unbatched refusal path.
      for (const query::WebQuery& member : unit) {
        std::vector<query::NodeReport> followups;
        AddUndeliverableReports(member, &followups);
        (void)DispatchReports(member, std::move(followups));
      }
    }
  }

  // -- Deferred WAL completions: the staged output above is on the wire (or
  // explicitly reported undeliverable), so the clones are now terminal. If
  // a refusal staged fresh follow-ups, those still belong to these clones'
  // outputs — keep their completions deferred one more round, or a crash
  // before the next flush would lose the follow-ups unreplayably.
  if (staged_reports_.empty() && staged_clones_.empty()) {
    for (const uint64_t wal_id : finished) {
      CompleteWalClone(wal_id);
    }
  } else {
    wal_pending_flush_.insert(wal_pending_flush_.end(), finished.begin(),
                              finished.end());
  }
  ScheduleFlush();
}

void QueryServer::MaybeSnapshot() {
  if (!PersistEnabled()) return;
  const PersistOptions& persist = options_.persist;
  const bool by_cadence =
      persist.snapshot_every_clones != 0 &&
      clones_since_snapshot_ >= persist.snapshot_every_clones;
  const bool by_size = persist.wal_enabled &&
                       persist.wal_compact_bytes != 0 &&
                       persist_->WalBytes() >= persist.wal_compact_bytes;
  if (by_cadence || by_size) WriteSnapshotNow();
}

void QueryServer::WriteSnapshotNow() {
  // Encoded in place from the live state: nothing is copied first.
  SnapshotWriter writer(next_wal_id_ - 1, log_table_);
  writer.BeginTerminatedQueries(terminated_queries_.size());
  for (const std::string& key : terminated_queries_) {
    writer.AddTerminatedQuery(key);
  }
  writer.BeginSeenTransfers(receiver_.SeenCount());
  receiver_.ForEachSeen([&writer](const net::Endpoint& from, uint64_t seq) {
    writer.AddSeenTransfer(from, seq);
  });
  writer.BeginPendingClones(PendingMembers());
  for (const QueuedClone& queued : pending_clones_) {
    // Batch units flatten to one per-member entry (the snapshot codec is
    // member-granular). Carrier rule: the unit's single transfer seq rides
    // on member 0 only — a second entry re-committing it at drain time
    // would read as a replay and silently drop that member.
    for (size_t i = 0; i < queued.clones.size(); ++i) {
      writer.AddPendingClone(queued.wal_id == 0 ? 0 : queued.wal_id + i,
                             queued.from, queued.tracked && i == 0,
                             i == 0 ? queued.seq : 0, queued.clones[i]);
    }
  }
  const Status status = persist_->WriteSnapshot(std::move(writer).Finish());
  if (!status.ok()) {
    ++stats_.wal_append_errors;
    WEBDIS_LOG(kWarning) << host_ << ": snapshot write failed: "
                         << status.ToString();
    return;  // keep the WAL — it still covers everything since the last one
  }
  // A crash between the write above and this truncation is benign: replay
  // skips records at or below the snapshot's last_wal_id.
  (void)persist_->TruncateWal();
  ++stats_.snapshots_written;
  clones_since_snapshot_ = 0;
}

void QueryServer::Recover() {
  if (!PersistEnabled()) {
    ++stats_.cold_starts;
    return;
  }
  DurableServerState state;
  bool have_snapshot = false;
  auto snapshot_bytes = persist_->ReadSnapshot();
  if (snapshot_bytes.ok()) {
    const Status status = DecodeSnapshot(*snapshot_bytes, &state);
    if (status.ok()) {
      have_snapshot = true;
    } else {
      // Explicit rejection (unknown version, failed checksum, torn write):
      // fall back to cold start + WAL replay, never a silent misread.
      ++stats_.snapshot_load_rejected;
      WEBDIS_LOG(kWarning) << host_ << ": snapshot rejected: "
                           << status.ToString();
      state = DurableServerState();
    }
  }
  if (have_snapshot) {
    ++stats_.recovered_from_snapshot;
    log_table_ = std::move(state.log_table);
    for (std::string& key : state.terminated_queries) {
      terminated_queries_.insert(std::move(key));
    }
    for (const auto& [from, seq] : state.seen_transfers) {
      receiver_.RestoreSeen(from, seq);
    }
  }

  // Admitted-but-unprocessed clones: snapshot pendings, then the WAL
  // replayed idempotently on top. Records the snapshot already folded in
  // are skipped by id; completions erase their admitted record whether it
  // came from the WAL or the snapshot.
  std::map<uint64_t, DurablePendingClone> pending;
  for (DurablePendingClone& p : state.pending_clones) {
    const uint64_t id = p.record_id;
    pending.emplace(id, std::move(p));
  }
  uint64_t max_wal_id = state.last_wal_id;
  const uint64_t replayed_before = stats_.replayed_wal_records;
  if (WalEnabled()) {
    auto wal_bytes = persist_->ReadWal();
    if (wal_bytes.ok()) {
      WalReadResult wal = DecodeWal(*wal_bytes);
      stats_.wal_records_discarded += wal.discarded_records;
      for (const WalRecord& record : wal.records) {
        serialize::Decoder dec(record.payload);
        switch (record.type) {
          case WalRecordType::kCloneCompleted: {
            WalCloneCompleted completed;
            if (!WalCloneCompleted::DecodeFrom(&dec, &completed).ok() ||
                !dec.ExpectAtEnd("WAL clone-completed record").ok()) {
              break;
            }
            max_wal_id = std::max(max_wal_id, completed.record_id);
            pending.erase(completed.record_id);
            ++stats_.replayed_wal_records;
            break;
          }
          case WalRecordType::kTransferSeen: {
            WalTransferSeen seen;
            if (!WalTransferSeen::DecodeFrom(&dec, &seen).ok() ||
                !dec.ExpectAtEnd("WAL transfer-seen record").ok()) {
              break;
            }
            receiver_.RestoreSeen(seen.from, seen.seq);
            ++stats_.replayed_wal_records;
            break;
          }
          case WalRecordType::kQueryTerminated: {
            WalQueryTerminated terminated;
            if (!WalQueryTerminated::DecodeFrom(&dec, &terminated).ok() ||
                !dec.ExpectAtEnd("WAL query-terminated record").ok()) {
              break;
            }
            terminated_queries_.insert(terminated.query_key);
            log_table_.PurgeQuery(terminated.query_key);
            ++stats_.replayed_wal_records;
            break;
          }
          case WalRecordType::kBatchAdmitted: {
            WalBatchAdmitted admitted;
            if (!WalBatchAdmitted::DecodeFrom(&dec, &admitted).ok() ||
                !dec.ExpectAtEnd("WAL batch-admitted record").ok()) {
              break;
            }
            max_wal_id = std::max(
                max_wal_id,
                admitted.first_record_id + admitted.clones.size() - 1);
            if (admitted.tracked) {
              // The pre-crash life acked this transfer right after the
              // append; restoring the receipt keeps post-restart
              // retransmissions re-acked instead of reprocessed.
              receiver_.RestoreSeen(admitted.from, admitted.seq);
            }
            for (size_t i = 0; i < admitted.clones.size(); ++i) {
              const uint64_t id = admitted.first_record_id + i;
              if (id <= state.last_wal_id) continue;  // in the snapshot
              DurablePendingClone p;
              p.record_id = id;
              p.from = admitted.from;
              // Carrier rule (see WriteSnapshotNow): the unit's single seq
              // rides on member 0 only.
              p.tracked = admitted.tracked && i == 0;
              p.seq = i == 0 ? admitted.seq : 0;
              p.clone = std::move(admitted.clones[i]);
              pending.emplace(id, std::move(p));
            }
            ++stats_.replayed_wal_records;
            break;
          }
        }
      }
    }
  }
  next_wal_id_ = max_wal_id + 1;
  // The three restart paths are mutually exclusive in stats: snapshot
  // recovery and WAL replay each announce themselves above; a restart that
  // found neither (empty storage, or everything rejected as corrupt) is a
  // cold start.
  if (!have_snapshot && stats_.replayed_wal_records == replayed_before) {
    ++stats_.cold_starts;
  }

  // Re-enqueue survivors in admission order (the map is id-sorted).
  // Tracked clones were acked in the pre-crash life under the WAL's
  // ack-after-append rule; in snapshot-only mode the ack was still deferred
  // at crash time, so the drain path must commit the seq as usual.
  for (auto& [id, p] : pending) {
    ++stats_.recovered_clones;
    QueuedClone entry;
    entry.from = p.from;
    entry.tracked = p.tracked;
    entry.seq = p.seq;
    entry.clones.push_back(std::move(p.clone));
    entry.wal_id = id;
    entry.acked = p.tracked && WalEnabled();
    if (options_.admission.max_pending != 0) {
      pending_clones_.push_back(std::move(entry));
    } else {
      ProcessCloneDurable(std::move(entry.clones.front()), entry.wal_id);
    }
  }
  if (!pending_clones_.empty()) {
    stats_.queue_peak =
        std::max<uint64_t>(stats_.queue_peak, pending_clones_.size());
    ScheduleDrain();
  }
}

}  // namespace webdis::server
