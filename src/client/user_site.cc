#include "client/user_site.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"
#include "html/url.h"
#include "serialize/encoder.h"
#include "server/http_server.h"

namespace webdis::client {

std::string QueryRunStats::ToText() const {
  std::string out;
  ForEachCounter(*this, [&out](const char* name, uint64_t value) {
    if (value != 0) out += StringPrintf("%s: %llu\n", name,
                                        static_cast<unsigned long long>(value));
  });
  return out;
}

UserSite::UserSite(std::string host, net::Transport* transport,
                   UserSiteOptions options)
    : host_(std::move(host)),
      transport_(transport),
      options_(options),
      sender_(transport, options.retry),
      clock_([] { return SimTime{0}; }),
      next_port_(options.first_result_port) {}

Result<query::QueryId> UserSite::Submit(const disql::CompiledQuery& compiled,
                                        const std::string& user) {
  if (compiled.start_urls.empty()) {
    return Status::InvalidArgument("compiled query has no StartNodes");
  }
  // Group StartNodes by site — the initial dispatch enjoys the same
  // one-clone-per-site batching as forwarding (§3.2(4)). Parsed before
  // the result socket opens, so a bad StartNode leaves no run or socket.
  std::map<std::string, std::vector<std::string>> by_host;
  for (const std::string& url : compiled.start_urls) {
    auto parsed = html::ParseUrl(url);
    if (!parsed.ok()) {
      return Status::InvalidArgument(
          StringPrintf("bad StartNode URL '%s'", url.c_str()));
    }
    by_host[parsed->host].push_back(parsed->ResourceKey());
  }

  query::QueryId id;
  id.user = user;
  id.reply_host = host_;
  id.reply_port = next_port_++;
  id.query_number = next_query_number_++;

  auto run = std::make_unique<QueryRun>(
      options_.cht_dedup, options_.robust_completion,
      net::ReliableReceiver(
          transport_,
          options_.retry.enabled && transport_->SupportsTimers()));
  run->id = id;
  run->compiled.web_query = compiled.web_query.Clone();
  run->compiled.start_urls = compiled.start_urls;
  run->compiled.select_labels = compiled.select_labels;
  run->submit_time = clock_();
  QueryRun* raw = run.get();

  // Open the listening result socket; its port travels in the QueryId.
  WEBDIS_RETURN_IF_ERROR(transport_->Listen(
      net::Endpoint{host_, id.reply_port},
      [this, raw](const net::Endpoint& from, net::MessageType type,
                  const std::vector<uint8_t>& payload) {
        OnMessage(raw, from, type, payload);
      }));
  runs_.emplace(id.Key(), std::move(run));

  // Per-query resource budget (PROTOCOL.md §7.1): deadlines become absolute
  // here, and the clone allowance is split across the initial per-site
  // clones (remainder to the first sites) so the *global* dispatch count is
  // bounded no matter how the traversal fans out.
  query::QueryBudget budget;
  if (options_.budget_deadline > 0) {
    budget.has_deadline = true;
    budget.deadline = clock_() + options_.budget_deadline;
  }
  if (options_.budget_max_hops > 0) {
    budget.has_hop_limit = true;
    budget.hops_left = options_.budget_max_hops;
  }
  if (options_.budget_max_rows_per_visit > 0) {
    budget.has_row_limit = true;
    budget.max_rows_per_visit = options_.budget_max_rows_per_visit;
  }
  if (options_.epoch_source) {
    // §10.1: pin the web epoch at submission — servers hide documents
    // spawned after it, so this run sees a consistent reachability set.
    budget.pinned_epoch = options_.epoch_source();
    raw->pinned_epoch = budget.pinned_epoch;
  }
  uint64_t clone_alloc_base = 0;
  uint64_t clone_alloc_extra = 0;
  if (options_.budget_max_clones > 0) {
    budget.has_clone_limit = true;
    clone_alloc_base = options_.budget_max_clones / by_host.size();
    clone_alloc_extra = options_.budget_max_clones % by_host.size();
  }

  const query::CloneState initial_state{
      static_cast<uint32_t>(compiled.web_query.remaining_queries.size()),
      compiled.web_query.rem_pre};
  const net::Endpoint self{host_, id.reply_port};
  uint64_t next_root_token = 1;
  size_t site_index = 0;
  for (const auto& [site_host, urls] : by_host) {
    // Figure 2: enter the CHT entries, then dispatch.
    if (!options_.ack_tree_termination) {
      for (const std::string& url : urls) {
        raw->cht.Add(url, initial_state, clock_());
      }
    }
    query::WebQuery clone = compiled.web_query.Clone();
    clone.id = id;
    clone.dest_urls = urls;
    clone.budget = budget;
    if (budget.has_clone_limit) {
      clone.budget.clones_left =
          clone_alloc_base + (site_index < clone_alloc_extra ? 1 : 0);
    }
    ++site_index;
    uint64_t root_token = 0;
    if (options_.ack_tree_termination) {
      root_token = next_root_token++;
      clone.ack_mode = true;
      clone.ack_parent_host = host_;
      clone.ack_parent_port = id.reply_port;
      clone.ack_token = root_token;
      raw->outstanding_root_acks.insert(root_token);
    }
    serialize::Encoder enc;
    clone.EncodeTo(&enc);
    const Status status = sender_.Send(
        self, net::Endpoint{site_host, server::kQueryServerPort},
        net::MessageType::kWebQuery, enc.Release());
    if (!status.ok() && status.code() != StatusCode::kConnectionRefused &&
        sender_.enabled()) {
      // Transient transport error with retry armed: the clone will be
      // retransmitted, so the CHT entries must stay — falling back now
      // would process the StartNodes twice (centrally AND on redelivery).
      // If every retry exhausts, the deadline sweep reclaims the entries.
      ++raw->stats.dispatch_send_errors;
      continue;
    }
    if (!status.ok()) {
      // StartNode site runs no query server: clear the entries and record
      // the nodes for centralized fallback.
      if (options_.ack_tree_termination) {
        raw->outstanding_root_acks.erase(root_token);
      } else {
        for (const std::string& url : urls) {
          raw->cht.MarkDeleted(url, initial_state, clock_());
        }
      }
      for (const std::string& url : urls) {
        raw->fallback_nodes.push_back(query::ChtEntry{url, initial_state});
      }
    }
  }
  MaybeComplete(raw);
  if (!raw->completed && options_.use_cht &&
      !options_.ack_tree_termination && options_.entry_deadline > 0 &&
      transport_->SupportsTimers()) {
    ScheduleSweep(raw);
  }
  return id;
}

void UserSite::ScheduleSweep(QueryRun* run) {
  const SimDuration interval =
      std::max<SimDuration>(options_.entry_deadline / 4, kMillisecond);
  run->sweep_timer = transport_->ScheduleAfter(
      interval, [this, run] { SweepDeadlines(run); });
}

void UserSite::CancelSweep(QueryRun* run) {
  if (run->sweep_timer != 0) {
    transport_->CancelTimer(run->sweep_timer);
    run->sweep_timer = 0;
  }
}

void UserSite::SweepDeadlines(QueryRun* run) {
  run->sweep_timer = 0;
  if (run->completed || run->cancelled) return;
  const std::vector<CurrentHostsTable::Entry> expired =
      run->cht.DrainExpired(clock_(), options_.entry_deadline);
  for (const CurrentHostsTable::Entry& entry : expired) {
    ++run->stats.entries_gc;
    run->partial = true;
    auto parsed = html::ParseUrl(entry.node_url);
    const std::string site_host =
        parsed.ok() ? parsed->host : entry.node_url;
    if (std::find(run->unreachable_hosts.begin(),
                  run->unreachable_hosts.end(),
                  site_host) == run->unreachable_hosts.end()) {
      run->unreachable_hosts.push_back(site_host);
    }
  }
  MaybeComplete(run);
  // Re-arm while the run is live. Termination is still guaranteed: the
  // message supply is finite (retries are capped), so eventually every key
  // either settles or goes idle past the deadline and is collected here.
  if (!run->completed && !run->cancelled) ScheduleSweep(run);
}

const UserSite::QueryRun* UserSite::Find(const query::QueryId& id) const {
  auto it = runs_.find(id.Key());
  return it == runs_.end() ? nullptr : it->second.get();
}

void UserSite::Forget(const query::QueryId& id) {
  auto it = runs_.find(id.Key());
  if (it == runs_.end()) return;
  QueryRun* run = it->second.get();
  CancelSweep(run);
  if (!run->socket_closed) CloseResultSocket(run);
  runs_.erase(it);
}

bool UserSite::IsComplete(const query::QueryId& id) const {
  const QueryRun* run = Find(id);
  return run != nullptr && run->completed;
}

void UserSite::Cancel(const query::QueryId& id) {
  auto it = runs_.find(id.Key());
  if (it == runs_.end()) return;
  QueryRun* run = it->second.get();
  if (run->completed || run->cancelled) return;
  run->cancelled = true;
  CancelSweep(run);
  if (options_.active_termination) {
    // Send kTerminate to every site with an active clone.
    std::set<std::string> hosts;
    for (const CurrentHostsTable::Entry& entry : run->cht.entries()) {
      if (entry.deleted) continue;
      auto parsed = html::ParseUrl(entry.node_url);
      if (parsed.ok()) hosts.insert(parsed->host);
    }
    serialize::Encoder enc;
    id.EncodeTo(&enc);
    const std::vector<uint8_t> payload = enc.Release();
    const net::Endpoint self{host_, id.reply_port};
    for (const std::string& site_host : hosts) {
      const Status status = transport_->Send(
          self, net::Endpoint{site_host, server::kQueryServerPort},
          net::MessageType::kTerminate, payload);
      if (status.ok()) {
        ++run->stats.termination_messages_sent;
      } else {
        // Observed, not fatal: a site that misses its kTerminate keeps
        // processing until its next report send is refused (passive
        // termination below always runs, so that refusal is guaranteed).
        ++run->stats.termination_send_failures;
      }
    }
  }
  // Passive termination (both modes): close the socket; every later result
  // dispatch is refused and servers purge the query locally (Section 2.8).
  CloseResultSocket(run);
}

void UserSite::FinishWithTimeout(const query::QueryId& id,
                                 SimDuration timeout) {
  auto it = runs_.find(id.Key());
  if (it == runs_.end()) return;
  QueryRun* run = it->second.get();
  if (run->completed) return;
  run->completed = true;
  CancelSweep(run);
  const SimTime base =
      run->stats.reports_received > 0 ? run->last_report_time
                                      : run->submit_time;
  run->completion_time = base + timeout;
  CloseResultSocket(run);
}

size_t UserSite::AbandonStalled(const query::QueryId& id) {
  auto it = runs_.find(id.Key());
  if (it == runs_.end()) return 0;
  QueryRun* run = it->second.get();
  if (run->completed) return 0;
  const std::vector<CurrentHostsTable::Entry> outstanding =
      run->cht.DrainOutstanding();
  for (const CurrentHostsTable::Entry& entry : outstanding) {
    run->fallback_nodes.push_back(
        query::ChtEntry{entry.node_url, entry.state});
  }
  run->completed = true;
  CancelSweep(run);
  run->completion_time = clock_();
  CloseResultSocket(run);
  return outstanding.size();
}

void UserSite::CloseResultSocket(QueryRun* run) {
  run->socket_closed = true;
  transport_->CloseListener(net::Endpoint{host_, run->id.reply_port});
}

void UserSite::OnMessage(QueryRun* run, const net::Endpoint& from,
                         net::MessageType type,
                         const std::vector<uint8_t>& payload) {
  if (type == net::MessageType::kAck && options_.ack_tree_termination) {
    serialize::Decoder dec(payload);
    uint64_t token = 0;
    if (!dec.GetU64(&token).ok() || !dec.ExpectAtEnd("ack").ok()) return;
    ++run->stats.root_acks_received;
    run->outstanding_root_acks.erase(token);
    MaybeComplete(run);
    return;
  }
  if (type == net::MessageType::kDeliveryAck) {
    sender_.OnAck(payload);
    return;
  }
  if (type == net::MessageType::kOverloaded) {
    // A StartNode server shed an initial clone: re-arm it on the overload
    // backoff schedule instead of retrying hot.
    sender_.OnOverloaded(payload);
    return;
  }
  if (type == net::MessageType::kSiteRetired) {
    // A StartNode site retired (§10.2): terminal — abandon the transfer.
    // The retired server's site-retired reports settle the CHT entries.
    sender_.OnSiteRetired(payload);
    return;
  }
  if (type != net::MessageType::kReport &&
      type != net::MessageType::kReportBatch) {
    WEBDIS_LOG(kWarning) << "user site ignoring message of type "
                         << net::MessageTypeToString(type);
    return;
  }
  // Report-sequence dedup: a retransmitted report whose original got
  // through must not double-count CHT deletions or rows. A batch rides one
  // transfer seq, accepted (or suppressed) whole at the carrier endpoint.
  std::vector<uint8_t> inner;
  const std::vector<uint8_t>* body = &payload;
  if (run->receiver.enabled()) {
    if (!run->receiver.Accept(net::Endpoint{host_, run->id.reply_port}, from,
                              payload, &inner)) {
      ++run->stats.redeliveries_suppressed;
      return;
    }
    body = &inner;
  }
  serialize::Decoder dec(*body);
  if (type == net::MessageType::kReportBatch) {
    // Cross-query sharing (PROTOCOL.md §9.3): reports for *different*
    // queries of this user site, delivered on the carrier member's socket.
    // Demultiplex by each member's QueryId.
    query::ReportBatch batch;
    Status status = query::ReportBatch::DecodeFrom(&dec, &batch);
    if (status.ok()) status = dec.ExpectAtEnd("report-batch payload");
    if (!status.ok()) {
      WEBDIS_LOG(kWarning) << "bad report batch: " << status.ToString();
      return;
    }
    ++run->stats.report_batches_received;
    run->stats.report_batch_members_received += batch.reports.size();
    for (const query::QueryReport& report : batch.reports) {
      auto it = runs_.find(report.id.Key());
      if (it == runs_.end()) {
        if (report.id.reply_host == host_ &&
            report.id.query_number < next_query_number_) {
          // A query number this site handed out: the run was forgotten,
          // and Forget closed its socket first. The drop is that socket's
          // refusal, as for a closed member below.
          ++run->stats.batch_members_dropped_forgotten;
        } else {
          WEBDIS_LOG(kWarning) << "batched report for unknown query "
                               << report.id.Key();
        }
        continue;
      }
      QueryRun* member_run = it->second.get();
      if (member_run->socket_closed) {
        // An individual send would have been refused (§2.8): the drop here
        // is that refusal, applied at demux time — the server already
        // learns of the closure from its next individual send or carrier
        // refusal on this port.
        ++member_run->stats.batch_members_dropped_closed;
        continue;
      }
      HandleReport(member_run, report);
    }
    return;
  }
  query::QueryReport report;
  Status status = query::QueryReport::DecodeFrom(&dec, &report);
  if (status.ok()) status = dec.ExpectAtEnd("report payload");
  if (!status.ok()) {
    WEBDIS_LOG(kWarning) << "bad report: " << status.ToString();
    return;
  }
  if (!(report.id == run->id)) {
    WEBDIS_LOG(kWarning) << "report for unknown query " << report.id.Key();
    return;
  }
  HandleReport(run, report);
}

void UserSite::HandleReport(QueryRun* run,
                            const query::QueryReport& report) {
  ++run->stats.reports_received;
  run->last_report_time = clock_();
  for (const query::NodeReport& nr : report.node_reports) {
    ++run->stats.node_reports;
    if (report_observer_) report_observer_(run->id, nr);
    // Mark the topmost entry (the processed node in its received state)
    // deleted. Unmatched deletes are tolerated: the entry may have been
    // suppressed by CHT dedup. (The ack-tree baseline keeps no CHT.)
    if (!options_.ack_tree_termination) {
      run->cht.MarkDeleted(nr.node_url, nr.received_state, clock_());
    }
    if (nr.duplicate_drop) {
      ++run->stats.duplicate_drop_reports;
      continue;
    }
    if (nr.undeliverable) {
      ++run->stats.undeliverable_reports;
      run->fallback_nodes.push_back(
          query::ChtEntry{nr.node_url, nr.received_state});
      continue;
    }
    if (nr.visibility == query::NodeReport::kVisibilitySiteRetired) {
      // §10.2: the node's site retired mid-run — a named degraded outcome
      // (retired_sites), deliberately NOT `partial`: partial means deadline
      // GC gave up on unreachable hosts, while retirement settles the CHT
      // cleanly. The topmost entry was already cleared above; nothing was
      // evaluated or forwarded, and the host never lands in the
      // retry/fallback path.
      ++run->stats.site_retired_reports;
      auto parsed = html::ParseUrl(nr.node_url);
      const std::string site_host =
          parsed.ok() ? parsed->host : nr.node_url;
      if (std::find(run->retired_sites.begin(), run->retired_sites.end(),
                    site_host) == run->retired_sites.end()) {
        run->retired_sites.push_back(site_host);
      }
      continue;
    }
    if (nr.visibility == query::NodeReport::kVisibilityEpochGated) {
      // §10.3: the document was spawned after this run's pinned epoch and
      // is invisible to it — by design, not a degradation.
      ++run->stats.epoch_gated_reports;
      if (std::find(run->epoch_gated_nodes.begin(),
                    run->epoch_gated_nodes.end(),
                    nr.node_url) == run->epoch_gated_nodes.end()) {
        run->epoch_gated_nodes.push_back(nr.node_url);
      }
      continue;
    }
    if (nr.doc_version != 0) {
      // §10.1: record the stamped document version for the final verdict's
      // freshness classification. Re-visits (recomputation with dedup off)
      // keep the highest stamp seen.
      uint64_t& stamped = run->node_versions[nr.node_url];
      stamped = std::max(stamped, nr.doc_version);
    }
    if (nr.budget_exceeded) {
      // Explicit degradation (PROTOCOL.md §7.1): the visit was shed,
      // expired, vetoed, or truncated. The topmost entry was already
      // cleared above; record the node so the partial outcome names it.
      // NOT a `continue`: a truncated visit still carries its surviving
      // rows and CHT entries below.
      ++run->stats.budget_exceeded_reports;
      run->budget_exhausted = true;
      if (std::find(run->budget_exceeded_nodes.begin(),
                    run->budget_exceeded_nodes.end(),
                    nr.node_url) == run->budget_exceeded_nodes.end()) {
        run->budget_exceeded_nodes.push_back(nr.node_url);
      }
    }
    if (!options_.ack_tree_termination) {
      for (const query::ChtEntry& entry : nr.next_entries) {
        run->cht.Add(entry.node_url, entry.state, clock_());
      }
    }
    for (const relational::ResultSet& rs : nr.result_sets) {
      MergeResults(run, rs);
    }
  }
  // Approximate-query budget: enough rows collected -> stop the traversal
  // via the ordinary passive-termination machinery.
  if (options_.row_limit > 0 && !run->completed && !run->cancelled) {
    size_t unique_rows = 0;
    for (const relational::ResultSet& rs : run->results) {
      unique_rows += rs.rows.size();
    }
    if (unique_rows >= options_.row_limit) {
      run->truncated = true;
      run->completed = true;
      CancelSweep(run);
      run->completion_time = clock_();
      CloseResultSocket(run);
      return;
    }
  }
  MaybeComplete(run);
}

void UserSite::MergeResults(QueryRun* run, const relational::ResultSet& rs) {
  const relational::RowIdentity identity(rs.column_labels);
  relational::ResultSet* target = nullptr;
  for (relational::ResultSet& existing : run->results) {
    if (existing.column_labels == rs.column_labels) {
      target = &existing;
      break;
    }
  }
  if (target == nullptr) {
    relational::ResultSet fresh;
    fresh.column_labels = rs.column_labels;
    run->results.push_back(std::move(fresh));
    target = &run->results.back();
  }
  for (const relational::Tuple& row : rs.rows) {
    ++run->stats.result_rows_received;
    if (!run->seen_rows.insert(identity.Key(row)).second) {
      // Duplicate rows reach the user when recomputation suppression is
      // disabled ("the same set of results will be received multiple times
      // and these will have to be filtered", Section 3.1).
      ++run->stats.duplicate_rows_filtered;
      continue;
    }
    target->rows.push_back(row);
  }
}

void UserSite::MaybeComplete(QueryRun* run) {
  if (run->completed || run->cancelled) return;
  if (options_.ack_tree_termination) {
    if (run->outstanding_root_acks.empty()) {
      run->completed = true;
      CancelSweep(run);
      run->completion_time = clock_();
      if (options_.close_socket_on_completion) {
        CloseResultSocket(run);
      }
    }
    return;
  }
  if (!options_.use_cht) return;
  if (run->cht.AllDeleted()) {
    run->completed = true;
    CancelSweep(run);
    run->completion_time = clock_();
    if (options_.close_socket_on_completion) {
      CloseResultSocket(run);
    }
  }
}

}  // namespace webdis::client
