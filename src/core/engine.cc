#include "core/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_annotations.h"
#include "html/url.h"

namespace webdis::core {

size_t RunOutcome::TotalRows() const {
  size_t total = 0;
  for (const relational::ResultSet& rs : results) total += rs.rows.size();
  return total;
}

std::string FormatResults(const std::vector<relational::ResultSet>& results) {
  std::string out;
  for (const relational::ResultSet& rs : results) {
    const size_t cols = rs.column_labels.size();
    std::vector<size_t> widths(cols);
    for (size_t c = 0; c < cols; ++c) {
      widths[c] = rs.column_labels[c].size();
    }
    std::vector<std::vector<std::string>> cells;
    for (const relational::Tuple& row : rs.rows) {
      std::vector<std::string> rendered;
      for (size_t c = 0; c < cols && c < row.size(); ++c) {
        std::string cell = row[c].ToString();
        if (cell.size() > 60) cell = cell.substr(0, 57) + "...";
        widths[c] = std::max(widths[c], cell.size());
        rendered.push_back(std::move(cell));
      }
      cells.push_back(std::move(rendered));
    }
    const auto pad = [](const std::string& s, size_t w) {
      return s + std::string(w - s.size(), ' ');
    };
    for (size_t c = 0; c < cols; ++c) {
      out += pad(rs.column_labels[c], widths[c]) + "  ";
    }
    out += "\n";
    for (size_t c = 0; c < cols; ++c) {
      out += std::string(widths[c], '-') + "  ";
    }
    out += "\n";
    for (const std::vector<std::string>& row : cells) {
      for (size_t c = 0; c < row.size(); ++c) {
        out += pad(row[c], widths[c]) + "  ";
      }
      out += "\n";
    }
    out += "\n";
  }
  return out;
}

std::string FormatRunStats(const RunOutcome& outcome) {
  std::string out;
  if (outcome.partial) out += "partial: true\n";
  if (outcome.budget_exhausted) out += "budget_exhausted: true\n";
  for (const std::string& node : outcome.budget_exceeded_nodes) {
    out += "budget_exceeded_node: " + node + "\n";
  }
  if (outcome.pinned_epoch != 0) {
    out += StringPrintf(
        "freshness: pinned_epoch=%llu fresh=%zu stale_consistent=%zu "
        "superseded=%zu\n",
        (unsigned long long)outcome.pinned_epoch, outcome.fresh_nodes,
        outcome.stale_consistent_nodes, outcome.superseded_nodes);
  }
  for (const std::string& url : outcome.stale_node_urls) {
    out += "stale_node: " + url + "\n";
  }
  for (const std::string& url : outcome.superseded_node_urls) {
    out += "superseded_node: " + url + "\n";
  }
  for (const std::string& host : outcome.retired_sites) {
    out += "retired_site: " + host + "\n";
  }
  for (const std::string& url : outcome.epoch_gated_nodes) {
    out += "epoch_gated_node: " + url + "\n";
  }
  out += "client:\n";
  const std::string client = outcome.client_stats.ToText();
  if (client.empty()) out += "  (all zero)\n";
  for (const std::string& line : Split(client, '\n')) {
    if (!line.empty()) out += "  " + line + "\n";
  }
  out += "servers:\n";
  server::ForEachCounter(
      outcome.server_stats, [&out](const char* name, uint64_t value) {
        if (value != 0) {
          out += StringPrintf("  %s: %llu\n", name, (unsigned long long)value);
        }
      });
  if (outcome.workers > 0) {
    // Cumulative over the network's lifetime, not per query: occupancy is a
    // property of how the whole run's slices partitioned.
    out += StringPrintf(
        "parallel: workers=%zu slices=%llu parallel_slices=%llu "
        "max_partitions=%llu occupancy=%.1f%% serial_slices=%llu "
        "serial_events=%llu\n",
        outcome.workers, (unsigned long long)outcome.parallel.slices,
        (unsigned long long)outcome.parallel.parallel_slices,
        (unsigned long long)outcome.parallel.max_slice_partitions,
        100.0 * outcome.parallel.Occupancy(),
        (unsigned long long)outcome.parallel.serial_slices,
        (unsigned long long)outcome.parallel.serial_events);
  }
  return out;
}

Engine::Engine(const web::WebGraph* web, EngineOptions options)
    : web_(web), options_(options) {
  // The at-least-once envelope is not self-describing: a retry-enabled
  // sender talking to a retry-disabled receiver (or vice versa) would
  // misparse every message. Catch the misconfiguration at construction.
  WEBDIS_CHECK(options_.server.retry.enabled == options_.client.retry.enabled)
      << "server and client retry settings must match";
  for (const auto& [host, override_opts] : options_.server_overrides) {
    WEBDIS_CHECK(override_opts.retry.enabled == options_.client.retry.enabled)
        << "server override for " << host << " must match client retry";
  }
  WEBDIS_CHECK(options_.client.row_limit == 0 ||
               options_.network.worker_threads == 0)
      << "row_limit requires the sequential stepper (workers == 0): its "
         "early stop closes the result socket inside a slice, where a "
         "server on another host may already have reported to it";
  network_ = std::make_unique<net::SimNetwork>(options_.network);
  const std::vector<std::string> hosts = web_->Hosts();

  // Every host serves plain HTTP (it is, after all, the web).
  for (const std::string& host : hosts) {
    auto http = std::make_unique<server::HttpServer>(host, web_,
                                                     network_.get());
    const Status status = http->Start();
    WEBDIS_CHECK(status.ok()) << status.ToString();
    http_servers_.emplace(host, std::move(http));
  }

  // A deterministic subset of hosts participates in WEBDIS.
  Rng rng(options_.participation_seed);
  for (const std::string& host : hosts) {
    const bool forced =
        std::find(options_.forced_participants.begin(),
                  options_.forced_participants.end(),
                  host) != options_.forced_participants.end();
    const bool participates =
        forced || options_.participation_fraction >= 1.0 ||
        rng.Bernoulli(options_.participation_fraction);
    if (!participates) continue;
    const auto override_it = options_.server_overrides.find(host);
    const server::QueryServerOptions& server_options =
        override_it == options_.server_overrides.end() ? options_.server
                                                       : override_it->second;
    AddParticipant(host, server_options);
  }

  user_site_ = std::make_unique<client::UserSite>(
      kClientHost, network_.get(), options_.client);
  user_site_->SetClock([this] { return network_->now(); });
}

void Engine::AddParticipant(
    const std::string& host,
    const server::QueryServerOptions& server_options) {
  auto qs = std::make_unique<server::QueryServer>(
      host, web_, network_.get(), server_options);
  if (server_options.persist.enabled) {
    // Per-host seed: FNV-1a of the host name folded into the base seed,
    // so fault schedules are stable across platforms and host ordering.
    uint64_t host_hash = 1469598103934665603ull;
    for (const char c : host) {
      host_hash ^= static_cast<uint8_t>(c);
      host_hash *= 1099511628211ull;
    }
    server::PersistFaultRules rules = options_.persist_faults;
    rules.seed = options_.persist_faults.seed ^ host_hash;
    auto backend = std::make_unique<server::MemoryPersistBackend>(rules);
    qs->SetPersistence(backend.get());
    persist_backends_.emplace(host, std::move(backend));
  }
  const Status status = qs->Start();
  WEBDIS_CHECK(status.ok()) << status.ToString();
  qs->SetClock([this] { return network_->now(); });
  participating_hosts_.push_back(host);
  query_servers_.emplace(host, std::move(qs));
}

Engine::~Engine() = default;

server::QueryServer* Engine::server_for(const std::string& host) {
  auto it = query_servers_.find(host);
  return it == query_servers_.end() ? nullptr : it->second.get();
}

server::MemoryPersistBackend* Engine::persist_backend_for(
    const std::string& host) {
  auto it = persist_backends_.find(host);
  return it == persist_backends_.end() ? nullptr : it->second.get();
}

void Engine::ObserveVisits(server::QueryServer::VisitObserver observer) {
  if (options_.network.worker_threads > 0 && observer != nullptr) {
    // The observer is the one deliberately shared sink across all servers
    // (e.g. the trace collector). Under the parallel stepper, servers on
    // distinct hosts invoke it concurrently, so serialize it here; within a
    // time-slice the cross-host observation order is unspecified.
    auto mu = std::make_shared<webdis::Mutex>();
    auto inner =
        std::make_shared<server::QueryServer::VisitObserver>(
            std::move(observer));
    observer = [mu, inner](const server::VisitEvent& event) {
      webdis::MutexLock lock(mu.get());
      (*inner)(event);
    };
  }
  for (auto& [host, qs] : query_servers_) {
    qs->SetVisitObserver(observer);
  }
}

void Engine::InstallMutationPlan(web::WebGraph* web,
                                 web::MutationPlan* plan) {
  WEBDIS_CHECK(web == web_)
      << "mutation plan must target the graph the engine was built over";
  WEBDIS_CHECK(options_.network.worker_threads == 0)
      << "churn requires the sequential stepper (workers == 0): mutations "
         "touch shared WebGraph state outside endpoint confinement";
  mutable_web_ = web;
  mutation_plan_ = plan;
  // Every query submitted from here on pins the then-current epoch (§10.1).
  user_site_->SetEpochSource([web] { return web->epoch(); });
  const SimTime now = network_->now();
  for (const SimTime t : plan->PendingTimes()) {
    // ApplyDue is a no-op for an already-applied prefix, so a timer that
    // fires after a later timer already consumed its batch is harmless.
    network_->ScheduleAfter(t > now ? t - now : 0,
                            [this] { ApplyDueMutations(); });
  }
}

void Engine::ApplyDueMutations() {
  if (mutation_plan_ == nullptr) return;
  const std::vector<web::Mutation> batch =
      mutation_plan_->ApplyDue(mutable_web_, network_->now());
  for (const web::Mutation& m : batch) {
    switch (m.kind) {
      case web::Mutation::Kind::kSpawnSite: {
        auto parsed = html::ParseUrl(m.url);
        WEBDIS_CHECK(parsed.ok()) << parsed.status().ToString();
        const std::string& host = parsed->host;
        if (http_servers_.find(host) == http_servers_.end()) {
          auto http = std::make_unique<server::HttpServer>(host, web_,
                                                           network_.get());
          const Status status = http->Start();
          WEBDIS_CHECK(status.ok()) << status.ToString();
          http_servers_.emplace(host, std::move(http));
        }
        if (query_servers_.find(host) == query_servers_.end()) {
          // Spawned sites always participate: the plan pairs each spawn
          // with an inbound link, and the point is that queries pinned at
          // or after the spawn epoch can actually traverse into it.
          AddParticipant(host, options_.server);
          spawned_hosts_.push_back(host);
        }
        break;
      }
      case web::Mutation::Kind::kRetireSite: {
        // The query server survives in retired mode so in-flight clones get
        // a terminal SiteRetired instead of a silent black hole (§10.2);
        // plain HTTP goes dark with the site.
        auto qs_it = query_servers_.find(m.host);
        if (qs_it != query_servers_.end()) qs_it->second->Retire();
        auto http_it = http_servers_.find(m.host);
        if (http_it != http_servers_.end()) http_it->second->Stop();
        churn_retired_hosts_.push_back(m.host);
        break;
      }
      case web::Mutation::Kind::kEditPage:
      case web::Mutation::Kind::kAddLink:
      case web::Mutation::Kind::kRemoveLink:
        break;  // document-level churn needs no deployment change
    }
  }
}

TrafficSummary Engine::TrafficSnapshot() const {
  TrafficSummary t;
  t.messages = network_->total_traffic().messages;
  t.bytes = network_->total_traffic().bytes;
  t.inter_host_messages = network_->inter_host_traffic().messages;
  t.inter_host_bytes = network_->inter_host_traffic().bytes;
  // Batched envelopes fold into their member categories: a CloneBatch is
  // query traffic, a ReportBatch is report traffic (PROTOCOL.md §9) — the
  // shared-vs-unshared message comparison in bench/s2 stays apples-to-apples.
  const auto& q = network_->traffic_for(net::MessageType::kWebQuery);
  const auto& qb = network_->traffic_for(net::MessageType::kCloneBatch);
  t.query_messages = q.messages + qb.messages;
  t.query_bytes = q.bytes + qb.bytes;
  const auto& r = network_->traffic_for(net::MessageType::kReport);
  const auto& rb = network_->traffic_for(net::MessageType::kReportBatch);
  t.report_messages = r.messages + rb.messages;
  t.report_bytes = r.bytes + rb.bytes;
  const auto& freq = network_->traffic_for(net::MessageType::kFetchRequest);
  const auto& fresp = network_->traffic_for(net::MessageType::kFetchResponse);
  t.fetch_messages = freq.messages + fresp.messages;
  t.fetch_bytes = freq.bytes + fresp.bytes;
  t.terminate_messages =
      network_->traffic_for(net::MessageType::kTerminate).messages;
  t.connection_refused = network_->connection_refused_count();
  return t;
}

namespace {

TrafficSummary Subtract(const TrafficSummary& a, const TrafficSummary& b) {
  TrafficSummary d;
  d.messages = a.messages - b.messages;
  d.bytes = a.bytes - b.bytes;
  d.inter_host_messages = a.inter_host_messages - b.inter_host_messages;
  d.inter_host_bytes = a.inter_host_bytes - b.inter_host_bytes;
  d.query_messages = a.query_messages - b.query_messages;
  d.query_bytes = a.query_bytes - b.query_bytes;
  d.report_messages = a.report_messages - b.report_messages;
  d.report_bytes = a.report_bytes - b.report_bytes;
  d.fetch_messages = a.fetch_messages - b.fetch_messages;
  d.fetch_bytes = a.fetch_bytes - b.fetch_bytes;
  d.terminate_messages = a.terminate_messages - b.terminate_messages;
  d.connection_refused = a.connection_refused - b.connection_refused;
  return d;
}

}  // namespace

server::QueryServerStats Engine::AggregateServerStats() const {
  server::QueryServerStats total;
  for (const auto& [host, qs] : query_servers_) {
    server::MergeServerStats(qs->stats(), &total);
  }
  return total;
}

Result<query::QueryId> Engine::Submit(const disql::CompiledQuery& compiled,
                                      const std::string& user) {
  return user_site_->Submit(compiled, user);
}

RunOutcome Engine::CollectOutcome(const query::QueryId& id,
                                  const TrafficSummary& baseline_traffic) {
  RunOutcome outcome;
  outcome.id = id;
  const client::UserSite::QueryRun* run = user_site_->Find(id);
  WEBDIS_CHECK(run != nullptr);
  outcome.completed = run->completed;
  outcome.partial = run->partial;
  outcome.unreachable_hosts = run->unreachable_hosts;
  outcome.budget_exhausted = run->budget_exhausted;
  outcome.budget_exceeded_nodes = run->budget_exceeded_nodes;
  outcome.results = run->results;
  outcome.submit_time = run->submit_time;
  outcome.completion_time = run->completion_time;
  outcome.last_report_time = run->last_report_time;
  outcome.client_stats = run->stats;
  outcome.cht_total_entries = run->cht.total_count();
  outcome.cht_max_active = run->cht.max_active();
  outcome.cht_suppressed = run->cht.suppressed_count();
  outcome.cht_unmatched_deletes = run->cht.unmatched_deletes();
  outcome.fallback_node_count = run->fallback_nodes.size();
  outcome.pinned_epoch = run->pinned_epoch;
  outcome.node_versions = run->node_versions;
  outcome.retired_sites = run->retired_sites;
  outcome.epoch_gated_nodes = run->epoch_gated_nodes;
  // §10 freshness classification: compare each report's stamped version
  // against the web as it stands now. Versions only grow, so "different"
  // always means "edited after the visit".
  for (const auto& [url, stamped] : run->node_versions) {
    const web::WebGraph::Document* doc = web_->Find(url);
    if (doc == nullptr) {
      ++outcome.superseded_nodes;
      outcome.superseded_node_urls.push_back(url);
    } else if (doc->version == stamped) {
      ++outcome.fresh_nodes;
    } else {
      ++outcome.stale_consistent_nodes;
      outcome.stale_node_urls.push_back(url);
    }
  }
  outcome.client_retry = user_site_->retry_stats();
  outcome.server_stats = AggregateServerStats();
  outcome.traffic = Subtract(TrafficSnapshot(), baseline_traffic);
  outcome.workers = options_.network.worker_threads;
  outcome.parallel = network_->parallel_stats();
  if (collected_keys_.insert(id.Key()).second) {
    collected_.push_back(id);
    if (collected_.size() > kCollectWindow) {
      collected_keys_.erase(collected_.front().Key());
      user_site_->Forget(collected_.front());
      collected_.pop_front();
    }
  }
  return outcome;
}

Result<RunOutcome> Engine::RunCompiled(const disql::CompiledQuery& compiled,
                                       const std::string& user) {
  const TrafficSummary before = TrafficSnapshot();
  query::QueryId id;
  WEBDIS_ASSIGN_OR_RETURN(id, user_site_->Submit(compiled, user));
  network_->RunUntilIdle();

  const client::UserSite::QueryRun* run = user_site_->Find(id);
  WEBDIS_CHECK(run != nullptr);
  if (!options_.client.use_cht && !run->completed) {
    // Timeout-completion strawman: the user declares the query done only a
    // full timeout after the last arrival.
    user_site_->FinishWithTimeout(id, options_.completion_timeout);
  }

  // §7.1 fallback: continue centrally for undeliverable nodes.
  RunOutcome outcome = CollectOutcome(id, before);
  if (options_.fallback_processing && !run->fallback_nodes.empty()) {
    baseline::DataShippingEngine fallback_engine(kClientHost, network_.get());
    auto fb = fallback_engine.RunFrom(run->compiled, run->fallback_nodes);
    if (fb.ok()) {
      outcome.fallback = std::move(fb).value();
      // Merge fallback rows into the outcome's result sets.
      for (const relational::ResultSet& rs : outcome.fallback.results) {
        relational::ResultSet* target = nullptr;
        for (relational::ResultSet& existing : outcome.results) {
          if (existing.column_labels == rs.column_labels) {
            target = &existing;
            break;
          }
        }
        if (target == nullptr) {
          outcome.results.push_back(rs);
        } else {
          for (const relational::Tuple& row : rs.rows) {
            const bool seen = std::any_of(
                target->rows.begin(), target->rows.end(),
                [&row](const relational::Tuple& existing) {
                  if (existing.size() != row.size()) return false;
                  for (size_t i = 0; i < row.size(); ++i) {
                    if (!(existing[i] == row[i])) return false;
                  }
                  return true;
                });
            if (!seen) target->rows.push_back(row);
          }
        }
      }
      // Refresh traffic to include fallback fetches.
      outcome.traffic = Subtract(TrafficSnapshot(), before);
    } else {
      WEBDIS_LOG(kWarning) << "fallback processing failed: "
                           << fb.status().ToString();
    }
  }
  return outcome;
}

Result<RunOutcome> Engine::Run(const std::string& disql,
                               const std::string& user) {
  disql::CompiledQuery compiled;
  WEBDIS_ASSIGN_OR_RETURN(compiled, disql::CompileDisql(disql));
  return RunCompiled(compiled, user);
}

Result<BaselineRun> RunDataShippingBaseline(
    const web::WebGraph& web, const disql::CompiledQuery& compiled,
    net::SimNetworkOptions network_options,
    baseline::DataShippingOptions options) {
  net::SimNetwork network(network_options);
  std::vector<std::unique_ptr<server::HttpServer>> http_servers;
  for (const std::string& host : web.Hosts()) {
    auto http = std::make_unique<server::HttpServer>(host, &web, &network);
    WEBDIS_RETURN_IF_ERROR(http->Start());
    http_servers.push_back(std::move(http));
  }
  baseline::DataShippingEngine engine(Engine::kClientHost, &network, options);
  BaselineRun run;
  WEBDIS_ASSIGN_OR_RETURN(run.outcome, engine.Run(compiled));
  const auto& total = network.total_traffic();
  run.traffic.messages = total.messages;
  run.traffic.bytes = total.bytes;
  run.traffic.inter_host_messages = network.inter_host_traffic().messages;
  run.traffic.inter_host_bytes = network.inter_host_traffic().bytes;
  const auto& freq = network.traffic_for(net::MessageType::kFetchRequest);
  const auto& fresp = network.traffic_for(net::MessageType::kFetchResponse);
  run.traffic.fetch_messages = freq.messages + fresp.messages;
  run.traffic.fetch_bytes = freq.bytes + fresp.bytes;
  run.traffic.connection_refused = network.connection_refused_count();
  return run;
}

}  // namespace webdis::core
