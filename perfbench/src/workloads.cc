// The three workloads and the two deployments they run on.
#include <algorithm>

#include "bench.h"
#include "common/logging.h"
#include "common/rng.h"
#include "net/fault.h"
#include "server/http_server.h"
#include "server/persist.h"
#include "server/query_server.h"
#include "web/synth.h"
#include "web/university.h"

namespace webdis::perfbench {

namespace {

// -- wide_cold ---------------------------------------------------------------
// A lazy 100 x 100 web with p1's page shape, rebuilt before every round, so
// every visit pays first-touch materialization, the node-database build and
// evaluation. Uniform latency and near-zero jitter align each hop into one
// wavefront, the one input where the parallel stepper pays.

constexpr int kWideSites = 100;
constexpr int kWideDocs = 100;

WebInputs WideColdWeb(uint64_t seed) {
  web::SynthWebOptions options;
  options.seed = seed;
  options.num_sites = kWideSites;
  options.docs_per_site = kWideDocs;
  options.filler_paragraphs = 6;
  options.words_per_paragraph = 60;
  options.lazy_pages = true;
  return WebInputs{web::GenerateSynthWeb(options), {}};
}

std::vector<std::string> WideColdQueries(const Workload& w, int /*round*/) {
  // The same queries every round, from distinct StartNodes spread across
  // the web (37 is coprime to the site count, so the sites are distinct).
  Rng rng(w.seed * 0x2545F4914F6CDD1DULL + 11);
  const int site0 = static_cast<int>(rng.Uniform(kWideSites));
  const int doc0 = static_cast<int>(rng.Uniform(kWideDocs));
  std::vector<std::string> queries;
  for (int i = 0; i < w.users; ++i) {
    queries.push_back(
        "select d.url, d.title from document d such that \"" +
        web::SynthUrl((site0 + i * 37) % kWideSites,
                      (doc0 + i * 11) % kWideDocs) +
        "\" (L|G)*3 d where d.title contains \"alpha\"");
  }
  return queries;
}

// -- shared_durable ----------------------------------------------------------
// One long-lived deployment with cross-query sharing and durability over a
// small eager web: the hot working set fits the caches, so the cost moves to
// batch admission, WAL appends, report handling and the codecs.

constexpr int kSharedSites = 16;
constexpr int kSharedDocs = 16;
constexpr int kSharedTailUsers = 16;
// One StartNode per site rather than four in all: with four, which part of
// a seed's random web they happened to cover moved bytes_per_query by 17%
// and queries_per_s by 25% between seeds.
constexpr int kSharedStarts = kSharedSites;

WebInputs SharedDurableWeb(uint64_t seed) {
  web::SynthWebOptions options;
  options.seed = seed;
  options.num_sites = kSharedSites;
  options.docs_per_site = kSharedDocs;
  return WebInputs{web::GenerateSynthWeb(options), {}};
}

std::vector<std::string> SharedDurableQueries(const Workload& w, int round) {
  Rng rng(w.seed * 0x9E3779B97F4A7C15ULL + 5);
  const int site0 = static_cast<int>(rng.Uniform(kSharedSites));
  std::vector<std::string> starts;
  for (int k = 0; k < kSharedStarts; ++k) {
    starts.push_back(web::SynthUrl((site0 + k) % kSharedSites,
                                   static_cast<int>(rng.Uniform(kSharedDocs))));
  }
  const auto query = [](const std::string& start, const std::string& where) {
    return "select d.url from document d such that \"" + start +
           "\" (L|G)*3 d where " + where;
  };
  // The hot set: overlapping traversals from the StartNodes, two predicates
  // each, repeated every round. Both predicates hold on every page, so each
  // query's first row comes from its StartNode: with selective keywords,
  // which start pages a seed's web happened to give the keyword moved the
  // first-result percentiles by 9% between seeds.
  std::vector<std::string> hot;
  for (const std::string& start : starts) {
    hot.push_back(query(start, "d.title contains \"document\""));
    hot.push_back(query(start, "d.title contains \"on site\""));
  }
  std::vector<std::string> queries;
  const int hot_users = w.users - kSharedTailUsers;
  for (int u = 0; u < hot_users; ++u) {
    queries.push_back(hot[static_cast<size_t>(u) % hot.size()]);
  }
  // The per-round tail: predicates drawn per round, so the result cache
  // misses on them (every page is longer than the bound, so these too
  // answer from their StartNode).
  Rng tail(w.seed * 0xD1B54A32D192ED03ULL +
           static_cast<uint64_t>(round + 1000) * 0x94D049BB133111EBULL);
  for (int u = 0; u < kSharedTailUsers; ++u) {
    const std::string& start = starts[static_cast<size_t>(u) % starts.size()];
    queries.push_back(query(
        start, "d.length > " + std::to_string(tail.UniformRange(100, 600))));
  }
  return queries;
}

// -- lossy_overload ----------------------------------------------------------
// The paper's campus shape under loss and overload: every user runs the
// Example-Query-2 analogue at once, so the department hubs shed load, the
// at-least-once layer retries lost clones, reports and acks, and a
// per-query deadline degrades a small share of answers explicitly.

WebInputs CampusWeb(uint64_t seed) {
  web::UniversityOptions options;
  options.seed = seed;
  options.departments = 4;
  options.labs_per_department = 4;
  web::UniversityWeb uni = web::GenerateUniversityWeb(options);
  return WebInputs{std::move(uni.web), std::move(uni.conveners)};
}

std::vector<std::string> CampusQueries(const Workload& w, int /*round*/) {
  // convener_disql depends only on the root url, which no option changes,
  // so the smallest campus yields it.
  static const std::string disql = [] {
    web::UniversityOptions options;
    options.departments = 1;
    options.labs_per_department = 1;
    return web::GenerateUniversityWeb(options).convener_disql;
  }();
  return std::vector<std::string>(static_cast<size_t>(w.users), disql);
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"wide_cold", "shared_durable", "lossy_overload"};
}

Workload MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name == "wide_cold") {
    w.users = 32;
    w.rounds_per_second = 3.0;
    w.rebuild_each_round = true;
    // 3 us of jitter (0.015% of the hop latency). Without it the slowest
    // query's completion is a structural constant of the web's shape:
    // virtual_response_ms_p99 read 100.639 on each of seeds 701-705, so no
    // seed could move it. With it, 100.645-100.651. Arrivals are already
    // spread at microsecond resolution by the 1 MB/s transfer time, so the
    // stepper barely notices: parallel occupancy 0.455-0.464 on those seeds,
    // against 0.467-0.473 without jitter.
    w.options.network.latency_jitter = 3 * kMicrosecond;
    w.options.network.jitter_seed = seed * 31 + 7;
    // Two workers, not four: the fork/join stepper waits for whichever
    // thread lost its core, so on a shared 4-vCPU host four workers lost
    // 18-23% of their throughput under a two-thread CPU hog while two lost
    // none. Two still run at 1.3x the sequential loop (four: 1.55x).
    w.options.network.worker_threads = 2;
    w.build_web = WideColdWeb;
    w.round_queries = WideColdQueries;
  } else if (name == "shared_durable") {
    w.users = 64;
    w.rounds_per_second = 5.0;
    w.warmup_rounds = 1;
    w.setup_repeats = 5;
    w.options.network.latency_jitter = 5 * kMillisecond;
    w.options.network.jitter_seed = seed * 31 + 7;
    server::QueryServerOptions& s = w.options.server;
    s.share_results = true;
    s.result_cache_max_bytes = 1 << 20;
    s.batch_window = 5 * kMillisecond;
    s.batch_max_members = 16;
    s.log_purge_every = 512;
    s.persist.enabled = true;
    s.persist.wal_enabled = true;
    s.persist.fsync = server::WalFsyncPolicy::kEveryAppend;
    w.build_web = SharedDurableWeb;
    w.round_queries = SharedDurableQueries;
  } else if (name == "lossy_overload") {
    w.users = 32;
    w.rounds_per_second = 7.0;
    w.warmup_rounds = 1;
    w.setup_repeats = 5;
    w.drop_prob = 0.03;
    w.fault_seed = seed * 0x9E3779B97F4A7C15ULL + 3;
    net::RetryOptions retry;
    retry.enabled = true;
    retry.initial_timeout = 100 * kMillisecond;
    retry.backoff_factor = 2.0;
    retry.max_timeout = 400 * kMillisecond;
    retry.max_attempts = 4;
    retry.jitter_seed = seed + 17;
    w.options.server.retry = retry;
    w.options.client.retry = retry;
    w.options.client.entry_deadline = 10 * kSecond;
    w.options.client.budget_deadline = 1300 * kMillisecond;
    w.options.server.admission.max_pending = 8;
    w.options.server.admission.service_time = 2 * kMillisecond;
    w.build_web = CampusWeb;
    w.round_queries = CampusQueries;
    w.degradation_expected = true;
  } else {
    WEBDIS_CHECK(false) << "unknown workload " << name;
  }
  return w;
}

std::set<std::string> CanonicalRows(
    const std::vector<relational::ResultSet>& results) {
  std::set<std::string> keys;
  for (const relational::ResultSet& rs : results) {
    std::string labels;
    for (const std::string& label : rs.column_labels) labels += label + ",";
    for (const relational::Tuple& row : rs.rows) {
      std::string key = labels + ":";
      for (const relational::Value& v : row) key += v.ToString() + "|";
      keys.insert(std::move(key));
    }
  }
  return keys;
}

void Deployment::ObserveFirstRows() {
  user_site().SetReportObserver(
      [this](const query::QueryId& id, const query::NodeReport& report) {
        bool has_row = false;
        for (const relational::ResultSet& rs : report.result_sets) {
          has_row = has_row || !rs.rows.empty();
        }
        if (has_row) first_rows_.emplace(id.Key(), network().now());
      });
}

namespace {

Counters SnapshotOf(const std::vector<const server::QueryServer*>& servers,
                    const net::SimNetwork& network,
                    const client::UserSite& user) {
  Counters c;
  auto& v = c.v;
  v[kMessages] = network.total_traffic().messages;
  v[kBytes] = network.total_traffic().bytes;
  for (const net::MessageType type :
       {net::MessageType::kWebQuery, net::MessageType::kCloneBatch}) {
    v[kCloneMessages] += network.traffic_for(type).messages;
    v[kCloneBytes] += network.traffic_for(type).bytes;
  }
  v[kDelivered] = network.delivered_count();
  v[kDropped] = network.dropped_count();
  v[kRetries] = user.retry_stats().retries;
  for (const server::QueryServer* qs : servers) {
    const server::QueryServerStats& s = qs->stats();
    v[kRetries] += s.retries;
    v[kClonesReceived] += s.clones_received;
    v[kClonesForwarded] += s.clones_forwarded;
    v[kClonesShed] += s.clones_shed;
    v[kClonesEvicted] += s.clones_evicted;
    v[kBudgetExpired] += s.budget_expired_clones;
    v[kNodesProcessed] += s.nodes_processed;
    v[kDuplicatesDropped] += s.duplicates_dropped;
    v[kNodeQueriesEvaluated] += s.node_queries_evaluated;
    v[kAnswersFound] += s.answers_found;
    v[kResultCacheHits] += s.result_cache_hits;
    v[kResultCacheMisses] += s.result_cache_misses;
    v[kCloneBatchesReceived] += s.clone_batches_received;
    v[kReportBatchesSent] += s.report_batches_sent;
    v[kWalRecords] += s.wal_records_appended;
    v[kSnapshots] += s.snapshots_written;
    c.queue_peak = std::max(c.queue_peak, s.queue_peak);
  }
  return c;
}

/// Seeded loss on clones, reports and delivery acks.
void InstallLoss(net::FaultPlan* plan, double drop_prob) {
  for (const net::MessageType type :
       {net::MessageType::kWebQuery, net::MessageType::kReport,
        net::MessageType::kDeliveryAck}) {
    net::FaultPlan::Rule rule;
    rule.type = type;
    rule.drop_prob = drop_prob;
    plan->AddRule(rule);
  }
}

/// The measured deployment: core::Engine, driven through its public API.
class EngineDeployment : public Deployment {
 public:
  EngineDeployment(const web::WebGraph* web, const Workload& w)
      : plan_(w.fault_seed), engine_(web, w.options) {
    if (w.drop_prob > 0) {
      InstallLoss(&plan_, w.drop_prob);
      engine_.network().SetFaultPlan(&plan_);
    }
    ObserveFirstRows();
    before_ = engine_.TrafficSnapshot();
  }

  Result<query::QueryId> Submit(const disql::CompiledQuery& compiled,
                                const std::string& user) override {
    return engine_.Submit(compiled, user);
  }
  void RunUntilIdle() override { engine_.network().RunUntilIdle(); }

  QueryRecord Collect(const query::QueryId& id) override {
    const core::RunOutcome outcome = engine_.CollectOutcome(id, before_);
    QueryRecord r;
    r.completed = outcome.completed;
    r.partial = outcome.partial;
    r.budget_exhausted = outcome.budget_exhausted;
    r.named_degraded = outcome.unreachable_hosts.size() +
                       outcome.budget_exceeded_nodes.size();
    r.rows = CanonicalRows(outcome.results);
    r.submit_time = outcome.submit_time;
    r.completion_time = outcome.completion_time;
    r.reports_received = outcome.client_stats.reports_received;
    r.result_rows_received = outcome.client_stats.result_rows_received;
    r.duplicate_rows_filtered = outcome.client_stats.duplicate_rows_filtered;
    return r;
  }

  Counters Snapshot() override {
    std::vector<const server::QueryServer*> servers;
    for (const std::string& host : engine_.participating_hosts()) {
      servers.push_back(engine_.server_for(host));
    }
    return SnapshotOf(servers, engine_.network(), engine_.user_site());
  }

  net::SimNetwork& network() override { return engine_.network(); }
  client::UserSite& user_site() override { return engine_.user_site(); }
  core::Engine* engine() { return &engine_; }

 private:
  net::FaultPlan plan_;  // outlives the engine's network
  core::Engine engine_;
  core::TrafficSummary before_;
};

/// The traced deployment: the same deployment core::Engine builds (see
/// Engine::Engine and Engine::AddParticipant), assembled from HttpServer,
/// QueryServer and UserSite over timing wrappers of the transport and of
/// each server's persistence backend.
class TracedDeployment : public Deployment {
 public:
  TracedDeployment(const web::WebGraph* web, const Workload& w)
      : plan_(w.fault_seed) {
    const core::EngineOptions& options = w.options;
    // The engine's preconditions: full participation, no overrides.
    WEBDIS_CHECK(options.participation_fraction >= 1.0);
    WEBDIS_CHECK(options.server_overrides.empty());
    network_ = std::make_unique<net::SimNetwork>(options.network);
    if (w.drop_prob > 0) {
      InstallLoss(&plan_, w.drop_prob);
      network_->SetFaultPlan(&plan_);
    }
    const std::vector<std::string> hosts = web->Hosts();
    for (const std::string& host : hosts) {
      auto http = std::make_unique<server::HttpServer>(
          host, web, Wrap(Owner::kHttpServer));
      const Status status = http->Start();
      WEBDIS_CHECK(status.ok()) << status.ToString();
      http_.push_back(std::move(http));
    }
    for (const std::string& host : hosts) {
      auto qs = std::make_unique<server::QueryServer>(
          host, web, Wrap(Owner::kQueryServer), options.server);
      if (options.server.persist.enabled) {
        // Same per-host seed as Engine::AddParticipant.
        uint64_t host_hash = 1469598103934665603ull;
        for (const char c : host) {
          host_hash ^= static_cast<uint8_t>(c);
          host_hash *= 1099511628211ull;
        }
        server::PersistFaultRules rules = options.persist_faults;
        rules.seed = options.persist_faults.seed ^ host_hash;
        backends_.push_back(
            std::make_unique<server::MemoryPersistBackend>(rules));
        timed_backends_.push_back(
            std::make_unique<TimedPersistBackend>(backends_.back().get()));
        qs->SetPersistence(timed_backends_.back().get());
      }
      const Status status = qs->Start();
      WEBDIS_CHECK(status.ok()) << status.ToString();
      net::SimNetwork* network = network_.get();
      qs->SetClock([network] { return network->now(); });
      servers_.push_back(std::move(qs));
    }
    user_ = std::make_unique<client::UserSite>(
        core::Engine::kClientHost, Wrap(Owner::kUserSite), options.client);
    net::SimNetwork* network = network_.get();
    user_->SetClock([network] { return network->now(); });
    ObserveFirstRows();
  }

  Result<query::QueryId> Submit(const disql::CompiledQuery& compiled,
                                const std::string& user) override {
    Span span(Layer::kSubmit);
    return user_->Submit(compiled, user);
  }

  void RunUntilIdle() override {
    Span span(Layer::kLoop);
    network_->RunUntilIdle();
  }

  QueryRecord Collect(const query::QueryId& id) override {
    Span span(Layer::kCollect);
    const client::UserSite::QueryRun* run = user_->Find(id);
    WEBDIS_CHECK(run != nullptr);
    QueryRecord r;
    r.completed = run->completed;
    r.partial = run->partial;
    r.budget_exhausted = run->budget_exhausted;
    r.named_degraded =
        run->unreachable_hosts.size() + run->budget_exceeded_nodes.size();
    r.rows = CanonicalRows(run->results);
    r.submit_time = run->submit_time;
    r.completion_time = run->completion_time;
    r.reports_received = run->stats.reports_received;
    r.result_rows_received = run->stats.result_rows_received;
    r.duplicate_rows_filtered = run->stats.duplicate_rows_filtered;
    return r;
  }

  Counters Snapshot() override {
    std::vector<const server::QueryServer*> servers;
    for (const auto& qs : servers_) servers.push_back(qs.get());
    return SnapshotOf(servers, *network_, *user_);
  }

  net::SimNetwork& network() override { return *network_; }
  client::UserSite& user_site() override { return *user_; }

 private:
  TimedTransport* Wrap(Owner owner) {
    transports_.push_back(
        std::make_unique<TimedTransport>(network_.get(), owner));
    return transports_.back().get();
  }

  // Declaration order is destruction order reversed: the servers go first,
  // then what they point at.
  net::FaultPlan plan_;
  std::unique_ptr<net::SimNetwork> network_;
  std::vector<std::unique_ptr<TimedTransport>> transports_;
  std::vector<std::unique_ptr<server::HttpServer>> http_;
  std::vector<std::unique_ptr<server::MemoryPersistBackend>> backends_;
  std::vector<std::unique_ptr<TimedPersistBackend>> timed_backends_;
  std::vector<std::unique_ptr<server::QueryServer>> servers_;
  std::unique_ptr<client::UserSite> user_;
};

}  // namespace

std::unique_ptr<Deployment> MakeEngineDeployment(const web::WebGraph* web,
                                                 const Workload& w) {
  return std::make_unique<EngineDeployment>(web, w);
}

std::unique_ptr<Deployment> MakeTracedDeployment(const web::WebGraph* web,
                                                 const Workload& w) {
  return std::make_unique<TracedDeployment>(web, w);
}

core::Engine* EngineOf(Deployment* deployment) {
  auto* engine = dynamic_cast<EngineDeployment*>(deployment);
  return engine == nullptr ? nullptr : engine->engine();
}

}  // namespace webdis::perfbench
