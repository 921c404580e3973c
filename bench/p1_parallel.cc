// P1 — multi-core site evaluation at web scale: the same multi-site,
// multi-query workload driven by the legacy loop (workers=0) and the
// time-stepped stepper at 1, 2, 4 and 8 workers, over a 10^5-document lazy
// synthetic web. Virtual time, message counts, and results are identical by
// construction (verified here against the workers=0 reference); the only
// thing allowed to change is the host wall-clock, which is what this
// harness measures. With zero latency jitter and uniform inter-host
// latency, each traversal hop arrives as one wavefront — a wide slice whose
// per-host partitions the stepper fans out across cores. Each run gets a
// fresh lazy web, so first-fetch page materialization (render + parse)
// happens *inside* the measured region, on worker threads — real per-event
// work for the cores to share.
//
// The web itself is the memory story: 100k documents are registered lazily
// (interned ids + captured RNG states, no HTML), and only the documents the
// queries actually touch ever materialize. The at-rest table footprint is
// recorded as bytes_per_document and gated both here and in
// tools/bench_compare.py.
//
// Writes BENCH_PARALLEL.json (JSON lines; see bench::JsonBenchWriter) for
// tools/bench_compare.py to gate CI on wall-clock regressions, the
// workers=1 -> 4 speedup curve (on >= 4-core runners) and the
// bytes-per-document memory ceiling.
#include <chrono>  // webdis-lint: allow(clock) — measuring real time is the point
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "core/engine.h"
#include "web/synth.h"

namespace webdis {
namespace {

constexpr int kSites = 400;
constexpr int kDocsPerSite = 250;  // 100,000 documents
constexpr int kQueries = 32;
constexpr int kRepetitions = 2;  // best-of-N to damp scheduler noise
constexpr double kSpeedupGateAt4 = 2.0;
constexpr uint64_t kBytesPerDocGate = 1024;

web::SynthWebOptions WebOptions() {
  web::SynthWebOptions options;
  options.seed = 7;
  options.num_sites = kSites;
  options.docs_per_site = kDocsPerSite;
  options.filler_paragraphs = 6;
  options.words_per_paragraph = 60;
  options.lazy_pages = true;
  return options;
}

std::string QueryFor(int i) {
  // Starts spread across the whole web so the query wavefronts overlap on
  // many distinct hosts at once.
  return "select d.url, d.title from document d such that \"" +
         web::SynthUrl((i * 37) % kSites, (i * 11) % kDocsPerSite) +
         "\" (L|G)*3 d where d.title contains \"alpha\"";
}

struct RunResult {
  double wall_ms = 0;
  SimTime virtual_makespan = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  std::string results_signature;
  net::ParallelStats parallel;
  bool all_complete = true;
  size_t materialized = 0;  // documents fetched at least once
};

RunResult RunOnce(size_t workers) {
  // A fresh lazy web per run: every run pays (and may parallelize) the same
  // first-fetch materialization work, keeping worker counts comparable.
  const web::WebGraph web = web::GenerateSynthWeb(WebOptions());
  core::EngineOptions options;
  options.network.worker_threads = workers;
  // Aligned arrivals: every hop lands as one wavefront, maximizing slice
  // width. Real-world jitter narrows slices; parallel_test covers that the
  // answers stay identical either way.
  options.network.latency_jitter = 0;
  options.network.bandwidth_bytes_per_sec = 0;  // latency-only cost model
  core::Engine engine(&web, options);

  const core::TrafficSummary before = engine.TrafficSnapshot();
  std::vector<query::QueryId> ids;
  for (int i = 0; i < kQueries; ++i) {
    auto compiled = disql::CompileDisql(QueryFor(i));
    WEBDIS_CHECK(compiled.ok());
    auto id = engine.Submit(compiled.value(), "u" + std::to_string(i));
    WEBDIS_CHECK(id.ok());
    ids.push_back(id.value());
  }

  // webdis-lint: allow(clock) — wall-clock speedup is the measurement
  const auto start = std::chrono::steady_clock::now();
  engine.network().RunUntilIdle();
  // webdis-lint: allow(clock)
  const auto end = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  for (const query::QueryId& id : ids) {
    const core::RunOutcome outcome = engine.CollectOutcome(id, before);
    r.all_complete = r.all_complete && outcome.completed;
    r.virtual_makespan = std::max(r.virtual_makespan, outcome.completion_time);
    r.results_signature += core::FormatResults(outcome.results);
    r.results_signature += "\n--\n";
  }
  const core::TrafficSummary after = engine.TrafficSnapshot();
  r.messages = after.messages - before.messages;
  r.bytes = after.bytes - before.bytes;
  r.parallel = engine.network().parallel_stats();
  r.materialized = web.num_materialized();
  return r;
}

int Main() {
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf(
      "P1 — Deterministic parallel stepper: %d concurrent queries over a "
      "lazy %d-document web (%u hardware threads)\n\n",
      kQueries, kSites * kDocsPerSite, cores);

  bench::JsonBenchWriter json("BENCH_PARALLEL.json");

  // -- Web memory: the at-rest representation, before any fetch. ------------
  uint64_t bytes_per_doc = 0;
  size_t documents = 0;
  {
    const web::WebGraph web = web::GenerateSynthWeb(WebOptions());
    documents = web.num_documents();
    bytes_per_doc = web.ApproxTableBytes() / documents;
    std::printf(
        "web at rest: %zu documents, %zu materialized, "
        "%llu bytes/document (table machinery)\n\n",
        documents, web.num_materialized(),
        static_cast<unsigned long long>(bytes_per_doc));
  }

  bench::TablePrinter table({
      "workers", "wall ms", "speedup", "virtual ms", "msgs",
      "occupancy %", "serial", "identical",
  });

  double reference_wall = 0;
  double wall_at_4 = 0;
  std::string reference_signature;
  bool all_identical = true;
  size_t materialized_after_run = 0;
  for (size_t workers :
       {size_t{0}, size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    RunResult best;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      RunResult r = RunOnce(workers);
      WEBDIS_CHECK(r.all_complete);
      if (rep == 0 || r.wall_ms < best.wall_ms) best = std::move(r);
    }
    if (workers == 0) {
      reference_signature = best.results_signature;
      materialized_after_run = best.materialized;
    }
    if (workers == 1) reference_wall = best.wall_ms;
    if (workers == 4) wall_at_4 = best.wall_ms;
    const bool identical = best.results_signature == reference_signature;
    all_identical = all_identical && identical;
    table.AddRow({
        bench::Num(workers),
        bench::Ms(static_cast<SimTime>(best.wall_ms * 1000.0)),
        workers >= 1 ? bench::Ratio(reference_wall, best.wall_ms) : "-",
        bench::Ms(best.virtual_makespan),
        bench::Num(best.messages),
        bench::Ratio(best.parallel.Occupancy() * 100.0, 1.0),
        bench::Num(best.parallel.serial_slices),
        identical ? "yes" : "NO",
    });
    char extra[64];
    std::snprintf(extra, sizeof(extra), ", \"cores\": %u", cores);
    json.Record("p1_parallel", workers, best.wall_ms,
                static_cast<double>(best.virtual_makespan) / 1000.0,
                best.messages, best.bytes, extra);
  }
  table.Print();
  std::printf("\nmaterialized after run: %zu of %zu documents\n",
              materialized_after_run, documents);

  // Memory row: wall_ms is intentionally 0 (nothing timed here) so the
  // generic wall-clock regression gate never fires on it; the real gate is
  // bytes_per_document, enforced below and in bench_compare.py.
  {
    char extra[256];
    std::snprintf(
        extra, sizeof(extra),
        ", \"documents\": %zu, \"bytes_per_document\": %llu, "
        "\"materialized\": %zu, \"peak_rss_bytes\": %llu",
        documents, static_cast<unsigned long long>(bytes_per_doc),
        materialized_after_run,
        static_cast<unsigned long long>(bench::PeakRssBytes()));
    json.Record("p1_web_memory", 0, 0.0, 0.0, 0, 0, extra);
  }

  bool failed = false;
  if (!all_identical) {
    std::printf("\nFAIL: results diverged across worker counts\n");
    failed = true;
  }
  if (bytes_per_doc > kBytesPerDocGate) {
    std::printf(
        "FAIL: %llu bytes/document at rest exceeds the %llu-byte gate\n",
        static_cast<unsigned long long>(bytes_per_doc),
        static_cast<unsigned long long>(kBytesPerDocGate));
    failed = true;
  }
  const double speedup_at_4 =
      wall_at_4 > 0 ? reference_wall / wall_at_4 : 0.0;
  std::printf("speedup at 4 workers: %.2fx\n", speedup_at_4);
  if (cores >= 4 && speedup_at_4 < kSpeedupGateAt4) {
    std::printf("FAIL: expected >= %.1fx at 4 workers on %u cores\n",
                kSpeedupGateAt4, cores);
    failed = true;
  }
  if (cores < 4) {
    std::printf(
        "(speedup gate skipped: only %u hardware threads available)\n",
        cores);
  }
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace webdis

int main() { return webdis::Main(); }
