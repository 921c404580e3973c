// A1 — database-retention ablation (footnote 3 of Section 2.4): "if the
// site expects that a node will receive several queries, it can choose to
// retain the associated database so that the construction cost does not
// have to be paid repeatedly." Runs a stream of ad-hoc queries against the
// same deployment with construction-per-visit (the paper's default purge
// policy) vs retained databases, reporting constructions, cache hits and
// the retained footprint.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/engine.h"
#include "web/synth.h"

namespace webdis {
namespace {

struct Cost {
  uint64_t constructions = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_bytes = 0;
  bool ok = false;
};

Cost RunStream(bool cache, int queries) {
  web::SynthWebOptions web_options;
  web_options.seed = 99;
  web_options.num_sites = 6;
  web_options.docs_per_site = 8;
  const web::WebGraph web = web::GenerateSynthWeb(web_options);
  core::EngineOptions options;
  options.server.cache_databases = cache;
  core::Engine engine(&web, options);
  Cost cost;
  for (int q = 0; q < queries; ++q) {
    // Rotate the start node so queries overlap but are not identical.
    const std::string disql =
        "select d.url from document d such that \"" +
        web::SynthUrl(q % 3, q % 5) +
        "\" (L|G)*2 d where d.title contains \"alpha\"";
    auto outcome = engine.Run(disql);
    if (!outcome.ok() || !outcome->completed) return cost;
  }
  const server::QueryServerStats stats = engine.AggregateServerStats();
  cost.constructions = stats.db_constructions;
  cost.cache_hits = stats.db_cache_hits;
  cost.cache_bytes = stats.db_cache_bytes;
  cost.ok = true;
  return cost;
}

int Main() {
  std::printf(
      "A1 — Per-node database retention (footnote 3, §2.4)\n"
      "Ad-hoc query stream against one deployment; each visit that\n"
      "evaluates needs the node's database, holding the relations its\n"
      "node-query reads (here DOCUMENT).\n\n");
  bench::TablePrinter table({
      "queries", "constructions (purge)", "constructions (retain)",
      "cache hits (retain)", "constructions saved", "retained KB",
  });
  for (int queries : {1, 4, 8, 16}) {
    const Cost purge = RunStream(false, queries);
    const Cost retain = RunStream(true, queries);
    if (!purge.ok || !retain.ok) {
      std::fprintf(stderr, "run failed at queries=%d\n", queries);
      return 1;
    }
    table.AddRow({
        bench::Num(static_cast<uint64_t>(queries)),
        bench::Num(purge.constructions),
        bench::Num(retain.constructions),
        bench::Num(retain.cache_hits),
        bench::Num(purge.constructions - retain.constructions),
        bench::Num(retain.cache_bytes / 1024),
    });
  }
  table.Print();
  std::printf(
      "\nRetention trades memory for repeated-construction savings; the\n"
      "paper's default purges immediately because a single ad-hoc query\n"
      "rarely revisits a node (the log table already suppresses true\n"
      "revisits within one query).\n");
  return 0;
}

}  // namespace
}  // namespace webdis

int main() { return webdis::Main(); }
