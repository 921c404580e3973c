// M1 — microbenchmarks of every substrate (google-benchmark): HTML parsing,
// the per-node database constructor, node-query evaluation (in place and
// over a built database), PRE operations,
// DISQL compilation, clone (de)serialization, query-id keys and the
// durability checksum. These are the per-hop costs every query-server pays.
#include <benchmark/benchmark.h>

#include "disql/compiler.h"
#include "html/parser.h"
#include "pre/log_equivalence.h"
#include "pre/pre.h"
#include "query/query_id.h"
#include "relational/eval.h"
#include "serialize/encoder.h"
#include "serialize/framing.h"
#include "server/db_constructor.h"
#include "web/pagegen.h"
#include "web/university.h"

namespace webdis {
namespace {

std::string MakePageHtml(int paragraphs, int links) {
  web::PageSpec spec;
  spec.title = "benchmark page with alpha in the title";
  for (int i = 0; i < paragraphs; ++i) {
    spec.paragraphs.push_back(
        "a reasonably long filler paragraph mentioning research systems "
        "networks and the occasional beta keyword for good measure");
  }
  for (int i = 0; i < links; ++i) {
    spec.links.push_back({"/doc" + std::to_string(i), "local link"});
    spec.links.push_back(
        {"http://site" + std::to_string(i) + ".example/x", "global link"});
  }
  spec.hr_blocks = {"CONVENER someone important", "MEMBERS many people"};
  return web::RenderHtml(spec);
}

void BM_HtmlParse(benchmark::State& state) {
  const std::string html =
      MakePageHtml(static_cast<int>(state.range(0)), 8);
  const html::Url url = html::ParseUrl("http://h/p").value();
  for (auto _ : state) {
    html::ParsedDocument doc = html::ParseDocument(url, html);
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(html.size()));
}
BENCHMARK(BM_HtmlParse)->Arg(2)->Arg(8)->Arg(32);

void BM_BuildNodeDatabase(benchmark::State& state) {
  const std::string html = MakePageHtml(8, 16);
  const html::Url url = html::ParseUrl("http://h/p").value();
  const html::ParsedDocument doc = html::ParseDocument(url, html);
  for (auto _ : state) {
    relational::Database db = server::BuildNodeDatabase(doc);
    benchmark::DoNotOptimize(db);
  }
}
BENCHMARK(BM_BuildNodeDatabase);

void BM_EvaluateInPlace(benchmark::State& state) {
  // One evaluating visit of the campus workload's stage-2 node-query (hr
  // rel-infons holding "convener") to a lab page that answers it: relations
  // refilled in place, as the query server reads a page (Arg 1), or a
  // BuildNodeDatabase of the page first (Arg 0). Execute follows either.
  web::UniversityOptions options;
  options.seed = 1;
  options.departments = 1;
  options.labs_per_department = 1;
  const web::UniversityWeb uni = web::GenerateUniversityWeb(options);
  const html::ParsedDocument& doc =
      uni.web.Find(uni.conveners.at(0).first)->parsed;
  auto compiled = disql::CompileDisql(uni.convener_disql);
  const query::NodeQuery& nq = compiled->web_query.remaining_queries.at(1);
  const bool in_place = state.range(0) != 0;
  server::NodeRelations relations;
  for (auto _ : state) {
    if (in_place) {
      relations.Visit(doc);
      auto rs = relational::Execute(nq.select, relations.Fill(nq.select.from));
      benchmark::DoNotOptimize(rs);
    } else {
      auto rs = relational::Execute(nq.select, server::BuildNodeDatabase(doc));
      benchmark::DoNotOptimize(rs);
    }
  }
  state.SetLabel(in_place ? "in place" : "BuildNodeDatabase");
}
BENCHMARK(BM_EvaluateInPlace)->Arg(1)->Arg(0);

void BM_NodeQueryEval(benchmark::State& state) {
  const std::string html = MakePageHtml(8, 16);
  const html::Url url = html::ParseUrl("http://h/p").value();
  const relational::Database db =
      server::BuildNodeDatabase(html::ParseDocument(url, html));
  auto compiled = disql::CompileDisql(
      "select d.url, r.text from document d such that \"http://h/p\" N d, "
      "relinfon r such that r.delimiter = \"hr\", "
      "where r.text contains \"convener\"");
  const query::NodeQuery& nq = compiled->web_query.remaining_queries[0];
  for (auto _ : state) {
    auto rs = relational::Execute(nq.select, db);
    benchmark::DoNotOptimize(rs);
  }
}
BENCHMARK(BM_NodeQueryEval);

void BM_NodeQueryEvalPushdown(benchmark::State& state) {
  // Anchor-heavy page: pushdown filters the 64-anchor ANCHOR table before
  // the document x anchor x relinfon cross product.
  const std::string html = MakePageHtml(8, 32);
  const html::Url url = html::ParseUrl("http://h/p").value();
  const relational::Database db =
      server::BuildNodeDatabase(html::ParseDocument(url, html));
  auto compiled = disql::CompileDisql(
      "select a.href, r.text from document d such that \"http://h/p\" N d, "
      "anchor a such that a.ltype = \"G\", "
      "relinfon r such that r.delimiter = \"hr\", "
      "where r.text contains \"convener\"");
  query::NodeQuery nq = compiled->web_query.remaining_queries[0].Clone();
  nq.select.pushdown = state.range(0) != 0;
  for (auto _ : state) {
    auto rs = relational::Execute(nq.select, db);
    benchmark::DoNotOptimize(rs);
  }
  state.SetLabel(nq.select.pushdown ? "pushdown" : "naive");
}
BENCHMARK(BM_NodeQueryEvalPushdown)->Arg(1)->Arg(0);

void BM_PreDerive(benchmark::State& state) {
  const pre::Pre p = pre::Pre::Parse("(L | G)*8.(N | G.L*4)").value();
  for (auto _ : state) {
    pre::Pre d = p.Derive(html::LinkType::kLocal);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_PreDerive);

void BM_PreParse(benchmark::State& state) {
  for (auto _ : state) {
    auto p = pre::Pre::Parse("N | G.(L*4) | (I | L)*2.G");
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_PreParse);

void BM_PreLogCompare(benchmark::State& state) {
  const pre::Pre incoming = pre::Pre::Parse("L*6.G").value();
  const pre::Pre logged = pre::Pre::Parse("L*2.G").value();
  for (auto _ : state) {
    pre::LogDecision d = pre::ComparePreForLog(incoming, logged);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_PreLogCompare);

void BM_DisqlCompile(benchmark::State& state) {
  const std::string disql =
      "select d0.url, d1.url, r.text\n"
      "from document d0 such that \"http://csa.iisc.ernet.in\" L d0,\n"
      "where d0.title contains \"lab\"\n"
      "    document d1 such that d0 G.(L*1) d1,\n"
      "    relinfon r such that r.delimiter = \"hr\",\n"
      "where (r.text contains \"convener\")\n";
  for (auto _ : state) {
    auto compiled = disql::CompileDisql(disql);
    benchmark::DoNotOptimize(compiled);
  }
}
BENCHMARK(BM_DisqlCompile);

void BM_CloneSerialize(benchmark::State& state) {
  auto compiled = disql::CompileDisql(
      "select d0.url, d1.url, r.text\n"
      "from document d0 such that \"http://csa.iisc.ernet.in\" L d0,\n"
      "where d0.title contains \"lab\"\n"
      "    document d1 such that d0 G.(L*1) d1,\n"
      "    relinfon r such that r.delimiter = \"hr\",\n"
      "where (r.text contains \"convener\")\n");
  query::WebQuery clone = compiled->web_query.Clone();
  clone.dest_urls = {"http://a/x", "http://a/y", "http://a/z"};
  for (auto _ : state) {
    serialize::Encoder enc;
    clone.EncodeTo(&enc);
    benchmark::DoNotOptimize(enc.data());
  }
  serialize::Encoder enc;
  clone.EncodeTo(&enc);
  state.SetLabel("clone wire size " + std::to_string(enc.size()) + " B");
}
BENCHMARK(BM_CloneSerialize);

void BM_CloneDeserialize(benchmark::State& state) {
  auto compiled = disql::CompileDisql(
      "select d.url from document d such that \"http://a/\" (L|G)*3 d "
      "where d.title contains \"alpha\"");
  query::WebQuery clone = compiled->web_query.Clone();
  clone.dest_urls = {"http://a/x", "http://a/y"};
  serialize::Encoder enc;
  clone.EncodeTo(&enc);
  const std::vector<uint8_t> bytes = enc.Release();
  for (auto _ : state) {
    serialize::Decoder dec(bytes);
    query::WebQuery out;
    Status status = query::WebQuery::DecodeFrom(&dec, &out);
    benchmark::DoNotOptimize(status);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_CloneDeserialize);

void BM_QueryIdKey(benchmark::State& state) {
  // Rendered for the log table, the terminated set and the result merge on
  // every clone, visit and report.
  query::QueryId id;
  id.user = "user17";
  id.reply_host = "client3";
  id.reply_port = 40017;
  id.query_number = 1234;
  for (auto _ : state) {
    std::string key = id.Key();
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_QueryIdKey);

void BM_Crc32(benchmark::State& state) {
  // 24 KiB: the mean snapshot body on the shared_durable benchmark workload.
  std::vector<uint8_t> body(24 * 1024);
  for (size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  for (auto _ : state) {
    uint32_t crc = serialize::Crc32(body);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(body.size()));
}
BENCHMARK(BM_Crc32);

}  // namespace
}  // namespace webdis

BENCHMARK_MAIN();
