// Replay of the engine's pure layer functions on the clone and report
// payloads captured at the transport during the traced run, and on the
// documents those clones named. Each layer's per-call cost is the mean over
// enough passes to fill kMinReplayNs.
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "bench.h"
#include "html/parser.h"
#include "net/reliable.h"
#include "pre/log_equivalence.h"
#include "query/report.h"
#include "query/web_query.h"
#include "relational/eval.h"
#include "serialize/encoder.h"
#include "server/db_constructor.h"

namespace webdis::perfbench {

namespace {

constexpr int64_t kMinReplayNs = 50'000'000;
constexpr int kMaxPasses = 1000;

// Keeps replayed results observable so the calls are not optimized away.
volatile size_t g_sink = 0;

/// Repeats `pass` (one sweep over the inputs, returning how many calls it
/// made) until kMinReplayNs elapsed; returns microseconds per call.
template <typename Pass>
double PerCallUs(Pass&& pass) {
  uint64_t calls = 0;
  const int64_t start = NowNs();
  int64_t elapsed = 0;
  for (int i = 0; i < kMaxPasses && (i == 0 || elapsed < kMinReplayNs); ++i) {
    calls += pass();
    elapsed = NowNs() - start;
  }
  return calls == 0 ? 0.0
                    : static_cast<double>(elapsed) / 1e3 /
                          static_cast<double>(calls);
}

/// The captured payloads with any at-least-once envelope stripped.
std::vector<Capture> Unwrap(const Workload& w,
                            const std::vector<Capture>& captured) {
  std::vector<Capture> out;
  out.reserve(captured.size());
  for (const Capture& c : captured) {
    Capture inner{c.type, {}};
    if (!w.options.server.retry.enabled) {
      inner.payload = c.payload;
    } else if (!net::ReliableReceiver::StripEnvelope(c.payload,
                                                     &inner.payload)) {
      continue;
    }
    out.push_back(std::move(inner));
  }
  return out;
}

/// Decodes one clone payload into its members; false if malformed.
bool DecodeClones(const Capture& c, std::vector<query::WebQuery>* members) {
  serialize::Decoder dec(c.payload);
  if (c.type == net::MessageType::kCloneBatch) {
    query::CloneBatch batch;
    if (!query::CloneBatch::DecodeFrom(&dec, &batch).ok()) return false;
    for (query::WebQuery& q : batch.clones) members->push_back(std::move(q));
    return true;
  }
  query::WebQuery q;
  if (!query::WebQuery::DecodeFrom(&dec, &q).ok()) return false;
  members->push_back(std::move(q));
  return true;
}

/// Decode plus canonical re-encode of one payload, as a receiver and the
/// next sender would do it.
size_t CodecRoundTrip(const Capture& c) {
  serialize::Decoder dec(c.payload);
  serialize::Encoder enc;
  switch (c.type) {
    case net::MessageType::kWebQuery: {
      query::WebQuery q;
      if (query::WebQuery::DecodeFrom(&dec, &q).ok()) q.EncodeTo(&enc);
      break;
    }
    case net::MessageType::kCloneBatch: {
      query::CloneBatch b;
      if (query::CloneBatch::DecodeFrom(&dec, &b).ok()) b.EncodeTo(&enc);
      break;
    }
    case net::MessageType::kReport: {
      query::QueryReport r;
      if (query::QueryReport::DecodeFrom(&dec, &r).ok()) r.EncodeTo(&enc);
      break;
    }
    case net::MessageType::kReportBatch: {
      query::ReportBatch b;
      if (query::ReportBatch::DecodeFrom(&dec, &b).ok()) b.EncodeTo(&enc);
      break;
    }
    default:
      break;
  }
  return enc.size();
}

}  // namespace

ReplayCosts Replay(const Workload& w,
                   const std::vector<Capture>& captured_clones,
                   const std::vector<Capture>& captured_reports) {
  ReplayCosts costs;
  const std::vector<Capture> clones = Unwrap(w, captured_clones);
  const std::vector<Capture> reports = Unwrap(w, captured_reports);

  std::vector<query::WebQuery> members;
  for (const Capture& c : clones) DecodeClones(c, &members);

  // Documents the clones named, in first-visit order.
  std::vector<std::string> urls;
  {
    std::set<std::string> seen;
    for (const query::WebQuery& q : members) {
      for (const std::string& url : q.dest_urls) {
        if (seen.insert(url).second) urls.push_back(url);
      }
    }
  }

  // web: first fetch of each named document on a fresh copy of the web. On
  // a lazy web that renders and parses the page, so every pass needs a new
  // copy; an eager web is materialized when built, so one copy serves all.
  {
    std::unique_ptr<WebInputs> fresh;
    uint64_t calls = 0;
    int64_t busy = 0;
    for (int pass = 0; pass < kMaxPasses && !urls.empty() &&
                       (pass == 0 || busy < kMinReplayNs);
         ++pass) {
      if (fresh == nullptr ||
          fresh->graph.num_materialized() < fresh->graph.num_documents()) {
        fresh = std::make_unique<WebInputs>(w.build_web(w.seed));
      }
      const int64_t t0 = NowNs();
      for (const std::string& url : urls) {
        g_sink = g_sink + (fresh->graph.Find(url) != nullptr);
      }
      busy += NowNs() - t0;
      calls += urls.size();
    }
    costs.materialize_us =
        calls == 0 ? 0.0 : static_cast<double>(busy) / 1e3 / calls;
  }

  const WebInputs web = w.build_web(w.seed);
  std::vector<const web::WebGraph::Document*> docs;
  std::map<std::string, size_t> doc_index;
  for (const std::string& url : urls) {
    const web::WebGraph::Document* doc = web.graph.Find(url);
    if (doc == nullptr) continue;
    doc_index.emplace(url, docs.size());
    docs.push_back(doc);
  }

  costs.parse_us = PerCallUs([&] {
    for (const web::WebGraph::Document* doc : docs) {
      g_sink = g_sink + html::ParseDocument(doc->url, doc->raw_html)
                            .anchors.size();
    }
    return docs.size();
  });

  costs.db_build_us = PerCallUs([&] {
    for (const web::WebGraph::Document* doc : docs) {
      g_sink = g_sink + server::BuildNodeDatabase(doc->parsed).ApproxBytes();
    }
    return docs.size();
  });

  // relational: each clone's current node-query on each destination where
  // its PRE admits the empty path (where the server evaluates it).
  std::vector<relational::Database> dbs;
  dbs.reserve(docs.size());
  for (const web::WebGraph::Document* doc : docs) {
    dbs.push_back(server::BuildNodeDatabase(doc->parsed));
  }
  std::vector<std::pair<const relational::SelectQuery*, size_t>> evals;
  for (const query::WebQuery& q : members) {
    if (q.remaining_queries.empty() || !q.rem_pre.ContainsNull()) continue;
    for (const std::string& url : q.dest_urls) {
      auto it = doc_index.find(url);
      if (it != doc_index.end()) {
        evals.emplace_back(&q.remaining_queries[0].select, it->second);
      }
    }
  }
  costs.eval_us = PerCallUs([&] {
    for (const auto& [select, db] : evals) {
      auto rows = relational::Execute(*select, dbs[db]);
      g_sink = g_sink + (rows.ok() ? rows->rows.size() : 0);
    }
    return evals.size();
  });

  // pre: the derivations a server makes to forward each clone, and the
  // log-table comparison of each repeat visit of a query to a node against
  // that query's previous state there.
  costs.derive_us = PerCallUs([&] {
    size_t calls = 0;
    for (const query::WebQuery& q : members) {
      for (const html::LinkType type : q.rem_pre.FirstLinks()) {
        g_sink = g_sink + q.rem_pre.Derive(type).ContainsNull();
        ++calls;
      }
    }
    return calls;
  });
  std::vector<std::pair<const pre::Pre*, const pre::Pre*>> pairs;
  {
    std::map<std::pair<std::string, std::string>, const pre::Pre*> last;
    for (const query::WebQuery& q : members) {
      const std::string key = q.id.Key();
      for (const std::string& url : q.dest_urls) {
        const pre::Pre*& logged = last[{url, key}];
        if (logged != nullptr) pairs.emplace_back(&q.rem_pre, logged);
        logged = &q.rem_pre;
      }
    }
  }
  costs.log_compare_us = PerCallUs([&] {
    for (const auto& [incoming, logged] : pairs) {
      const pre::LogDecision decision =
          pre::ComparePreForLog(*incoming, *logged);
      g_sink = g_sink + static_cast<size_t>(decision.comparison);
    }
    return pairs.size();
  });

  costs.clone_codec_us = PerCallUs([&] {
    for (const Capture& c : clones) g_sink = g_sink + CodecRoundTrip(c);
    return clones.size();
  });
  costs.report_codec_us = PerCallUs([&] {
    for (const Capture& c : reports) g_sink = g_sink + CodecRoundTrip(c);
    return reports.size();
  });
  return costs;
}

}  // namespace webdis::perfbench
