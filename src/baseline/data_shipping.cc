#include "baseline/data_shipping.h"

#include <deque>
#include <set>

#include "common/logging.h"
#include "common/strings.h"
#include "html/parser.h"
#include "html/url.h"
#include "relational/eval.h"
#include "server/db_constructor.h"
#include "server/http_server.h"

namespace webdis::baseline {

DataShippingEngine::DataShippingEngine(std::string client_host,
                                       net::SimNetwork* network,
                                       DataShippingOptions options)
    : client_host_(std::move(client_host)),
      network_(network),
      options_(options) {}

DataShippingEngine::~DataShippingEngine() {
  if (listening_) {
    network_->CloseListener(
        net::Endpoint{client_host_, options_.fetch_port});
  }
}

Result<std::string> DataShippingEngine::FetchDocument(
    const std::string& url, DataShippingOutcome* outcome) {
  if (options_.cache_documents) {
    auto it = document_cache_.find(url);
    if (it != document_cache_.end()) {
      ++outcome->cache_hits;
      return it->second;
    }
  }
  if (!listening_) {
    WEBDIS_RETURN_IF_ERROR(network_->Listen(
        net::Endpoint{client_host_, options_.fetch_port},
        [this](const net::Endpoint& from, net::MessageType type,
               const std::vector<uint8_t>& payload) {
          (void)from;
          if (type != net::MessageType::kFetchResponse) return;
          server::HttpServer::FetchResponse resp;
          if (!server::HttpServer::DecodeFetchResponse(payload, &resp).ok()) {
            return;
          }
          response_pending_ = false;
          response_found_ = resp.found;
          response_html_ = std::move(resp.html);
        }));
    listening_ = true;
  }
  auto parsed = html::ParseUrl(url);
  if (!parsed.ok()) return parsed.status();
  response_pending_ = true;
  response_found_ = false;
  response_html_.clear();
  const Status send_status = network_->Send(
      net::Endpoint{client_host_, options_.fetch_port},
      net::Endpoint{parsed->host, server::kHttpPort},
      net::MessageType::kFetchRequest,
      server::HttpServer::EncodeFetchRequest(url));
  if (!send_status.ok()) {
    ++outcome->fetch_failures;
    return send_status;
  }
  // Single outstanding fetch: pump until the response handler fires.
  while (response_pending_ && network_->RunOne()) {
  }
  if (response_pending_) {
    ++outcome->fetch_failures;
    return Status::NetworkError(
        StringPrintf("fetch of %s got no response", url.c_str()));
  }
  if (!response_found_) {
    ++outcome->fetch_failures;
    return Status::NotFound(StringPrintf("no document at %s", url.c_str()));
  }
  ++outcome->documents_fetched;
  outcome->fetch_bytes += response_html_.size();
  if (options_.cache_documents) {
    document_cache_[url] = response_html_;
  }
  return response_html_;
}

Result<DataShippingOutcome> DataShippingEngine::Run(
    const disql::CompiledQuery& compiled) {
  std::vector<WorkItem> frontier;
  for (const std::string& url : compiled.start_urls) {
    auto parsed = html::ParseUrl(url);
    if (!parsed.ok()) return parsed.status();
    frontier.push_back(
        WorkItem{parsed->ResourceKey(), 0, compiled.web_query.rem_pre});
  }
  return Execute(compiled, std::move(frontier));
}

Result<DataShippingOutcome> DataShippingEngine::RunFrom(
    const disql::CompiledQuery& compiled,
    const std::vector<query::ChtEntry>& entries) {
  const size_t total = compiled.web_query.remaining_queries.size();
  std::vector<WorkItem> frontier;
  for (const query::ChtEntry& entry : entries) {
    if (entry.state.num_q == 0 || entry.state.num_q > total) {
      return Status::InvalidArgument(StringPrintf(
          "fallback entry with bad num_q %u",
          static_cast<unsigned>(entry.state.num_q)));
    }
    frontier.push_back(WorkItem{entry.node_url, total - entry.state.num_q,
                                entry.state.rem_pre});
  }
  return Execute(compiled, std::move(frontier));
}

Result<DataShippingOutcome> DataShippingEngine::Execute(
    const disql::CompiledQuery& compiled, std::vector<WorkItem> frontier) {
  DataShippingOutcome outcome;
  outcome.start_time = network_->now();
  const query::WebQuery& wq = compiled.web_query;
  const size_t num_stages = wq.remaining_queries.size();

  std::deque<WorkItem> queue(frontier.begin(), frontier.end());
  std::set<std::string> visited;  // url \x1f stage \x1f rem key
  std::set<std::string> seen_rows;

  const auto merge_results = [&](const relational::ResultSet& rs) {
    relational::ResultSet* target = nullptr;
    for (relational::ResultSet& existing : outcome.results) {
      if (existing.column_labels == rs.column_labels) {
        target = &existing;
        break;
      }
    }
    if (target == nullptr) {
      relational::ResultSet fresh;
      fresh.column_labels = rs.column_labels;
      outcome.results.push_back(std::move(fresh));
      target = &outcome.results.back();
    }
    const relational::RowIdentity identity(rs.column_labels);
    for (const relational::Tuple& row : rs.rows) {
      if (seen_rows.insert(identity.Key(row)).second) {
        target->rows.push_back(row);
      }
    }
  };

  while (!queue.empty()) {
    WorkItem item = std::move(queue.front());
    queue.pop_front();
    const std::string visit_key = item.url + '\x1f' +
                                  std::to_string(item.stage) + '\x1f' +
                                  item.rem.CanonicalKey();
    if (!visited.insert(visit_key).second) continue;

    auto html_result = FetchDocument(item.url, &outcome);
    if (!html_result.ok()) continue;  // floating link or dead host
    ++outcome.nodes_visited;

    auto parsed_url = html::ParseUrl(item.url);
    if (!parsed_url.ok()) continue;
    const html::ParsedDocument doc =
        html::ParseDocument(parsed_url.value(), html_result.value());
    const relational::Database db = server::BuildNodeDatabase(doc);

    if (item.rem.ContainsNull()) {
      ++outcome.node_queries_evaluated;
      auto rs = relational::Execute(wq.remaining_queries[item.stage].select,
                                    db);
      if (rs.ok() && !rs->rows.empty()) {
        merge_results(rs.value());
        if (item.stage + 1 < num_stages) {
          queue.push_back(WorkItem{item.url, item.stage + 1,
                                   wq.future_pres[item.stage]});
        }
      }
    }
    for (const html::LinkType link_type : item.rem.FirstLinks()) {
      const pre::Pre derived = item.rem.Derive(link_type);
      for (const html::ParsedAnchor& anchor : doc.anchors) {
        if (anchor.ltype != link_type) continue;
        queue.push_back(
            WorkItem{anchor.resolved.ResourceKey(), item.stage, derived});
      }
    }
  }
  outcome.completed = true;
  outcome.finish_time = network_->now();
  return outcome;
}

}  // namespace webdis::baseline
