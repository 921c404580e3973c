// Floating-link checker — the maintenance application from Section 1.2:
// "WEBDIS can be used for maintenance activities such as detecting the
// presence of 'floating links' (links pointing to non-existent documents),
// a commonly encountered problem in web-site administration."
//
// Phase 1 (query shipping): a DISQL query walks the target site over local
// links and returns every (base, href) anchor pair — the documents stay on
// the server.
// Phase 2 (verification): each distinct href is probed with a lightweight
// HTTP fetch; misses are the floating links.
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "core/engine.h"
#include "html/url.h"
#include "server/http_server.h"
#include "web/pagegen.h"
#include "web/topologies.h"

namespace {

/// Probes a URL over the engine's simulated HTTP: returns true if the host
/// serves the document. (A 1999 checker would issue an HTTP HEAD.)
bool Probe(webdis::core::Engine& engine, const std::string& url,
           bool* responded) {
  using webdis::net::Endpoint;
  using webdis::net::MessageType;
  using webdis::server::HttpServer;
  static uint16_t probe_port = 18000;
  const Endpoint me{"checker.site", ++probe_port};
  bool found = false;
  bool got = false;
  auto status = engine.network().Listen(
      me, [&](const Endpoint&, MessageType type,
              const std::vector<uint8_t>& payload) {
        if (type != MessageType::kFetchResponse) return;
        HttpServer::FetchResponse resp;
        if (HttpServer::DecodeFetchResponse(payload, &resp).ok()) {
          got = true;
          found = resp.found;
        }
      });
  if (!status.ok()) return false;
  auto parsed = webdis::html::ParseUrl(url);
  if (parsed.ok()) {
    status = engine.network().Send(
        me, Endpoint{parsed->host, webdis::server::kHttpPort},
        MessageType::kFetchRequest, HttpServer::EncodeFetchRequest(url));
    if (status.ok()) engine.network().RunUntilIdle();
  }
  engine.network().CloseListener(me);
  *responded = got;
  return found;
}

}  // namespace

int main() {
  // Start from the campus web and plant some rot: a page with two broken
  // links (one to a missing page, one to a dead host).
  webdis::web::CampusScenario scenario = webdis::web::BuildCampusScenario();
  {
    webdis::web::PageSpec stale;
    stale.title = "Old announcements";
    stale.links = {
        {"/events1997", "1997 events (page was removed)"},
        {"http://gopher.iisc.ernet.in/", "gopher archive (host is gone)"},
        {"/Labs", "laboratories"},
    };
    auto status = scenario.web.AddDocument(
        "http://www.csa.iisc.ernet.in/announcements",
        webdis::web::RenderHtml(stale));
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }
  webdis::core::Engine engine(&scenario.web);

  // Phase 1: gather all anchors of the site by query shipping. The
  // StartNode list covers the roots of the site's local-link components.
  const std::string disql =
      "select a.base, a.href\n"
      "from document d such that (\"http://www.csa.iisc.ernet.in/\", "
      "\"http://www.csa.iisc.ernet.in/announcements\") L* d,\n"
      "     anchor a\n";
  auto outcome = engine.Run(disql, "webmaster");
  if (!outcome.ok()) {
    std::fprintf(stderr, "gather failed: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }

  std::map<std::string, std::set<std::string>> referers;  // href -> bases
  for (const webdis::relational::ResultSet& rs : outcome->results) {
    if (rs.column_labels != std::vector<std::string>{"a.base", "a.href"}) {
      continue;
    }
    for (const webdis::relational::Tuple& row : rs.rows) {
      referers[row[1].ToString()].insert(row[0].ToString());
    }
  }
  std::printf("gathered %zu distinct link targets from "
              "www.csa.iisc.ernet.in by query shipping\n\n",
              referers.size());

  // Phase 2: probe each target.
  int floating = 0;
  for (const auto& [href, bases] : referers) {
    bool responded = false;
    const bool found = Probe(engine, href, &responded);
    if (found) continue;
    ++floating;
    std::printf("FLOATING LINK: %s (%s)\n", href.c_str(),
                responded ? "404 not found" : "host unreachable");
    for (const std::string& base : bases) {
      std::printf("    referenced from %s\n", base.c_str());
    }
  }
  if (floating == 0) {
    std::printf("no floating links found\n");
  } else {
    std::printf("\n%d floating link(s) need attention\n", floating);
  }
  return 0;
}
