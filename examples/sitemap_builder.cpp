// Site-map builder — the second motivating application from the paper's
// introduction: "applications which build site maps for a particular domain
// of web-servers would require all hyperlinks from those web-sites to be
// extracted. Instead of downloading all documents ... it would reduce
// network traffic if processing was done at the web-servers themselves and
// only the list of links sent back."
//
// The DISQL query follows every local link from a site's homepage (L*) and,
// at each page, projects the ANCHOR virtual relation — so only (base, href,
// ltype) triples travel back, never documents. The example then renders the
// site map as an indented tree and compares the traffic against downloading
// the site.
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "web/topologies.h"

namespace {

void PrintTree(const std::map<std::string, std::vector<std::string>>& edges,
               const std::string& node, int depth,
               std::set<std::string>* seen) {
  std::printf("%*s%s\n", depth * 2, "", node.c_str());
  if (!seen->insert(node).second) return;
  auto it = edges.find(node);
  if (it == edges.end()) return;
  for (const std::string& child : it->second) {
    PrintTree(edges, child, depth + 1, seen);
  }
}

}  // namespace

int main() {
  webdis::web::CampusScenario scenario = webdis::web::BuildCampusScenario();
  webdis::core::Engine engine(&scenario.web);

  const std::string root = "http://www.csa.iisc.ernet.in/";
  // N|L* == L* (nullable): the root itself and everything reachable over
  // local links; each visited page returns its full anchor table.
  const std::string disql =
      "select a.base, a.href, a.ltype\n"
      "from document d such that \"" + root + "\" L* d,\n"
      "     anchor a\n";

  auto outcome = engine.Run(disql, "webmaster");
  if (!outcome.ok()) {
    std::fprintf(stderr, "site-map query failed: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }

  std::map<std::string, std::vector<std::string>> local_edges;
  std::vector<std::pair<std::string, std::string>> external;
  for (const webdis::relational::ResultSet& rs : outcome->results) {
    if (rs.column_labels !=
        std::vector<std::string>{"a.base", "a.href", "a.ltype"}) {
      continue;
    }
    for (const webdis::relational::Tuple& row : rs.rows) {
      const std::string base = row[0].ToString();
      const std::string href = row[1].ToString();
      const std::string_view ltype = row[2].AsString();
      if (ltype == "L" || ltype == "I") {
        local_edges[base].push_back(href);
      } else {
        external.emplace_back(base, href);
      }
    }
  }

  std::printf("Site map of %s (built by query shipping):\n\n", root.c_str());
  std::set<std::string> seen;
  PrintTree(local_edges, root, 0, &seen);

  std::printf("\nOutbound (global) links:\n");
  for (const auto& [base, href] : external) {
    std::printf("  %s -> %s\n", base.c_str(), href.c_str());
  }

  const size_t site_bytes = [&] {
    size_t total = 0;
    for (const std::string& url : scenario.web.UrlsOnHost(
             "www.csa.iisc.ernet.in")) {
      total += scenario.web.Find(url)->raw_html.size();
    }
    return total;
  }();
  std::printf(
      "\ntraffic: %llu bytes shipped (queries + link lists) vs %zu bytes of\n"
      "HTML a download-and-extract site mapper would have pulled.\n",
      static_cast<unsigned long long>(outcome->traffic.bytes), site_bytes);
  return 0;
}
