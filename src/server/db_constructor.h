#ifndef WEBDIS_SERVER_DB_CONSTRUCTOR_H_
#define WEBDIS_SERVER_DB_CONSTRUCTOR_H_

#include <vector>

#include "html/parser.h"
#include "relational/eval.h"
#include "relational/table.h"

namespace webdis::server {

// The Database Constructor of Section 4.4: passes over one parsed document
// materialize the per-node in-memory database of virtual relations —
//   DOCUMENT(url, title, text, length)   — exactly one row
//   ANCHOR(label, base, href, ltype)     — one row per hyperlink
//   RELINFON(delimiter, url, text, length) — one row per rel-infon
// The query server builds this before evaluating a node-query and purges it
// afterwards (Section 2.4), unless database caching is enabled
// (footnote 3 of the paper).

/// Builds all three relations. The query server builds only what a
/// node-query reads (AddNodeRelations); this full build is the data-shipping
/// baseline's and the benchmarks' unit of work.
relational::Database BuildNodeDatabase(const html::ParsedDocument& doc);

/// Adds to `db` each virtual relation that `from` names and `db` does not
/// hold yet. Other names are skipped: relational::Execute reports them as
/// unknown relations. Returns how many relations were added.
size_t AddNodeRelations(const html::ParsedDocument& doc,
                        const std::vector<relational::TableRef>& from,
                        relational::Database* db);

}  // namespace webdis::server

#endif  // WEBDIS_SERVER_DB_CONSTRUCTOR_H_
