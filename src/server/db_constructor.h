#ifndef WEBDIS_SERVER_DB_CONSTRUCTOR_H_
#define WEBDIS_SERVER_DB_CONSTRUCTOR_H_

#include <cstdint>
#include <string>
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

/// Builds all three relations, every cell owning its bytes. The query server
/// reads the visited page in place instead (NodeRelations); this full build
/// is the data-shipping baseline's and the benchmarks' unit of work.
relational::Database BuildNodeDatabase(const html::ParsedDocument& doc);

/// The virtual relations of the page a query server is visiting, in storage
/// the server keeps across visits: the paper's temporary database (§2.4)
/// without a construction per visit. Each visit refills, in place, only the
/// relations its node-queries name: rows are resized and cells reassigned.
/// String cells borrow the page's parsed form (Value::Borrow), so the
/// relations may be read only while that page lives and until the next
/// Visit. relational::Execute owns every cell it projects, so its results
/// outlive both.
class NodeRelations {
 public:
  NodeRelations();
  NodeRelations(const NodeRelations&) = delete;
  NodeRelations& operator=(const NodeRelations&) = delete;

  /// Starts a visit of `doc`, which must outlive every read until the next
  /// Visit: no relation holds its rows yet.
  void Visit(const html::ParsedDocument& doc);

  /// Refills each relation `from` names that this visit has not filled yet
  /// and returns the relations. Other names are skipped: relational::Execute
  /// reports them as unknown relations.
  const relational::Database& Fill(
      const std::vector<relational::TableRef>& from);

 private:
  void FillDocument();
  void FillAnchors();
  void FillRelInfons();

  const html::ParsedDocument* doc_ = nullptr;
  std::string url_key_;  // the page's resource key, every row's url cell
  uint8_t filled_ = 0;   // one bit per relation refilled this visit
  relational::Database db_;
  // The three relations of db_ (declared after it: set from its Puts).
  relational::Table* document_;
  relational::Table* anchor_;
  relational::Table* relinfon_;
};

}  // namespace webdis::server

#endif  // WEBDIS_SERVER_DB_CONSTRUCTOR_H_
