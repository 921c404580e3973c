#ifndef WEBDIS_RELATIONAL_EVAL_H_
#define WEBDIS_RELATIONAL_EVAL_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "relational/expr.h"
#include "relational/table.h"

namespace webdis::relational {

/// A relation reference in a node-query's from list: virtual relation name
/// plus the alias it is bound to ("document d0", "relinfon r", ...).
struct TableRef {
  std::string relation;
  std::string alias;
};

/// A projected output column "alias.column".
struct OutputColumn {
  std::string alias;
  std::string column;

  /// Display label, e.g. "d0.url".
  std::string Label() const { return alias + "." + column; }

  bool operator==(const OutputColumn& other) const {
    return alias == other.alias && column == other.column;
  }
};

/// The local select evaluated by a query server against one document's
/// virtual relations (a node-query body, Section 2.3): nested-loop join over
/// the declared relations, filter by `where`, project `select`.
struct SelectQuery {
  std::vector<TableRef> from;
  ExprPtr where;  // may be null (no condition)
  std::vector<OutputColumn> select;
  bool distinct = true;  // drop duplicate projected rows
  /// Split the where-clause into conjuncts and apply single-alias conjuncts
  /// as per-table filters *before* the cross product (classical predicate
  /// pushdown; identical results, far fewer intermediate tuples on
  /// anchor-heavy pages). Off = naive filter-at-the-leaf evaluation.
  bool pushdown = true;
};

/// Evaluation output: labeled projected rows.
struct ResultSet {
  std::vector<std::string> column_labels;
  std::vector<Tuple> rows;

  bool empty() const { return rows.empty(); }
};

/// Runs the select against the per-document database, which need hold only
/// the relations `query.from` names. Errors on unknown relations and
/// duplicate aliases up front; an unbound alias or unknown column fails
/// only when a row evaluates it (so over empty tables it never does).
/// Cells are read in place; only projected output cells are copied, each
/// into a value that owns its bytes, so no result row borrows from `db`.
Result<ResultSet> Execute(const SelectQuery& query, const Database& db);

/// Row identity for duplicate-row filters. A key is the wire encoding of the
/// column labels and then of each cell (Value::EncodeTo: a type tag plus
/// length-prefixed bytes), so two distinct rows never share a key, whatever
/// bytes their strings hold.
class RowIdentity {
 public:
  explicit RowIdentity(const std::vector<std::string>& column_labels);

  /// The key of `row` under these labels.
  std::string Key(const Tuple& row) const;

 private:
  std::string labels_;  // the encoded labels every key starts with
};

}  // namespace webdis::relational

#endif  // WEBDIS_RELATIONAL_EVAL_H_
