#ifndef WEBDIS_RELATIONAL_TABLE_H_
#define WEBDIS_RELATIONAL_TABLE_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "relational/value.h"

namespace webdis::relational {

/// Column definition: name + type. Types are advisory (Values are
/// dynamically typed); inserts are validated against them.
struct Column {
  std::string name;
  ValueType type = ValueType::kString;
};

/// Ordered set of columns. Column names are unique within a schema.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns);

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of a column by name, or -1.
  int IndexOf(std::string_view name) const;

 private:
  std::vector<Column> columns_;
};

/// A row; cell order matches the schema.
using Tuple = std::vector<Value>;

/// In-memory relation. This is the materialization target of the paper's
/// "temporary in-memory database of virtual relations" that a query server
/// builds per document and purges after the node-query (Section 2.4).
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return rows_.size(); }
  const Tuple& row(size_t i) const { return rows_[i]; }
  const std::vector<Tuple>& rows() const { return rows_; }

  /// Validates arity and cell types (null always allowed) and appends.
  Status Insert(Tuple tuple);

  /// Reserves room for `rows` rows.
  void Reserve(size_t rows) { rows_.reserve(rows); }

  /// Drops all rows (the "purge" of Section 2.4).
  void Clear() { rows_.clear(); }

  /// Rough in-memory footprint of rows + cells (for cache byte budgets).
  size_t ApproxBytes() const;

 private:
  Schema schema_;
  std::vector<Tuple> rows_;
};

/// The per-document database: virtual relation name -> table. Relation names
/// are lower case ("document", "anchor", "relinfon").
class Database {
 public:
  /// Adds (or replaces) a relation.
  void Put(std::string name, Table table);

  /// Looks up a relation; nullptr if absent.
  const Table* Find(std::string_view name) const;

  std::vector<std::string> RelationNames() const;

  /// Rough in-memory footprint of all relations — the unit the query
  /// server's LRU database cache budgets against.
  size_t ApproxBytes() const;

 private:
  std::map<std::string, Table, std::less<>> tables_;
};

/// Schemas of the paper's three virtual relations (Section 2.2):
///   DOCUMENT(url, title, text, length)
///   ANCHOR(label, base, href, ltype)
///   RELINFON(delimiter, url, text, length)
const Schema& DocumentSchema();
const Schema& AnchorSchema();
const Schema& RelInfonSchema();

/// Canonical relation names.
inline constexpr std::string_view kDocumentRelation = "document";
inline constexpr std::string_view kAnchorRelation = "anchor";
inline constexpr std::string_view kRelInfonRelation = "relinfon";

}  // namespace webdis::relational

#endif  // WEBDIS_RELATIONAL_TABLE_H_
