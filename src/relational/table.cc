#include "relational/table.h"

#include "common/strings.h"

namespace webdis::relational {

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

int Schema::IndexOf(std::string_view name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Status Table::Insert(Tuple tuple) {
  if (tuple.size() != schema_.num_columns()) {
    return Status::InvalidArgument(StringPrintf(
        "tuple arity %zu does not match schema arity %zu", tuple.size(),
        schema_.num_columns()));
  }
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (!tuple[i].is_null() && tuple[i].type() != schema_.column(i).type) {
      return Status::InvalidArgument(StringPrintf(
          "column '%s' expects %s, got %s", schema_.column(i).name.c_str(),
          std::string(ValueTypeToString(schema_.column(i).type)).c_str(),
          std::string(ValueTypeToString(tuple[i].type())).c_str()));
    }
  }
  rows_.push_back(std::move(tuple));
  return Status::OK();
}

std::span<Tuple> Table::ResizeRows(size_t rows) {
  const size_t kept = rows_.size();
  rows_.resize(rows);
  for (size_t i = kept; i < rows; ++i) {
    rows_[i].resize(schema_.num_columns());
  }
  return rows_;
}

Table* Database::Put(std::string name, Table table) {
  return &tables_.insert_or_assign(std::move(name), std::move(table))
              .first->second;
}

const Table* Database::Find(std::string_view name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

const Schema& DocumentSchema() {
  static const Schema schema({
      {"url", ValueType::kString},
      {"title", ValueType::kString},
      {"text", ValueType::kString},
      {"length", ValueType::kInt},
  });
  return schema;
}

const Schema& AnchorSchema() {
  static const Schema schema({
      {"label", ValueType::kString},
      {"base", ValueType::kString},
      {"href", ValueType::kString},
      {"ltype", ValueType::kString},
  });
  return schema;
}

size_t Table::ApproxBytes() const {
  size_t bytes = sizeof(Table);
  for (const Tuple& row : rows_) {
    bytes += sizeof(Tuple) + (row.capacity() - row.size()) * sizeof(Value);
    for (const Value& cell : row) bytes += cell.ApproxBytes();
  }
  return bytes;
}

size_t Database::ApproxBytes() const {
  size_t bytes = sizeof(Database);
  for (const auto& [name, table] : tables_) {
    bytes += name.capacity() + table.ApproxBytes();
  }
  return bytes;
}

const Schema& RelInfonSchema() {
  static const Schema schema({
      {"delimiter", ValueType::kString},
      {"url", ValueType::kString},
      {"text", ValueType::kString},
      {"length", ValueType::kInt},
  });
  return schema;
}

}  // namespace webdis::relational
