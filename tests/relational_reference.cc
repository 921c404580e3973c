#include "relational_reference.h"

#include <algorithm>
#include <set>

#include "common/strings.h"

namespace webdis::relational::reference {

void RowBinding::Bind(std::string alias, const Schema* schema,
                      const Tuple* tuple) {
  for (Entry& e : entries_) {
    if (e.alias == alias) {
      e.schema = schema;
      e.tuple = tuple;
      return;
    }
  }
  entries_.push_back({std::move(alias), schema, tuple});
}

Result<Value> RowBinding::Lookup(std::string_view alias,
                                 std::string_view column) const {
  for (const Entry& e : entries_) {
    if (e.alias == alias) {
      const int idx = e.schema->IndexOf(column);
      if (idx < 0) {
        return Status::InvalidArgument(
            StringPrintf("relation aliased '%s' has no column '%s'",
                         std::string(alias).c_str(),
                         std::string(column).c_str()));
      }
      return (*e.tuple)[static_cast<size_t>(idx)];
    }
  }
  return Status::InvalidArgument(
      StringPrintf("unbound alias '%s'", std::string(alias).c_str()));
}

bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  const std::string h = ToLower(haystack);
  const std::string n = ToLower(needle);
  return h.find(n) != std::string::npos;
}

namespace {

bool Truthy(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt:
      return v.AsInt() != 0;
    case ValueType::kString:
      return !v.AsString().empty();
  }
  return false;
}

}  // namespace

Result<Value> Eval(const Expr& expr, const RowBinding& binding) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      return expr.literal();
    case ExprKind::kColumnRef:
      return binding.Lookup(expr.alias(), expr.column());
    case ExprKind::kCompare: {
      Value lhs, rhs;
      WEBDIS_ASSIGN_OR_RETURN(lhs, Eval(*expr.left(), binding));
      WEBDIS_ASSIGN_OR_RETURN(rhs, Eval(*expr.right(), binding));
      bool result = false;
      switch (expr.compare_op()) {
        case CompareOp::kEq:
          result = lhs.SqlEquals(rhs);
          break;
        case CompareOp::kNe:
          result = !lhs.is_null() && !rhs.is_null() && !lhs.SqlEquals(rhs);
          break;
        case CompareOp::kLt:
          result = lhs.Compare(rhs) < 0;
          break;
        case CompareOp::kLe:
          result = lhs.Compare(rhs) <= 0;
          break;
        case CompareOp::kGt:
          result = lhs.Compare(rhs) > 0;
          break;
        case CompareOp::kGe:
          result = lhs.Compare(rhs) >= 0;
          break;
      }
      return Value(static_cast<int64_t>(result ? 1 : 0));
    }
    case ExprKind::kContains: {
      Value lhs, rhs;
      WEBDIS_ASSIGN_OR_RETURN(lhs, Eval(*expr.left(), binding));
      WEBDIS_ASSIGN_OR_RETURN(rhs, Eval(*expr.right(), binding));
      if (lhs.type() != ValueType::kString ||
          rhs.type() != ValueType::kString) {
        return Value(static_cast<int64_t>(0));
      }
      const bool result = ContainsIgnoreCase(lhs.AsString(), rhs.AsString());
      return Value(static_cast<int64_t>(result ? 1 : 0));
    }
    case ExprKind::kAnd: {
      // Short-circuit.
      Value lhs;
      WEBDIS_ASSIGN_OR_RETURN(lhs, Eval(*expr.left(), binding));
      if (!Truthy(lhs)) return Value(static_cast<int64_t>(0));
      Value rhs;
      WEBDIS_ASSIGN_OR_RETURN(rhs, Eval(*expr.right(), binding));
      return Value(static_cast<int64_t>(Truthy(rhs) ? 1 : 0));
    }
    case ExprKind::kOr: {
      Value lhs;
      WEBDIS_ASSIGN_OR_RETURN(lhs, Eval(*expr.left(), binding));
      if (Truthy(lhs)) return Value(static_cast<int64_t>(1));
      Value rhs;
      WEBDIS_ASSIGN_OR_RETURN(rhs, Eval(*expr.right(), binding));
      return Value(static_cast<int64_t>(Truthy(rhs) ? 1 : 0));
    }
    case ExprKind::kNot: {
      Value v;
      WEBDIS_ASSIGN_OR_RETURN(v, Eval(*expr.left(), binding));
      return Value(static_cast<int64_t>(Truthy(v) ? 0 : 1));
    }
  }
  return Status::Internal("unreachable expr kind");
}

Result<bool> EvalPredicate(const Expr& expr, const RowBinding& binding) {
  Value v;
  WEBDIS_ASSIGN_OR_RETURN(v, Eval(expr, binding));
  return Truthy(v);
}

namespace {

/// Flattens the AND-tree of `expr` into conjuncts (borrowed pointers).
void CollectConjuncts(const Expr* expr, std::vector<const Expr*>* out) {
  if (expr == nullptr) return;
  if (expr->kind() == ExprKind::kAnd) {
    CollectConjuncts(expr->left(), out);
    CollectConjuncts(expr->right(), out);
    return;
  }
  out->push_back(expr);
}

/// Rows of one from-entry that survive its pushed-down filters.
struct FilteredTable {
  const Table* table = nullptr;
  std::vector<const Tuple*> rows;
};

/// Recursively enumerates the cross product of the filtered tables, binding
/// one row per alias, and emits projections of rows passing the residual
/// filter.
Status EnumerateRows(const SelectQuery& query,
                     const std::vector<FilteredTable>& tables,
                     const std::vector<const Expr*>& residual, size_t depth,
                     RowBinding* binding, ResultSet* out) {
  if (depth == tables.size()) {
    for (const Expr* conjunct : residual) {
      bool pass = false;
      WEBDIS_ASSIGN_OR_RETURN(pass, EvalPredicate(*conjunct, *binding));
      if (!pass) return Status::OK();
    }
    Tuple projected;
    projected.reserve(query.select.size());
    for (const OutputColumn& col : query.select) {
      Value v;
      WEBDIS_ASSIGN_OR_RETURN(v, binding->Lookup(col.alias, col.column));
      projected.push_back(std::move(v));
    }
    out->rows.push_back(std::move(projected));
    return Status::OK();
  }
  const std::string& alias = query.from[depth].alias;
  const Schema* schema = &tables[depth].table->schema();
  for (const Tuple* row : tables[depth].rows) {
    binding->Bind(alias, schema, row);
    WEBDIS_RETURN_IF_ERROR(
        EnumerateRows(query, tables, residual, depth + 1, binding, out));
  }
  return Status::OK();
}

/// Lexicographic tuple ordering for the distinct set.
struct TupleLess {
  bool operator()(const Tuple& a, const Tuple& b) const {
    const size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      const int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

}  // namespace

Result<ResultSet> Execute(const SelectQuery& query, const Database& db) {
  if (query.from.empty()) {
    return Status::InvalidArgument("select with empty from list");
  }
  std::vector<FilteredTable> tables(query.from.size());
  std::set<std::string> seen_aliases;
  for (size_t i = 0; i < query.from.size(); ++i) {
    const TableRef& ref = query.from[i];
    if (!seen_aliases.insert(ref.alias).second) {
      return Status::InvalidArgument(
          StringPrintf("duplicate alias '%s'", ref.alias.c_str()));
    }
    const Table* table = db.Find(ref.relation);
    if (table == nullptr) {
      return Status::NotFound(
          StringPrintf("unknown relation '%s'", ref.relation.c_str()));
    }
    tables[i].table = table;
  }

  // -- Predicate pushdown ----------------------------------------------------
  // Conjuncts touching exactly one alias filter that table before the cross
  // product; the rest stay residual. With pushdown off everything is
  // residual (the naive evaluator, kept for the ablation benchmark).
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(query.where.get(), &conjuncts);
  std::vector<std::vector<const Expr*>> per_table(query.from.size());
  std::vector<const Expr*> residual;
  for (const Expr* conjunct : conjuncts) {
    int target = -1;
    if (query.pushdown) {
      std::vector<std::string> aliases;
      conjunct->CollectAliases(&aliases);
      if (aliases.size() == 1) {
        for (size_t i = 0; i < query.from.size(); ++i) {
          if (query.from[i].alias == aliases[0]) {
            target = static_cast<int>(i);
            break;
          }
        }
      } else if (aliases.empty()) {
        // Constant conjunct: push to table 0 (evaluated once per row there;
        // a false constant empties the result as required).
        target = 0;
      }
    }
    if (target >= 0) {
      per_table[static_cast<size_t>(target)].push_back(conjunct);
    } else {
      residual.push_back(conjunct);
    }
  }

  for (size_t i = 0; i < tables.size(); ++i) {
    const Table* table = tables[i].table;
    tables[i].rows.reserve(table->num_rows());
    if (per_table[i].empty()) {
      for (const Tuple& row : table->rows()) tables[i].rows.push_back(&row);
      continue;
    }
    RowBinding binding;
    for (const Tuple& row : table->rows()) {
      binding.Bind(query.from[i].alias, &table->schema(), &row);
      bool pass = true;
      for (const Expr* conjunct : per_table[i]) {
        WEBDIS_ASSIGN_OR_RETURN(pass, EvalPredicate(*conjunct, binding));
        if (!pass) break;
      }
      if (pass) tables[i].rows.push_back(&row);
    }
  }

  ResultSet out;
  out.column_labels.reserve(query.select.size());
  for (const OutputColumn& col : query.select) {
    out.column_labels.push_back(col.Label());
  }

  RowBinding binding;
  WEBDIS_RETURN_IF_ERROR(
      EnumerateRows(query, tables, residual, 0, &binding, &out));

  if (query.distinct && out.rows.size() > 1) {
    std::set<Tuple, TupleLess> seen;
    std::vector<Tuple> unique;
    unique.reserve(out.rows.size());
    for (Tuple& row : out.rows) {
      if (seen.insert(row).second) {
        unique.push_back(std::move(row));
      }
    }
    out.rows = std::move(unique);
  }
  return out;
}

}  // namespace webdis::relational::reference
