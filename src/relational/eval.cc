#include "relational/eval.h"

#include <algorithm>
#include <set>

#include "common/strings.h"

namespace webdis::relational {

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

/// Predicate truth: non-null, non-zero int or non-empty string is true; NULL
/// is false (SQL-ish three-valued logic collapsed to false).
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

/// The int 0/1 every predicate evaluates to, as a borrowable Value.
const Value* BoolValue(bool b) {
  static const Value kFalse(static_cast<int64_t>(0));
  static const Value kTrue(static_cast<int64_t>(1));
  return b ? &kTrue : &kFalse;
}

bool CompareHolds(CompareOp op, const Value& lhs, const Value& rhs) {
  switch (op) {
    case CompareOp::kEq:
      return lhs.SqlEquals(rhs);
    case CompareOp::kNe:
      return !lhs.is_null() && !rhs.is_null() && !lhs.SqlEquals(rhs);
    case CompareOp::kLt:
      return lhs.Compare(rhs) < 0;
    case CompareOp::kLe:
      return lhs.Compare(rhs) <= 0;
    case CompareOp::kGt:
      return lhs.Compare(rhs) > 0;
    case CompareOp::kGe:
      return lhs.Compare(rhs) >= 0;
  }
  return false;
}

/// Rows of one from-entry that survive its pushed-down filters.
struct FilteredTable {
  const Table* table = nullptr;
  std::vector<const Tuple*> rows;
};

/// A column reference bound to the from list: the slot (from-list index)
/// of its alias and the cell index in that relation's schema, each -1 when
/// it does not resolve.
struct BoundColumn {
  int slot = -1;
  int cell = -1;
};

/// The select's where-clause and projection with every column reference
/// bound once per query, so a row is read in place through one Tuple
/// pointer per slot: no cell copy, alias string or column-name scan per
/// row. A reference that does not resolve still fails only when a row
/// evaluates it, with the message it always had.
class BoundSelect {
 public:
  BoundSelect(const SelectQuery& query,
              const std::vector<FilteredTable>& tables)
      : query_(query), tables_(tables) {
    projection_.reserve(query.select.size());
    for (const OutputColumn& col : query.select) {
      projection_.push_back(Resolve(col.alias, col.column));
    }
  }

  /// Binds the subtree of `expr`; returns the index of its root node.
  int Bind(const Expr* expr) {
    Node node{expr, {}, -1, -1};
    if (expr->kind() == ExprKind::kColumnRef) {
      node.column = Resolve(expr->alias(), expr->column());
    }
    if (expr->left() != nullptr) node.left = Bind(expr->left());
    if (expr->right() != nullptr) node.right = Bind(expr->right());
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size()) - 1;
  }

  /// Evaluates the conjunct rooted at `root` as a predicate over the
  /// current row of each slot.
  Result<bool> Holds(int root, const Tuple* const* rows) const {
    const Value* v = nullptr;
    WEBDIS_ASSIGN_OR_RETURN(v, Eval(root, rows));
    return Truthy(*v);
  }

  /// Appends the projection of the current rows: the only cells copied.
  Status Project(const Tuple* const* rows, std::vector<Tuple>* out) const {
    Tuple projected;
    projected.reserve(projection_.size());
    for (size_t i = 0; i < projection_.size(); ++i) {
      const OutputColumn& col = query_.select[i];
      const Value* v = nullptr;
      WEBDIS_ASSIGN_OR_RETURN(
          v, Cell(projection_[i], col.alias, col.column, rows));
      projected.push_back(*v);
    }
    out->push_back(std::move(projected));
    return Status::OK();
  }

 private:
  struct Node {
    const Expr* expr;
    BoundColumn column;  // kColumnRef only
    int left;
    int right;
  };

  BoundColumn Resolve(std::string_view alias, std::string_view column) const {
    BoundColumn bound;
    for (size_t i = 0; i < query_.from.size(); ++i) {
      if (query_.from[i].alias != alias) continue;
      bound.slot = static_cast<int>(i);
      bound.cell = tables_[i].table->schema().IndexOf(column);
      break;
    }
    return bound;
  }

  static Result<const Value*> Cell(const BoundColumn& bound,
                                   std::string_view alias,
                                   std::string_view column,
                                   const Tuple* const* rows) {
    if (bound.slot < 0) {
      return Status::InvalidArgument(
          StringPrintf("unbound alias '%s'", std::string(alias).c_str()));
    }
    if (bound.cell < 0) {
      return Status::InvalidArgument(
          StringPrintf("relation aliased '%s' has no column '%s'",
                       std::string(alias).c_str(),
                       std::string(column).c_str()));
    }
    return &(*rows[bound.slot])[static_cast<size_t>(bound.cell)];
  }

  /// Evaluates node `index` to a borrowed value: a row cell, a literal, or
  /// the 0/1 of a predicate. And/or short-circuit.
  Result<const Value*> Eval(int index, const Tuple* const* rows) const {
    const Node& node = nodes_[static_cast<size_t>(index)];
    const Expr& expr = *node.expr;
    const Value* lhs = nullptr;
    const Value* rhs = nullptr;
    switch (expr.kind()) {
      case ExprKind::kLiteral:
        return &expr.literal();
      case ExprKind::kColumnRef:
        return Cell(node.column, expr.alias(), expr.column(), rows);
      case ExprKind::kCompare:
        WEBDIS_ASSIGN_OR_RETURN(lhs, Eval(node.left, rows));
        WEBDIS_ASSIGN_OR_RETURN(rhs, Eval(node.right, rows));
        return BoolValue(CompareHolds(expr.compare_op(), *lhs, *rhs));
      case ExprKind::kContains:
        WEBDIS_ASSIGN_OR_RETURN(lhs, Eval(node.left, rows));
        WEBDIS_ASSIGN_OR_RETURN(rhs, Eval(node.right, rows));
        if (lhs->type() != ValueType::kString ||
            rhs->type() != ValueType::kString) {
          return BoolValue(false);
        }
        return BoolValue(ContainsIgnoreCase(lhs->AsString(), rhs->AsString()));
      case ExprKind::kAnd:
        WEBDIS_ASSIGN_OR_RETURN(lhs, Eval(node.left, rows));
        if (!Truthy(*lhs)) return BoolValue(false);
        WEBDIS_ASSIGN_OR_RETURN(rhs, Eval(node.right, rows));
        return BoolValue(Truthy(*rhs));
      case ExprKind::kOr:
        WEBDIS_ASSIGN_OR_RETURN(lhs, Eval(node.left, rows));
        if (Truthy(*lhs)) return BoolValue(true);
        WEBDIS_ASSIGN_OR_RETURN(rhs, Eval(node.right, rows));
        return BoolValue(Truthy(*rhs));
      case ExprKind::kNot:
        WEBDIS_ASSIGN_OR_RETURN(lhs, Eval(node.left, rows));
        return BoolValue(!Truthy(*lhs));
    }
    return Status::Internal("unreachable expr kind");
  }

  const SelectQuery& query_;
  const std::vector<FilteredTable>& tables_;
  std::vector<BoundColumn> projection_;  // parallel to query_.select
  std::vector<Node> nodes_;
};

/// Recursively enumerates the cross product of the filtered tables, one
/// current row per slot, and projects the rows passing the residual filter.
Status EnumerateRows(const BoundSelect& bound,
                     const std::vector<FilteredTable>& tables,
                     const std::vector<int>& residual, size_t depth,
                     const Tuple** rows, ResultSet* out) {
  if (depth == tables.size()) {
    for (const int conjunct : residual) {
      bool pass = false;
      WEBDIS_ASSIGN_OR_RETURN(pass, bound.Holds(conjunct, rows));
      if (!pass) return Status::OK();
    }
    return bound.Project(rows, &out->rows);
  }
  for (const Tuple* row : tables[depth].rows) {
    rows[depth] = row;
    WEBDIS_RETURN_IF_ERROR(
        EnumerateRows(bound, tables, residual, depth + 1, rows, out));
  }
  return Status::OK();
}

/// Lexicographic tuple ordering for the distinct set.
struct TupleLess {
  bool operator()(const Tuple* a, const Tuple* b) const {
    const size_t n = std::min(a->size(), b->size());
    for (size_t i = 0; i < n; ++i) {
      const int c = (*a)[i].Compare((*b)[i]);
      if (c != 0) return c < 0;
    }
    return a->size() < b->size();
  }
};

/// Keeps the first occurrence of each row, in order, without copying any.
void DropDuplicateRows(std::vector<Tuple>* rows) {
  std::set<const Tuple*, TupleLess> seen;
  size_t kept = 0;
  for (Tuple& row : *rows) {
    if (seen.contains(&row)) continue;
    // Rows before `kept` never move again, so the set's pointers stay valid.
    Tuple& slot = (*rows)[kept++];
    if (&slot != &row) slot = std::move(row);
    seen.insert(&slot);
  }
  rows->resize(kept);
}

}  // namespace

Result<ResultSet> Execute(const SelectQuery& query, const Database& db) {
  if (query.from.empty()) {
    return Status::InvalidArgument("select with empty from list");
  }
  std::vector<FilteredTable> tables(query.from.size());
  for (size_t i = 0; i < query.from.size(); ++i) {
    const TableRef& ref = query.from[i];
    for (size_t j = 0; j < i; ++j) {
      if (query.from[j].alias == ref.alias) {
        return Status::InvalidArgument(
            StringPrintf("duplicate alias '%s'", ref.alias.c_str()));
      }
    }
    const Table* table = db.Find(ref.relation);
    if (table == nullptr) {
      return Status::NotFound(
          StringPrintf("unknown relation '%s'", ref.relation.c_str()));
    }
    tables[i].table = table;
  }
  BoundSelect bound(query, tables);

  // -- Predicate pushdown ----------------------------------------------------
  // Conjuncts touching exactly one alias filter that table before the cross
  // product; the rest stay residual. With pushdown off everything is
  // residual (the naive evaluator, kept for the ablation benchmark).
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(query.where.get(), &conjuncts);
  std::vector<std::vector<int>> per_table(query.from.size());
  std::vector<int> residual;
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
    const int root = bound.Bind(conjunct);
    if (target >= 0) {
      per_table[static_cast<size_t>(target)].push_back(root);
    } else {
      residual.push_back(root);
    }
  }

  // One current row per slot. A pushed-down conjunct reads only its own
  // table's slot.
  std::vector<const Tuple*> rows(query.from.size(), nullptr);
  for (size_t i = 0; i < tables.size(); ++i) {
    const Table* table = tables[i].table;
    tables[i].rows.reserve(table->num_rows());
    if (per_table[i].empty()) {
      for (const Tuple& row : table->rows()) tables[i].rows.push_back(&row);
      continue;
    }
    for (const Tuple& row : table->rows()) {
      rows[i] = &row;
      bool pass = true;
      for (const int conjunct : per_table[i]) {
        WEBDIS_ASSIGN_OR_RETURN(pass, bound.Holds(conjunct, rows.data()));
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
  WEBDIS_RETURN_IF_ERROR(
      EnumerateRows(bound, tables, residual, 0, rows.data(), &out));
  if (query.distinct && out.rows.size() > 1) DropDuplicateRows(&out.rows);
  return out;
}

}  // namespace webdis::relational
