#ifndef WEBDIS_TESTS_RELATIONAL_REFERENCE_H_
#define WEBDIS_TESTS_RELATIONAL_REFERENCE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "relational/eval.h"
#include "relational/expr.h"
#include "relational/table.h"

// The specification of relational::Execute: the original copying
// evaluator, which binds aliases by name per row, copies every cell it
// reads, and lower-cases fresh copies of both strings for `contains`. It is
// slow, which is why it lives here and not in src/, and it is obviously
// correct, which is why relational_test holds the evaluator to it row for
// row and error for error. Change it only together with a deliberate change
// of the evaluator's output.
namespace webdis::relational::reference {

/// Maps a table alias (e.g. "d0", "a", "r") to one current row during
/// evaluation of a where-clause over the cross product of the declared
/// virtual relations.
class RowBinding {
 public:
  /// Binds alias -> (schema, tuple). Pointers must outlive the binding.
  void Bind(std::string alias, const Schema* schema, const Tuple* tuple);

  /// Resolves alias.column to the cell value.
  Result<Value> Lookup(std::string_view alias, std::string_view column) const;

 private:
  struct Entry {
    std::string alias;
    const Schema* schema;
    const Tuple* tuple;
  };
  std::vector<Entry> entries_;
};

/// Evaluates `expr` to a Value. Errors on unbound aliases / unknown columns.
Result<Value> Eval(const Expr& expr, const RowBinding& binding);

/// Evaluates `expr` as a predicate: non-null, non-zero int or non-empty
/// string is true; NULL is false.
Result<bool> EvalPredicate(const Expr& expr, const RowBinding& binding);

/// `contains` by its definition: search the lower-cased needle in the
/// lower-cased haystack (std::tolower on fresh copies).
bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle);

/// Runs the select against the per-document database.
Result<ResultSet> Execute(const SelectQuery& query, const Database& db);

}  // namespace webdis::relational::reference

#endif  // WEBDIS_TESTS_RELATIONAL_REFERENCE_H_
