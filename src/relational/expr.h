#ifndef WEBDIS_RELATIONAL_EXPR_H_
#define WEBDIS_RELATIONAL_EXPR_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "relational/value.h"

namespace webdis::serialize {
class Encoder;
class Decoder;
}  // namespace webdis::serialize

namespace webdis::relational {

/// Expression node kinds. Wire tags — do not renumber.
enum class ExprKind : uint8_t {
  kLiteral = 0,
  kColumnRef = 1,
  kCompare = 2,
  kContains = 3,
  kAnd = 4,
  kOr = 5,
  kNot = 6,
};

/// Comparison operators. Wire tags — do not renumber.
enum class CompareOp : uint8_t {
  kEq = 0,
  kNe = 1,
  kLt = 2,
  kLe = 3,
  kGt = 4,
  kGe = 5,
};

std::string_view CompareOpToString(CompareOp op);

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Immutable predicate/value expression tree. Built by the DISQL parser,
/// serialized into node-queries so it can be shipped between sites, and
/// evaluated by query servers against per-document virtual relations (the
/// evaluator is relational::Execute, which binds each column reference to
/// its from-list slot once per query).
///
/// Boolean results are represented as int 0/1; `contains` is the paper's
/// case-insensitive substring predicate.
class Expr {
 public:
  // -- Factories ----------------------------------------------------------
  static ExprPtr Literal(Value v);
  static ExprPtr ColumnRef(std::string alias, std::string column);
  static ExprPtr Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Contains(ExprPtr haystack, ExprPtr needle);
  static ExprPtr And(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Not(ExprPtr operand);

  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;

  ExprKind kind() const { return kind_; }
  /// kLiteral only.
  const Value& literal() const { return literal_; }
  /// kColumnRef only.
  const std::string& alias() const { return alias_; }
  const std::string& column() const { return column_; }
  /// kCompare only.
  CompareOp compare_op() const { return compare_op_; }
  /// Child accessors (kCompare/kContains/kAnd/kOr have left+right, kNot has
  /// left only).
  const Expr* left() const { return left_.get(); }
  const Expr* right() const { return right_.get(); }

  /// Deep copy.
  ExprPtr Clone() const;

  /// Parenthesized DISQL-like rendering for logs and tests.
  std::string ToString() const;

  /// Collects every alias referenced anywhere in the tree.
  void CollectAliases(std::vector<std::string>* out) const;

  void EncodeTo(serialize::Encoder* enc) const;
  /// Depth-limited recursive decode; fails on corrupt or over-deep input.
  static Result<ExprPtr> DecodeFrom(serialize::Decoder* dec);

 private:
  explicit Expr(ExprKind kind) : kind_(kind) {}

  /// Allocates an empty node of the given kind (the constructor is private,
  /// so std::make_unique cannot be used by the factories).
  static ExprPtr Make(ExprKind kind);

  static Result<ExprPtr> DecodeRecursive(serialize::Decoder* dec, int depth);

  ExprKind kind_;
  Value literal_;
  std::string alias_;
  std::string column_;
  CompareOp compare_op_ = CompareOp::kEq;
  ExprPtr left_;
  ExprPtr right_;
};

}  // namespace webdis::relational

#endif  // WEBDIS_RELATIONAL_EXPR_H_
