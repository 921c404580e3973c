#include "relational/expr.h"

#include "serialize/encoder.h"

namespace webdis::relational {

std::string_view CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

ExprPtr Expr::Make(ExprKind kind) {
  // webdis-lint: allow(naked-new) — the constructor is private (factories
  // enforce well-formed nodes), so make_unique cannot reach it; ownership
  // transfers to the unique_ptr in the same expression.
  return ExprPtr(new Expr(kind));
}

ExprPtr Expr::Literal(Value v) {
  ExprPtr e = Make(ExprKind::kLiteral);
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::ColumnRef(std::string alias, std::string column) {
  ExprPtr e = Make(ExprKind::kColumnRef);
  e->alias_ = std::move(alias);
  e->column_ = std::move(column);
  return e;
}

ExprPtr Expr::Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  ExprPtr e = Make(ExprKind::kCompare);
  e->compare_op_ = op;
  e->left_ = std::move(lhs);
  e->right_ = std::move(rhs);
  return e;
}

ExprPtr Expr::Contains(ExprPtr haystack, ExprPtr needle) {
  ExprPtr e = Make(ExprKind::kContains);
  e->left_ = std::move(haystack);
  e->right_ = std::move(needle);
  return e;
}

ExprPtr Expr::And(ExprPtr lhs, ExprPtr rhs) {
  ExprPtr e = Make(ExprKind::kAnd);
  e->left_ = std::move(lhs);
  e->right_ = std::move(rhs);
  return e;
}

ExprPtr Expr::Or(ExprPtr lhs, ExprPtr rhs) {
  ExprPtr e = Make(ExprKind::kOr);
  e->left_ = std::move(lhs);
  e->right_ = std::move(rhs);
  return e;
}

ExprPtr Expr::Not(ExprPtr operand) {
  ExprPtr e = Make(ExprKind::kNot);
  e->left_ = std::move(operand);
  return e;
}

ExprPtr Expr::Clone() const {
  switch (kind_) {
    case ExprKind::kLiteral:
      return Literal(literal_);
    case ExprKind::kColumnRef:
      return ColumnRef(alias_, column_);
    case ExprKind::kCompare:
      return Compare(compare_op_, left_->Clone(), right_->Clone());
    case ExprKind::kContains:
      return Contains(left_->Clone(), right_->Clone());
    case ExprKind::kAnd:
      return And(left_->Clone(), right_->Clone());
    case ExprKind::kOr:
      return Or(left_->Clone(), right_->Clone());
    case ExprKind::kNot:
      return Not(left_->Clone());
  }
  return nullptr;
}

std::string Expr::ToString() const {
  switch (kind_) {
    case ExprKind::kLiteral:
      if (literal_.type() == ValueType::kString) {
        return "\"" + literal_.AsString() + "\"";
      }
      return literal_.ToString();
    case ExprKind::kColumnRef:
      return alias_ + "." + column_;
    case ExprKind::kCompare:
      return "(" + left_->ToString() + " " +
             std::string(CompareOpToString(compare_op_)) + " " +
             right_->ToString() + ")";
    case ExprKind::kContains:
      return "(" + left_->ToString() + " contains " + right_->ToString() +
             ")";
    case ExprKind::kAnd:
      return "(" + left_->ToString() + " and " + right_->ToString() + ")";
    case ExprKind::kOr:
      return "(" + left_->ToString() + " or " + right_->ToString() + ")";
    case ExprKind::kNot:
      return "(not " + left_->ToString() + ")";
  }
  return "?";
}

void Expr::CollectAliases(std::vector<std::string>* out) const {
  if (kind_ == ExprKind::kColumnRef) {
    for (const std::string& a : *out) {
      if (a == alias_) return;
    }
    out->push_back(alias_);
    return;
  }
  if (left_) left_->CollectAliases(out);
  if (right_) right_->CollectAliases(out);
}

void Expr::EncodeTo(serialize::Encoder* enc) const {
  enc->PutU8(static_cast<uint8_t>(kind_));
  switch (kind_) {
    case ExprKind::kLiteral:
      literal_.EncodeTo(enc);
      break;
    case ExprKind::kColumnRef:
      enc->PutString(alias_);
      enc->PutString(column_);
      break;
    case ExprKind::kCompare:
      enc->PutU8(static_cast<uint8_t>(compare_op_));
      left_->EncodeTo(enc);
      right_->EncodeTo(enc);
      break;
    case ExprKind::kContains:
    case ExprKind::kAnd:
    case ExprKind::kOr:
      left_->EncodeTo(enc);
      right_->EncodeTo(enc);
      break;
    case ExprKind::kNot:
      left_->EncodeTo(enc);
      break;
  }
}

Result<ExprPtr> Expr::DecodeFrom(serialize::Decoder* dec) {
  return DecodeRecursive(dec, 0);
}

Result<ExprPtr> Expr::DecodeRecursive(serialize::Decoder* dec, int depth) {
  constexpr int kMaxDepth = 64;
  if (depth > kMaxDepth) {
    return Status::Corruption("expression tree too deep");
  }
  uint8_t tag = 0;
  WEBDIS_RETURN_IF_ERROR(dec->GetU8(&tag));
  switch (static_cast<ExprKind>(tag)) {
    case ExprKind::kLiteral: {
      Value v;
      WEBDIS_RETURN_IF_ERROR(Value::DecodeFrom(dec, &v));
      return Literal(std::move(v));
    }
    case ExprKind::kColumnRef: {
      std::string alias, column;
      WEBDIS_RETURN_IF_ERROR(dec->GetString(&alias));
      WEBDIS_RETURN_IF_ERROR(dec->GetString(&column));
      return ColumnRef(std::move(alias), std::move(column));
    }
    case ExprKind::kCompare: {
      uint8_t op = 0;
      WEBDIS_RETURN_IF_ERROR(dec->GetU8(&op));
      if (op > static_cast<uint8_t>(CompareOp::kGe)) {
        return Status::Corruption("bad compare op tag");
      }
      ExprPtr lhs, rhs;
      WEBDIS_ASSIGN_OR_RETURN(lhs, DecodeRecursive(dec, depth + 1));
      WEBDIS_ASSIGN_OR_RETURN(rhs, DecodeRecursive(dec, depth + 1));
      return Compare(static_cast<CompareOp>(op), std::move(lhs),
                     std::move(rhs));
    }
    case ExprKind::kContains: {
      ExprPtr lhs, rhs;
      WEBDIS_ASSIGN_OR_RETURN(lhs, DecodeRecursive(dec, depth + 1));
      WEBDIS_ASSIGN_OR_RETURN(rhs, DecodeRecursive(dec, depth + 1));
      return Contains(std::move(lhs), std::move(rhs));
    }
    case ExprKind::kAnd: {
      ExprPtr lhs, rhs;
      WEBDIS_ASSIGN_OR_RETURN(lhs, DecodeRecursive(dec, depth + 1));
      WEBDIS_ASSIGN_OR_RETURN(rhs, DecodeRecursive(dec, depth + 1));
      return And(std::move(lhs), std::move(rhs));
    }
    case ExprKind::kOr: {
      ExprPtr lhs, rhs;
      WEBDIS_ASSIGN_OR_RETURN(lhs, DecodeRecursive(dec, depth + 1));
      WEBDIS_ASSIGN_OR_RETURN(rhs, DecodeRecursive(dec, depth + 1));
      return Or(std::move(lhs), std::move(rhs));
    }
    case ExprKind::kNot: {
      ExprPtr operand;
      WEBDIS_ASSIGN_OR_RETURN(operand, DecodeRecursive(dec, depth + 1));
      return Not(std::move(operand));
    }
    default:
      return Status::Corruption("bad expr kind tag");
  }
}

}  // namespace webdis::relational
