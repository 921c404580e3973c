#ifndef WEBDIS_RELATIONAL_VALUE_H_
#define WEBDIS_RELATIONAL_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/status.h"

namespace webdis::serialize {
class Encoder;
class Decoder;
}  // namespace webdis::serialize

namespace webdis::relational {

/// Column types in the virtual relations. The paper's node model needs only
/// strings (urls, titles, text, labels) and integers (lengths).
enum class ValueType : uint8_t {
  kNull = 0,
  kInt = 1,
  kString = 2,
};

std::string_view ValueTypeToString(ValueType t);

/// A dynamically-typed cell value. A string cell either owns its bytes or
/// borrows them (Borrow); the two forms compare, order, print and encode
/// alike.
class Value {
 public:
  /// Null value.
  Value() : data_(std::monostate{}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  static Value Null() { return Value(); }
  /// A string cell reading `s` in place. The bytes must outlive every read
  /// of the cell and of its copies, which borrow too; Owned() copies them.
  static Value Borrow(std::string_view s) {
    Value v;
    v.data_.emplace<std::string_view>(s);
    return v;
  }

  ValueType type() const {
    const size_t index = data_.index();
    return index >= 2 ? ValueType::kString : static_cast<ValueType>(index);
  }

  bool is_null() const { return type() == ValueType::kNull; }
  /// Whether this is a string cell that borrows its bytes.
  bool borrowed() const {
    return std::holds_alternative<std::string_view>(data_);
  }
  /// Precondition: type() == kInt.
  int64_t AsInt() const { return std::get<int64_t>(data_); }
  /// Precondition: type() == kString.
  std::string_view AsString() const {
    if (const auto* s = std::get_if<std::string>(&data_)) return *s;
    return std::get<std::string_view>(data_);
  }
  /// This value, with a borrowed string copied into one it owns.
  Value Owned() const {
    return borrowed() ? Value(std::string(AsString())) : *this;
  }

  /// Display form: "NULL", integer digits, or the raw string.
  std::string ToString() const;

  /// SQL-style equality: NULL compares unequal to everything (incl. NULL).
  bool SqlEquals(const Value& other) const;

  /// Three-way ordering for sort/comparison predicates. Nulls sort first;
  /// cross-type comparison orders by type id (deterministic, never errors).
  int Compare(const Value& other) const;

  /// Exact equality of type and content (used by tests and containers).
  bool operator==(const Value& other) const;

  void EncodeTo(serialize::Encoder* enc) const;
  static Status DecodeFrom(serialize::Decoder* dec, Value* out);

  /// Rough in-memory footprint, for cache byte budgets (not wire size). A
  /// borrowed string counts nothing beyond the cell.
  size_t ApproxBytes() const {
    size_t bytes = sizeof(Value);
    if (const auto* s = std::get_if<std::string>(&data_)) {
      bytes += s->capacity();
    }
    return bytes;
  }

 private:
  // Alternative order matches ValueType, with the borrowed string last.
  std::variant<std::monostate, int64_t, std::string, std::string_view> data_;
};

}  // namespace webdis::relational

#endif  // WEBDIS_RELATIONAL_VALUE_H_
