#include "relational/value.h"

#include "serialize/encoder.h"

namespace webdis::relational {

std::string_view ValueTypeToString(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return "int";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kString:
      return std::string(AsString());
  }
  return "?";
}

bool Value::SqlEquals(const Value& other) const {
  if (is_null() || other.is_null()) return false;
  return *this == other;
}

bool Value::operator==(const Value& other) const {
  if (type() != other.type()) return false;
  switch (type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt:
      return AsInt() == other.AsInt();
    case ValueType::kString:
      return AsString() == other.AsString();
  }
  return false;
}

int Value::Compare(const Value& other) const {
  const int t1 = static_cast<int>(type());
  const int t2 = static_cast<int>(other.type());
  if (t1 != t2) return t1 < t2 ? -1 : 1;
  switch (type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt: {
      const int64_t a = AsInt();
      const int64_t b = other.AsInt();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case ValueType::kString: {
      const int c = AsString().compare(other.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
  return 0;
}

void Value::EncodeTo(serialize::Encoder* enc) const {
  enc->PutU8(static_cast<uint8_t>(type()));
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      enc->PutU64(static_cast<uint64_t>(AsInt()));
      break;
    case ValueType::kString:
      enc->PutString(AsString());
      break;
  }
}

Status Value::DecodeFrom(serialize::Decoder* dec, Value* out) {
  uint8_t tag = 0;
  WEBDIS_RETURN_IF_ERROR(dec->GetU8(&tag));
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      *out = Value::Null();
      return Status::OK();
    case ValueType::kInt: {
      uint64_t v = 0;
      WEBDIS_RETURN_IF_ERROR(dec->GetU64(&v));
      *out = Value(static_cast<int64_t>(v));
      return Status::OK();
    }
    case ValueType::kString: {
      std::string s;
      WEBDIS_RETURN_IF_ERROR(dec->GetString(&s));
      *out = Value(std::move(s));
      return Status::OK();
    }
    default:
      return Status::Corruption("bad value type tag");
  }
}

}  // namespace webdis::relational
