#include "core/value.h"

#include <cstring>

#include "util/format.h"

namespace hrdm {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FnvBytes(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::string_view DomainTypeName(DomainType type) {
  switch (type) {
    case DomainType::kBool:
      return "bool";
    case DomainType::kInt:
      return "int";
    case DomainType::kDouble:
      return "double";
    case DomainType::kString:
      return "string";
    case DomainType::kTime:
      return "time";
  }
  return "unknown";
}

DomainType Value::type() const {
  switch (payload_.index()) {
    case 1:
      return DomainType::kBool;
    case 2:
      return DomainType::kInt;
    case 3:
      return DomainType::kDouble;
    case 4:
      return DomainType::kString;
    case 5:
      return DomainType::kTime;
    default:
      break;
  }
  internal::AbortWithMessage("hrdm::Value", "type() on absent value");
}

bool Value::operator<(const Value& o) const {
  if (payload_.index() != o.payload_.index()) {
    return payload_.index() < o.payload_.index();
  }
  return payload_ < o.payload_;
}

uint64_t Value::Hash() const {
  uint64_t h = FnvBytes(kFnvOffset, &"\x00\x01\x02\x03\x04\x05"[payload_.index()], 1);
  switch (payload_.index()) {
    case 1: {
      bool b = std::get<1>(payload_);
      return FnvBytes(h, &b, sizeof(b));
    }
    case 2: {
      int64_t v = std::get<2>(payload_);
      return FnvBytes(h, &v, sizeof(v));
    }
    case 3: {
      double v = std::get<3>(payload_);
      return FnvBytes(h, &v, sizeof(v));
    }
    case 4: {
      const std::string& s = std::get<4>(payload_);
      return FnvBytes(h, s.data(), s.size());
    }
    case 5: {
      TimePoint t = std::get<5>(payload_).t;
      return FnvBytes(h, &t, sizeof(t));
    }
    default:
      return h;
  }
}

std::string Value::ToString() const {
  if (absent()) return "<absent>";
  switch (type()) {
    case DomainType::kBool:
      return AsBool() ? "true" : "false";
    case DomainType::kInt: {
      std::string out;
      AppendInt(&out, AsInt());
      return out;
    }
    case DomainType::kDouble: {
      std::string out;
      AppendDouble(&out, AsDouble());
      return out;
    }
    case DomainType::kString:
      return QuoteString(AsString());
    case DomainType::kTime: {
      // "@17" — matches the HRQL time-literal syntax, so rendered
      // predicates parse back.
      std::string out = "@";
      AppendInt(&out, AsTime());
      return out;
    }
  }
  return "<?>";
}

std::string_view CompareOpName(CompareOp op) {
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

namespace {

template <typename T>
bool ApplyOrder(const T& a, CompareOp op, const T& b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
  }
  return false;
}

}  // namespace

Result<bool> Compare(const Value& lhs, CompareOp op, const Value& rhs) {
  if (lhs.absent() || rhs.absent()) {
    return Status::TypeError("cannot compare absent values");
  }
  const DomainType lt = lhs.type();
  const DomainType rt = rhs.type();
  const bool numeric_l = lt == DomainType::kInt || lt == DomainType::kDouble;
  const bool numeric_r = rt == DomainType::kInt || rt == DomainType::kDouble;
  if (numeric_l && numeric_r) {
    if (lt == DomainType::kInt && rt == DomainType::kInt) {
      return ApplyOrder(lhs.AsInt(), op, rhs.AsInt());
    }
    return ApplyOrder(lhs.AsNumeric(), op, rhs.AsNumeric());
  }
  if (lt != rt) {
    return Status::TypeError(
        StrPrintf("cannot compare %s with %s",
                  std::string(DomainTypeName(lt)).c_str(),
                  std::string(DomainTypeName(rt)).c_str()));
  }
  switch (lt) {
    case DomainType::kBool:
      if (op != CompareOp::kEq && op != CompareOp::kNe) {
        return Status::TypeError("bool supports only = and !=");
      }
      return ApplyOrder(lhs.AsBool(), op, rhs.AsBool());
    case DomainType::kString:
      return ApplyOrder(lhs.AsString(), op, rhs.AsString());
    case DomainType::kTime:
      return ApplyOrder(lhs.AsTime(), op, rhs.AsTime());
    default:
      return Status::Internal("unhandled comparison type");
  }
}

}  // namespace hrdm
