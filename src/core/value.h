#ifndef HRDM_CORE_VALUE_H_
#define HRDM_CORE_VALUE_H_

/// \file value.h
/// \brief Atomic values and value domains.
///
/// Section 3 of the paper: "Let D = {D1, D2, ..., Dn} be a set of value
/// domains ... a set of atomic (non-decomposable) values". HRDM
/// additionally distinguishes the set `TT` of *time-valued* functions
/// (T -> T) from the ordinary `TD_i` (T -> D_i); we mirror that by giving
/// time its own domain type, `DomainType::kTime`, distinct from kInt even
/// though both are 64-bit integers. Operators that require a time-valued
/// attribute (dynamic TIME-SLICE, TIME-JOIN) check for kTime.

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "core/time.h"
#include "util/status.h"

namespace hrdm {

/// \brief The type of a value domain (the range of an attribute's temporal
/// function).
enum class DomainType : uint8_t {
  kBool = 0,
  kInt = 1,
  kDouble = 2,
  kString = 3,
  /// The special time domain: attributes with this domain are members of TT
  /// (functions from T into T) and enable dynamic TIME-SLICE and TIME-JOIN.
  kTime = 4,
};

/// \brief Stable lower-case name ("bool", "int", "double", "string",
/// "time").
std::string_view DomainTypeName(DomainType type);

/// \brief Strong wrapper distinguishing time-valued atoms from plain ints
/// inside the Value variant.
struct TimeAtom {
  TimePoint t = 0;
  bool operator==(const TimeAtom&) const = default;
  auto operator<=>(const TimeAtom&) const = default;
};

/// \brief An atomic, non-decomposable value: one element of some `D_i` (or
/// of `T` for time atoms).
///
/// Value is a tagged union with value semantics. A default-constructed
/// Value is "absent" (used transiently while building tuples; never a legal
/// attribute value at the model level — undefinedness is expressed by the
/// *temporal function's domain*, not by a null atom; HRDM's chosen JOIN
/// semantics produce no nulls).
class Value {
 public:
  Value() = default;

  static Value Bool(bool b) { return Value(Payload(std::in_place_index<1>, b)); }
  static Value Int(int64_t i) {
    return Value(Payload(std::in_place_index<2>, i));
  }
  static Value Double(double d) {
    return Value(Payload(std::in_place_index<3>, d));
  }
  static Value String(std::string s) {
    return Value(Payload(std::in_place_index<4>, std::move(s)));
  }
  static Value Time(TimePoint t) {
    return Value(Payload(std::in_place_index<5>, TimeAtom{t}));
  }

  bool absent() const { return payload_.index() == 0; }

  /// \brief Domain type of a present value. Requires !absent().
  DomainType type() const;

  bool IsType(DomainType t) const { return !absent() && type() == t; }

  bool AsBool() const { return std::get<1>(payload_); }
  int64_t AsInt() const { return std::get<2>(payload_); }
  double AsDouble() const { return std::get<3>(payload_); }
  const std::string& AsString() const { return std::get<4>(payload_); }
  TimePoint AsTime() const { return std::get<5>(payload_).t; }

  /// \brief Numeric view of kInt/kDouble values (for θ comparisons across
  /// the two numeric domains). Requires a numeric type.
  double AsNumeric() const {
    return IsType(DomainType::kInt) ? static_cast<double>(AsInt())
                                    : AsDouble();
  }

  /// \brief Exact equality: same type (int and double are distinct) and
  /// same payload. Absent values are equal to each other.
  bool operator==(const Value& o) const { return payload_ == o.payload_; }
  bool operator!=(const Value& o) const { return !(*this == o); }

  /// \brief Total order over all values (type tag first, then payload);
  /// used by containers and for deterministic output ordering, not by θ.
  bool operator<(const Value& o) const;

  /// \brief 64-bit hash (FNV-1a over tag and payload bytes).
  uint64_t Hash() const;

  /// \brief Display form: `true`, `42`, `3.5`, `"str"`, `@17` (time).
  std::string ToString() const;

 private:
  using Payload =
      std::variant<std::monostate, bool, int64_t, double, std::string,
                   TimeAtom>;
  explicit Value(Payload p) : payload_(std::move(p)) {}

  Payload payload_;
};

/// \brief Comparison operators available in θ predicates and HRQL.
enum class CompareOp : uint8_t {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

std::string_view CompareOpName(CompareOp op);

/// \brief Evaluates `lhs θ rhs`.
///
/// Rules: comparing an absent value is an error; kInt and kDouble
/// inter-compare numerically; all other cross-type comparisons are type
/// errors; strings compare lexicographically; times chronologically; bools
/// support only kEq/kNe.
Result<bool> Compare(const Value& lhs, CompareOp op, const Value& rhs);

}  // namespace hrdm

#endif  // HRDM_CORE_VALUE_H_
