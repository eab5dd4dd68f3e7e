// JMS typed values.
//
// JMS properties and MapMessage entries are typed primitives. The variant
// below covers the types the paper's workloads use (plus byte/short folded
// into int32). Numeric comparison follows JMS selector rules: any numeric
// type compares with any other after promotion to the wider representation.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

namespace gridmon::jms {

struct NullValue {
  friend bool operator==(const NullValue&, const NullValue&) = default;
};

using Value = std::variant<NullValue, bool, std::int32_t, std::int64_t, float,
                           double, std::string>;

[[nodiscard]] constexpr bool is_null(const Value& v) {
  return std::holds_alternative<NullValue>(v);
}
[[nodiscard]] constexpr bool is_bool(const Value& v) {
  return std::holds_alternative<bool>(v);
}
[[nodiscard]] constexpr bool is_string(const Value& v) {
  return std::holds_alternative<std::string>(v);
}
[[nodiscard]] constexpr bool is_numeric(const Value& v) {
  return std::holds_alternative<std::int32_t>(v) ||
         std::holds_alternative<std::int64_t>(v) ||
         std::holds_alternative<float>(v) || std::holds_alternative<double>(v);
}
[[nodiscard]] constexpr bool is_integral(const Value& v) {
  return std::holds_alternative<std::int32_t>(v) ||
         std::holds_alternative<std::int64_t>(v);
}

/// Approximate serialised size of the value on the wire, in bytes.
[[nodiscard]] std::int64_t wire_size(const Value& v);

/// Human-readable rendering (used in logs and test diagnostics).
[[nodiscard]] std::string to_string(const Value& v);

}  // namespace gridmon::jms
