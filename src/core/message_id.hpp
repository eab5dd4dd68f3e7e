// The identity a published sample carries end to end.
//
// Both publishing clients stamp "ID:<node>-<port>-<seq>": the JMS
// JMSMessageID the Narada client sets on send, and the model-level
// message_id of an MQTT PUBLISH. The harness keys its in-flight records by
// the three integers instead of the text, so a publish neither builds nor
// hashes a string to track its sample; the text is written once, for the
// wire, and parsed back once at the subscriber.
//
// parse() is the exact inverse of to_string(): it accepts only what
// to_string() writes (digits without sign or leading zero, each field in
// range). Two ids are therefore equal exactly when their texts are, and an
// in-flight lookup by parsed id finds what a lookup by text would have.
// Header-only, so the backend libraries below gridmon_core can stamp ids
// with the same code.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

namespace gridmon::core {

/// (node, port) is the publishing client's endpoint, seq its per-client
/// publish counter. node and seq are non-negative.
struct MessageId {
  std::int32_t node = 0;
  std::uint16_t port = 0;
  std::int64_t seq = 0;

  /// Widest decimal form of each field, sign included.
  static constexpr std::size_t kNodeChars = 11;
  static constexpr std::size_t kPortChars = 5;
  static constexpr std::size_t kSeqChars = 20;
  /// Longest text: "ID:" node '-' port '-' seq.
  static constexpr std::size_t kMaxChars =
      3 + kNodeChars + 1 + kPortChars + 1 + kSeqChars;

  /// Writes the text into `buf` (at least kMaxChars long) and returns it.
  std::string_view format(char* buf) const {
    char* p = buf;
    *p++ = 'I';
    *p++ = 'D';
    *p++ = ':';
    p = std::to_chars(p, p + kNodeChars, node).ptr;
    *p++ = '-';
    p = std::to_chars(p, p + kPortChars, port).ptr;
    *p++ = '-';
    p = std::to_chars(p, p + kSeqChars, seq).ptr;
    return {buf, static_cast<std::size_t>(p - buf)};
  }

  [[nodiscard]] std::string to_string() const {
    char buf[kMaxChars];
    return std::string(format(buf));
  }

  /// The id `text` spells, or nullopt unless `text` is exactly what
  /// to_string() writes for some id.
  [[nodiscard]] static std::optional<MessageId> parse(std::string_view text) {
    constexpr std::string_view kPrefix = "ID:";
    if (text.substr(0, kPrefix.size()) != kPrefix) return std::nullopt;
    const char* p = text.data() + kPrefix.size();
    const char* const end = text.data() + text.size();
    MessageId id;
    if (!field(p, end, id.node) || !dash(p, end) || !field(p, end, id.port) ||
        !dash(p, end) || !field(p, end, id.seq) || p != end) {
      return std::nullopt;
    }
    return id;
  }

  friend bool operator==(const MessageId&, const MessageId&) = default;

 private:
  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  static bool dash(const char*& p, const char* end) {
    if (p == end || *p != '-') return false;
    ++p;
    return true;
  }

  /// One decimal field: digits only (no sign), no leading zero, in T's
  /// non-negative range.
  template <typename T>
  static bool field(const char*& p, const char* end, T& out) {
    if (p == end || !is_digit(*p)) return false;
    if (*p == '0' && p + 1 != end && is_digit(p[1])) return false;
    std::uint64_t value = 0;
    const auto [next, ec] = std::from_chars(p, end, value);
    if (ec != std::errc() ||
        value > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
      return false;
    }
    out = static_cast<T>(value);
    p = next;
    return true;
  }
};

}  // namespace gridmon::core

template <>
struct std::hash<gridmon::core::MessageId> {
  std::size_t operator()(const gridmon::core::MessageId& id) const noexcept {
    // Spread the endpoint with a multiplicative hash; seq varies fastest
    // within one publisher and goes in unmixed.
    const std::uint64_t endpoint =
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(id.node)) << 16 |
        id.port;
    return static_cast<std::size_t>(endpoint * 0x9E3779B97F4A7C15ULL ^
                                    static_cast<std::uint64_t>(id.seq));
  }
};
