// JMS 1.1-style messages.
//
// A Message carries standard headers (JMSMessageID, JMSTimestamp,
// JMSDestination, JMSDeliveryMode, JMSPriority, ...), application-set
// properties (visible to selectors), and a typed body. The paper's workload
// uses MapMessage bodies with the exact field mix it describes (2 int,
// 5 float, 2 long, 3 double, 4 string).
//
// A published message is sealed: `seal()` turns it into an immutable
// MessagePtr and stores its wire size once, so every hop after publish
// reads the size instead of re-walking the fields.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "jms/value.hpp"
#include "util/units.hpp"

namespace gridmon::jms {

enum class DeliveryMode { kNonPersistent, kPersistent };

enum class AcknowledgeMode {
  kAutoAcknowledge,
  kClientAcknowledge,
  kDupsOkAcknowledge,
};

/// Name → typed value, kept sorted by name in one flat vector: one
/// allocation per message part instead of one tree node per field.
class Fields {
 public:
  using Entry = std::pair<std::string, Value>;

  Fields() = default;
  /// A repeated name keeps its last value, as repeated set() calls would.
  Fields(std::initializer_list<Entry> entries);

  /// Overwrites the value under `name` in place, or inserts it in order.
  void set(const std::string& name, Value value);
  /// The value under `name`, or nullptr.
  [[nodiscard]] const Value* find(std::string_view name) const {
    const auto it =
        std::lower_bound(entries_.begin(), entries_.end(), name, name_less);
    return it != entries_.end() && it->first == name ? &it->second : nullptr;
  }

  void reserve(std::size_t count) { entries_.reserve(count); }
  [[nodiscard]] auto begin() const { return entries_.begin(); }
  [[nodiscard]] auto end() const { return entries_.end(); }

  friend bool operator==(const Fields&, const Fields&) = default;

 private:
  static bool name_less(const Entry& entry, std::string_view name) {
    return entry.first < name;
  }

  std::vector<Entry> entries_;
};

/// MapMessage body: name → typed value.
struct MapBody {
  Fields entries;
};

/// TextMessage body.
struct TextBody {
  std::string text;
};

/// BytesMessage body; contents are opaque, only the size matters.
struct BytesBody {
  std::int64_t size = 0;
};

using Body = std::variant<std::monostate, MapBody, TextBody, BytesBody>;

class Message;

/// A published message: immutable, its wire size sealed at publish.
using MessagePtr = std::shared_ptr<const Message>;

class Message {
 public:
  Message() = default;

  // --- headers ---
  std::string message_id;
  std::string destination;  ///< topic or queue name
  SimTime timestamp = 0;    ///< JMSTimestamp: set on send
  DeliveryMode delivery_mode = DeliveryMode::kNonPersistent;
  int priority = 4;  ///< JMS default priority
  std::string correlation_id;
  std::string type;
  SimTime expiration = 0;  ///< 0 = never

  // --- properties (selector-visible) ---
  void set_property(const std::string& name, Value value) {
    properties_.set(name, std::move(value));
  }
  /// Property lookup as selectors see it: missing → NULL, plus the JMSX /
  /// JMS header pseudo-properties selectors may reference.
  [[nodiscard]] Value property(const std::string& name) const;
  /// The same lookup without copying, which selectors use: calls `visit`
  /// with one of Value's alternatives (NullValue when missing). Strings
  /// are passed by reference into this message.
  template <typename Visit>
  auto visit_property(const std::string& name, Visit&& visit) const;
  [[nodiscard]] const Fields& properties() const { return properties_; }

  // --- body ---
  Body body;

  [[nodiscard]] bool is_map() const { return std::holds_alternative<MapBody>(body); }
  [[nodiscard]] bool is_text() const { return std::holds_alternative<TextBody>(body); }

  /// MapMessage accessors (throw if the body is not a map).
  void map_set(const std::string& name, Value value);
  [[nodiscard]] Value map_get(const std::string& name) const;

  /// Approximate serialised size: headers + properties + body. A sealed
  /// message returns the size stored by seal(); any other message is
  /// sized afresh.
  [[nodiscard]] std::int64_t wire_size() const;
  /// True for a message made by seal().
  [[nodiscard]] bool sealed() const { return sealed_size_.bytes >= 0; }

 private:
  friend MessagePtr seal(Message message);

  /// The size stored by seal(). A copy or a move of the message does not
  /// take it along, so a copy that is changed afterwards is sized afresh.
  struct SealedSize {
    std::int64_t bytes = -1;
    SealedSize() = default;
    SealedSize(const SealedSize&) noexcept {}
    SealedSize& operator=(const SealedSize&) noexcept {
      bytes = -1;
      return *this;
    }
  };

  [[nodiscard]] std::int64_t compute_wire_size() const;

  Fields properties_;
  SealedSize sealed_size_;
};

template <typename Visit>
auto Message::visit_property(const std::string& name, Visit&& visit) const {
  static const std::string kPersistent = "PERSISTENT";
  static const std::string kNonPersistent = "NON_PERSISTENT";
  const auto header_text = [&](const std::string& text) {
    return text.empty() ? visit(NullValue{}) : visit(text);
  };
  // Header pseudo-properties (JMS 1.1 §3.8.1.1).
  if (name == "JMSPriority") return visit(static_cast<std::int32_t>(priority));
  if (name == "JMSTimestamp") {
    return visit(static_cast<std::int64_t>(timestamp));
  }
  if (name == "JMSMessageID") return header_text(message_id);
  if (name == "JMSCorrelationID") return header_text(correlation_id);
  if (name == "JMSType") return header_text(type);
  if (name == "JMSDeliveryMode") {
    return visit(delivery_mode == DeliveryMode::kPersistent ? kPersistent
                                                            : kNonPersistent);
  }
  const Value* value = properties_.find(name);
  if (value == nullptr) return visit(NullValue{});
  return std::visit(visit, *value);
}

/// Publishes `message`: makes it immutable and stores its wire size. Call
/// it once the provider has stamped the headers.
[[nodiscard]] MessagePtr seal(Message message);

/// Convenience builders.
Message make_map_message(std::string destination, Fields entries);
Message make_text_message(std::string destination, std::string text);

}  // namespace gridmon::jms
