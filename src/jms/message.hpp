// JMS 1.1-style messages.
//
// A Message carries standard headers (JMSMessageID, JMSTimestamp,
// JMSDestination, JMSDeliveryMode, JMSPriority, ...), application-set
// properties (visible to selectors), and a typed body. The paper's workload
// uses MapMessage bodies with the exact field mix it describes (2 int,
// 5 float, 2 long, 3 double, 4 string).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
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

/// MapMessage body: name → typed value.
struct MapBody {
  std::map<std::string, Value> entries;
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
    properties_[name] = std::move(value);
  }
  /// Property lookup as selectors see it: missing → NULL, plus the JMSX /
  /// JMS header pseudo-properties selectors may reference.
  [[nodiscard]] Value property(const std::string& name) const;
  /// The same lookup without copying, which selectors use: calls `visit`
  /// with one of Value's alternatives (NullValue when missing). Strings
  /// are passed by reference into this message.
  template <typename Visit>
  auto visit_property(const std::string& name, Visit&& visit) const;
  [[nodiscard]] const std::map<std::string, Value>& properties() const {
    return properties_;
  }

  // --- body ---
  Body body;

  [[nodiscard]] bool is_map() const { return std::holds_alternative<MapBody>(body); }
  [[nodiscard]] bool is_text() const { return std::holds_alternative<TextBody>(body); }

  /// MapMessage accessors (throw if the body is not a map).
  void map_set(const std::string& name, Value value);
  [[nodiscard]] Value map_get(const std::string& name) const;

  /// Approximate serialised size: headers + properties + body.
  [[nodiscard]] std::int64_t wire_size() const;

 private:
  std::map<std::string, Value> properties_;
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
  const auto it = properties_.find(name);
  if (it == properties_.end()) return visit(NullValue{});
  return std::visit(visit, it->second);
}

using MessagePtr = std::shared_ptr<const Message>;

/// Convenience builders.
Message make_map_message(std::string destination,
                         std::map<std::string, Value> entries);
Message make_text_message(std::string destination, std::string text);

}  // namespace gridmon::jms
