#include "jms/message.hpp"

#include <stdexcept>

namespace gridmon::jms {

Value Message::property(const std::string& name) const {
  return visit_property(name, [](const auto& value) { return Value{value}; });
}

void Message::map_set(const std::string& name, Value value) {
  auto* map = std::get_if<MapBody>(&body);
  if (map == nullptr) {
    if (std::holds_alternative<std::monostate>(body)) {
      body = MapBody{};
      map = std::get_if<MapBody>(&body);
    } else {
      throw std::logic_error("Message::map_set on a non-map body");
    }
  }
  map->entries[name] = std::move(value);
}

Value Message::map_get(const std::string& name) const {
  const auto* map = std::get_if<MapBody>(&body);
  if (map == nullptr) {
    throw std::logic_error("Message::map_get on a non-map body");
  }
  const auto it = map->entries.find(name);
  if (it == map->entries.end()) return NullValue{};
  return it->second;
}

std::int64_t Message::wire_size() const {
  // Fixed headers: ids, timestamps, destination, flags.
  std::int64_t size = 96 + static_cast<std::int64_t>(destination.size() +
                                                     message_id.size() +
                                                     correlation_id.size());
  for (const auto& [name, value] : properties_) {
    size += static_cast<std::int64_t>(name.size()) + 2 + jms::wire_size(value);
  }
  struct BodySizer {
    std::int64_t operator()(const std::monostate&) const { return 0; }
    std::int64_t operator()(const MapBody& map) const {
      std::int64_t total = 4;
      for (const auto& [name, value] : map.entries) {
        total += static_cast<std::int64_t>(name.size()) + 2 +
                 jms::wire_size(value);
      }
      return total;
    }
    std::int64_t operator()(const TextBody& text) const {
      return 4 + static_cast<std::int64_t>(text.text.size());
    }
    std::int64_t operator()(const BytesBody& bytes) const {
      return 4 + bytes.size;
    }
  };
  return size + std::visit(BodySizer{}, body);
}

Message make_map_message(std::string destination,
                         std::map<std::string, Value> entries) {
  Message msg;
  msg.destination = std::move(destination);
  msg.body = MapBody{std::move(entries)};
  return msg;
}

Message make_text_message(std::string destination, std::string text) {
  Message msg;
  msg.destination = std::move(destination);
  msg.body = TextBody{std::move(text)};
  return msg;
}

}  // namespace gridmon::jms
