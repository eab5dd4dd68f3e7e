#include "jms/message.hpp"

#include <stdexcept>

namespace gridmon::jms {
namespace {

std::int64_t fields_wire_size(const Fields& fields) {
  std::int64_t total = 0;
  for (const auto& [name, value] : fields) {
    total += static_cast<std::int64_t>(name.size()) + 2 + jms::wire_size(value);
  }
  return total;
}

}  // namespace

Fields::Fields(std::initializer_list<Entry> entries) {
  entries_.reserve(entries.size());
  for (const auto& [name, value] : entries) set(name, value);
}

void Fields::set(const std::string& name, Value value) {
  const auto it =
      std::lower_bound(entries_.begin(), entries_.end(), name, name_less);
  if (it != entries_.end() && it->first == name) {
    it->second = std::move(value);
  } else {
    entries_.emplace(it, name, std::move(value));
  }
}

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
  map->entries.set(name, std::move(value));
}

Value Message::map_get(const std::string& name) const {
  const auto* map = std::get_if<MapBody>(&body);
  if (map == nullptr) {
    throw std::logic_error("Message::map_get on a non-map body");
  }
  const Value* value = map->entries.find(name);
  return value != nullptr ? *value : Value{NullValue{}};
}

std::int64_t Message::wire_size() const {
  return sealed() ? sealed_size_.bytes : compute_wire_size();
}

std::int64_t Message::compute_wire_size() const {
  // Fixed headers: ids, timestamps, destination, flags.
  std::int64_t size = 96 + static_cast<std::int64_t>(destination.size() +
                                                     message_id.size() +
                                                     correlation_id.size());
  size += fields_wire_size(properties_);
  struct BodySizer {
    std::int64_t operator()(const std::monostate&) const { return 0; }
    std::int64_t operator()(const MapBody& map) const {
      return 4 + fields_wire_size(map.entries);
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

MessagePtr seal(Message message) {
  auto sealed = std::make_shared<Message>(std::move(message));
  sealed->sealed_size_.bytes = sealed->compute_wire_size();
  return sealed;
}

Message make_map_message(std::string destination, Fields entries) {
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
