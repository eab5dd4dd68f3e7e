#include "jms/message.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "jms/destination.hpp"
#include "jms/value.hpp"

namespace gridmon::jms {
namespace {

TEST(Value, TypePredicates) {
  EXPECT_TRUE(is_null(Value{NullValue{}}));
  EXPECT_TRUE(is_bool(Value{true}));
  EXPECT_TRUE(is_numeric(Value{std::int32_t{1}}));
  EXPECT_TRUE(is_numeric(Value{std::int64_t{1}}));
  EXPECT_TRUE(is_numeric(Value{1.0f}));
  EXPECT_TRUE(is_numeric(Value{1.0}));
  EXPECT_FALSE(is_numeric(Value{true}));
  EXPECT_FALSE(is_numeric(Value{std::string("x")}));
  EXPECT_TRUE(is_integral(Value{std::int32_t{1}}));
  EXPECT_FALSE(is_integral(Value{1.0}));
  EXPECT_TRUE(is_string(Value{std::string("x")}));
}

TEST(Value, WireSizes) {
  EXPECT_EQ(wire_size(Value{NullValue{}}), 1);
  EXPECT_EQ(wire_size(Value{true}), 1);
  EXPECT_EQ(wire_size(Value{std::int32_t{1}}), 4);
  EXPECT_EQ(wire_size(Value{std::int64_t{1}}), 8);
  EXPECT_EQ(wire_size(Value{1.0f}), 4);
  EXPECT_EQ(wire_size(Value{1.0}), 8);
  EXPECT_EQ(wire_size(Value{std::string("abcd")}), 6);
}

TEST(Value, ToString) {
  EXPECT_EQ(to_string(Value{NullValue{}}), "NULL");
  EXPECT_EQ(to_string(Value{true}), "TRUE");
  EXPECT_EQ(to_string(Value{std::int32_t{42}}), "42");
  EXPECT_EQ(to_string(Value{std::string("hi")}), "'hi'");
}

TEST(Message, PropertiesRoundTrip) {
  Message msg;
  msg.set_property("id", std::int32_t{7});
  msg.set_property("name", std::string("g1"));
  EXPECT_EQ(std::get<std::int32_t>(msg.property("id")), 7);
  EXPECT_EQ(std::get<std::string>(msg.property("name")), "g1");
  EXPECT_TRUE(is_null(msg.property("missing")));
}

TEST(Message, HeaderPseudoProperties) {
  Message msg;
  msg.priority = 7;
  msg.timestamp = 1234;
  msg.message_id = "ID:x";
  msg.type = "reading";
  EXPECT_EQ(std::get<std::int32_t>(msg.property("JMSPriority")), 7);
  EXPECT_EQ(std::get<std::int64_t>(msg.property("JMSTimestamp")), 1234);
  EXPECT_EQ(std::get<std::string>(msg.property("JMSMessageID")), "ID:x");
  EXPECT_EQ(std::get<std::string>(msg.property("JMSType")), "reading");
  EXPECT_EQ(std::get<std::string>(msg.property("JMSDeliveryMode")),
            "NON_PERSISTENT");
  msg.delivery_mode = DeliveryMode::kPersistent;
  EXPECT_EQ(std::get<std::string>(msg.property("JMSDeliveryMode")),
            "PERSISTENT");
  // Unset string headers read as NULL.
  Message empty;
  EXPECT_TRUE(is_null(empty.property("JMSMessageID")));
  EXPECT_TRUE(is_null(empty.property("JMSCorrelationID")));
}

TEST(Message, MapBodyOperations) {
  Message msg = make_map_message("t", {{"a", Value{std::int32_t{1}}}});
  EXPECT_TRUE(msg.is_map());
  EXPECT_EQ(std::get<std::int32_t>(msg.map_get("a")), 1);
  msg.map_set("b", 2.0);
  EXPECT_DOUBLE_EQ(std::get<double>(msg.map_get("b")), 2.0);
  EXPECT_TRUE(is_null(msg.map_get("missing")));
}

TEST(Message, MapSetOnEmptyBodyCreatesMap) {
  Message msg;
  msg.map_set("k", std::string("v"));
  EXPECT_TRUE(msg.is_map());
}

TEST(Message, MapAccessOnTextBodyThrows) {
  Message msg = make_text_message("t", "hello");
  EXPECT_TRUE(msg.is_text());
  EXPECT_THROW(msg.map_set("k", Value{1.0}), std::logic_error);
  EXPECT_THROW(msg.map_get("k"), std::logic_error);
}

TEST(Message, WireSizeGrowsWithContent) {
  Message small = make_map_message("topic", {});
  Message big = small;
  for (int i = 0; i < 16; ++i) {
    big.map_set("field" + std::to_string(i), 1.0);
  }
  EXPECT_GT(big.wire_size(), small.wire_size());

  Message with_props = small;
  with_props.set_property("p", std::string("value"));
  EXPECT_GT(with_props.wire_size(), small.wire_size());

  Message bytes = small;
  bytes.body = BytesBody{10'000};
  EXPECT_GT(bytes.wire_size(), small.wire_size() + 9'000);
}

TEST(Message, PaperPayloadIsAFewHundredBytes) {
  // The 2 int + 5 float + 2 long + 3 double + 4 string MapMessage should be
  // in the hundreds of bytes once headers are included (the Triple test
  // scales it 3x).
  Message msg = make_map_message("powergrid/monitoring", {});
  msg.map_set("i1", std::int32_t{1});
  msg.map_set("i2", std::int32_t{2});
  for (int i = 0; i < 5; ++i) msg.map_set("f" + std::to_string(i), 1.0f);
  msg.map_set("l1", std::int64_t{1});
  msg.map_set("l2", std::int64_t{2});
  for (int i = 0; i < 3; ++i) msg.map_set("d" + std::to_string(i), 1.0);
  for (int i = 0; i < 4; ++i) {
    msg.map_set("s" + std::to_string(i), std::string("generator-value"));
  }
  EXPECT_GT(msg.wire_size(), 250);
  EXPECT_LT(msg.wire_size(), 800);
}

TEST(Message, SettingAnExistingNameOverwritesInPlace) {
  Message msg = make_map_message("t", {{"a", Value{std::int32_t{1}}}});
  msg.map_set("a", std::string("two"));
  msg.set_property("p", std::int32_t{1});
  msg.set_property("p", 2.5);
  const auto count = [](const Fields& fields) {
    return std::distance(fields.begin(), fields.end());
  };
  EXPECT_EQ(count(std::get<MapBody>(msg.body).entries), 1);
  EXPECT_EQ(std::get<std::string>(msg.map_get("a")), "two");
  EXPECT_EQ(count(msg.properties()), 1);
  EXPECT_DOUBLE_EQ(std::get<double>(msg.property("p")), 2.5);
  // A repeated name in a builder list keeps its last value.
  const Fields listed{{"k", Value{std::int32_t{1}}}, {"k", Value{true}}};
  ASSERT_EQ(count(listed), 1);
  EXPECT_TRUE(std::get<bool>(*listed.find("k")));
}

TEST(Message, MissingNamesReadNull) {
  Message msg = make_map_message("t", {{"b", Value{1.0}}});
  msg.set_property("b", std::int32_t{1});
  for (const char* name : {"a", "c", "", "bb"}) {
    EXPECT_TRUE(is_null(msg.map_get(name))) << name;
    EXPECT_TRUE(is_null(msg.property(name))) << name;
  }
  EXPECT_EQ(Fields{}.find("a"), nullptr);
}

TEST(Message, FieldsIterateInNameOrder) {
  Message msg;
  const std::vector<std::string> inserted = {"zeta", "alpha", "mid", "beta",
                                             "omega", "a", "zz"};
  for (const auto& name : inserted) {
    msg.map_set(name, std::int32_t{0});
    msg.set_property(name, std::int32_t{0});
  }
  std::vector<std::string> sorted = inserted;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::string> body_order;
  for (const auto& [name, value] : std::get<MapBody>(msg.body).entries) {
    body_order.push_back(name);
  }
  std::vector<std::string> property_order;
  for (const auto& [name, value] : msg.properties()) {
    property_order.push_back(name);
  }
  EXPECT_EQ(body_order, sorted);
  EXPECT_EQ(property_order, sorted);
}

TEST(Message, HeaderPseudoPropertiesShadowUserProperties) {
  Message msg;
  msg.priority = 7;
  msg.message_id = "ID:x";
  msg.set_property("JMSPriority", std::int32_t{1});
  msg.set_property("JMSMessageID", std::string("user"));
  msg.set_property("JMSDeliveryMode", std::string("user"));
  EXPECT_EQ(std::get<std::int32_t>(msg.property("JMSPriority")), 7);
  EXPECT_EQ(std::get<std::string>(msg.property("JMSMessageID")), "ID:x");
  EXPECT_EQ(std::get<std::string>(msg.property("JMSDeliveryMode")),
            "NON_PERSISTENT");
  // An unset header still reads NULL, not the user property of its name.
  msg.set_property("JMSType", std::string("user"));
  EXPECT_TRUE(is_null(msg.property("JMSType")));
}

TEST(Message, CopiesOfASealedMessageAreSizedAfresh) {
  const MessagePtr sealed =
      seal(make_map_message("t", {{"a", Value{std::int32_t{1}}}}));
  const std::int64_t sealed_size = sealed->wire_size();

  Message copy = *sealed;
  EXPECT_FALSE(copy.sealed());
  copy.map_set("b", std::string(100, 'x'));
  EXPECT_EQ(copy.wire_size(), sealed_size + 1 + 2 + 102);

  Message assigned;
  assigned = *sealed;
  EXPECT_FALSE(assigned.sealed());
  assigned.destination = "topic";  // a header write no setter sees
  EXPECT_EQ(assigned.wire_size(), sealed_size + 4);

  Message moved = std::move(assigned);
  moved.set_property("p", std::int32_t{1});
  EXPECT_EQ(moved.wire_size(), sealed_size + 4 + 1 + 2 + 4);
  EXPECT_EQ(sealed->wire_size(), sealed_size);
}

TEST(Destination, Helpers) {
  const Destination t = topic("a/b");
  EXPECT_EQ(t.kind, DestinationKind::kTopic);
  EXPECT_EQ(t.name, "a/b");
  const Destination q = queue("jobs");
  EXPECT_EQ(q.kind, DestinationKind::kQueue);
  EXPECT_NE(t, q);
  EXPECT_EQ(t, topic("a/b"));
}

}  // namespace
}  // namespace gridmon::jms
