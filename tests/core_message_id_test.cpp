// core::MessageId: the text form both clients stamp, its strict parser, and
// the span key obs derives from it without building the text.
#include "core/message_id.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "obs/recorder.hpp"

namespace gridmon::core {
namespace {

constexpr std::int32_t kMaxNode = std::numeric_limits<std::int32_t>::max();
constexpr std::int64_t kMaxSeq = std::numeric_limits<std::int64_t>::max();

std::vector<MessageId> edge_ids() {
  std::vector<MessageId> ids;
  for (std::int32_t node : {0, 1, 9, 10, 12, kMaxNode}) {
    for (std::uint16_t port : {0, 1, 9000, 10042, 65535}) {
      for (std::int64_t seq : {std::int64_t{0}, std::int64_t{1},
                               std::int64_t{10}, std::int64_t{99999},
                               kMaxSeq}) {
        ids.push_back(MessageId{node, port, seq});
      }
    }
  }
  return ids;
}

TEST(MessageId, TextMatchesTheStampedFormat) {
  EXPECT_EQ((MessageId{2, 9001, 1}.to_string()), "ID:2-9001-1");
  EXPECT_EQ((MessageId{0, 65535, 0}.to_string()), "ID:0-65535-0");
  EXPECT_EQ((MessageId{kMaxNode, 65535, kMaxSeq}.to_string()),
            "ID:2147483647-65535-9223372036854775807");
}

TEST(MessageId, KeyOfFoldsTheSameBytesAsTheText) {
  for (const MessageId& id : edge_ids()) {
    EXPECT_EQ(obs::key_of(id), obs::key_of(id.to_string())) << id.to_string();
  }
}

TEST(MessageId, ParseInvertsToString) {
  for (const MessageId& id : edge_ids()) {
    const auto parsed = MessageId::parse(id.to_string());
    ASSERT_TRUE(parsed.has_value()) << id.to_string();
    EXPECT_EQ(*parsed, id);
  }
}

TEST(MessageId, ParseRejectsHostileInput) {
  for (const char* text : {
           "",
           "ID:",
           "ID:1-2",
           "ID:1-2-",
           "ID:1-2-3x",
           "ID:1--2-3",
           "ID:+1-2-3",
           "ID:-1-2-3",
           "ID:1-2--3",
           " ID:1-2-3",
           "ID:1-2-3 ",
           "ID:1-2-3-4",
           "id:1-2-3",
           "XD:1-2-3",
           "hier-1-2",
           "ID:01-2-3",
           "ID:1-02-3",
           "ID:1-2-03",
           "ID:1-65536-3",
           "ID:2147483648-2-3",
           "ID:1-2-9223372036854775808",
           "ID:1-2-99999999999999999999999",
       }) {
    EXPECT_FALSE(MessageId::parse(text).has_value()) << '"' << text << '"';
  }
  // Embedded NUL: the view's length, not a terminator, bounds the parse.
  EXPECT_FALSE(MessageId::parse(std::string_view("ID:1-2-3\0", 9)));
}

TEST(MessageId, EqualIdsHashEqualAndNeighboursDiffer) {
  std::unordered_set<MessageId> seen;
  for (const MessageId& id : edge_ids()) seen.insert(id);
  EXPECT_EQ(seen.size(), edge_ids().size());
  EXPECT_TRUE(seen.contains(MessageId{12, 10042, 99999}));
  EXPECT_FALSE(seen.contains(MessageId{12, 10042, 2}));
}

}  // namespace
}  // namespace gridmon::core
