// Dialect pin: a seeded generator writes a few thousand expression strings
// over the union of the JMS selector and R-GMA WHERE grammars — including
// every token one dialect accepts and the other rejects, plus malformed
// input — and runs each through both front ends. The parse outcome (error
// offset or OK) and every three-valued result fold into one FNV-1a hash per
// dialect, so any change to either dialect's observable behaviour moves a
// hash.
//
// Integers stay small and float exponents stay in range, so no generated
// string reaches int64 overflow or an out-of-range literal.
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "jms/selector.hpp"
#include "rgma/sql_compile.hpp"
#include "rgma/sql_parser.hpp"

namespace gridmon {
namespace {

constexpr const char* kIdents[] = {
    "a",      "b",     "l",       "f",           "d",
    "s",      "t",     "flag",    "off",         "missing",
    "$x",     "a.b",   "x1",      "_u",          "ID",
    "select", "from",  "where",   "int",         "table",
    "escape", "JMSPriority", "JMSTimestamp", "JMSMessageID", "JMSType",
    "JMSDeliveryMode", "JMSCorrelationID"};
constexpr const char* kInts[] = {"0", "1", "2", "3", "4", "7", "9", "12",
                                 "40"};
constexpr const char* kDoubles[] = {"1.5", "0.0", ".5",  "2.",
                                    "2e1", "1.5E-1", "3.25", "0.5e1"};
constexpr const char* kStrings[] = {"'abc'",  "'a%c'", "''",   "'it''s'",
                                    "'x'",    "'abd'", "'zz'", "'100%_done'",
                                    "'PERSISTENT'", "'grid'", "'3'"};
constexpr const char* kKeywordLiterals[] = {"TRUE", "FALSE", "NULL", "true",
                                            "null"};
constexpr const char* kPatterns[] = {"'%'",   "'a%'",   "'_b%'", "'%c'",
                                     "'100!%!_done'", "'a!_c'", "'%!'",
                                     "''",    "'abc'",  "'__'"};
constexpr const char* kEscapes[] = {"'!'", "'!'", "'toolong'", "''", "'%'"};
constexpr const char* kCmpOps[] = {"=", "<>", "<", "<=", ">", ">="};
constexpr char kMutationChars[] = "()',=<>!#@$.%_+-*/ aN0";

class Generator {
 public:
  explicit Generator(std::uint64_t seed) : rng_(seed) {}

  std::string next() {
    std::string text = cond(3);
    if (pick(4) == 0) mutate(text);
    return text;
  }

 private:
  std::uint64_t pick(std::uint64_t n) { return rng_() % n; }
  template <std::size_t N>
  const char* any(const char* const (&pool)[N]) {
    return pool[pick(N)];
  }

  std::string cond(int depth) {
    if (depth <= 0) return pred(0);
    switch (pick(7)) {
      case 0:
        return cond(depth - 1) + " AND " + cond(depth - 1);
      case 1:
        return cond(depth - 1) + " OR " + cond(depth - 1);
      case 2:
        return "NOT " + cond(depth - 1);
      case 3:
        return "(" + cond(depth - 1) + ")";
      default:
        return pred(depth - 1);
    }
  }

  std::string pred(int depth) {
    const std::string lhs = arith(depth);
    const std::string neg = pick(3) == 0 ? "NOT " : "";
    switch (pick(8)) {
      case 0:
      case 1:
        return lhs + " " + any(kCmpOps) + " " + arith(depth);
      case 2:
        return lhs + " " + neg + "BETWEEN " + arith(depth) + " AND " +
               arith(depth);
      case 3: {
        std::string list = lhs + " " + neg + "IN (";
        const auto count = 1 + pick(3);
        for (std::uint64_t i = 0; i < count; ++i) {
          if (i) list += ", ";
          list += in_element();
        }
        return list + ")";
      }
      case 4: {
        std::string like = lhs + " " + neg + "LIKE " + any(kPatterns);
        if (pick(3) == 0) like += std::string(" ESCAPE ") + any(kEscapes);
        return like;
      }
      case 5:
        return lhs + " IS " + (pick(2) == 0 ? "NOT " : "") + "NULL";
      default:
        return lhs;
    }
  }

  std::string in_element() {
    switch (pick(6)) {
      case 0:
      case 1:
        return any(kStrings);
      case 2:
        return any(kInts);
      case 3:
        return std::string("-") + any(kInts);
      case 4:
        return any(kDoubles);
      default:
        return any(kKeywordLiterals);
    }
  }

  /// Sums of terms; a product or quotient only ever joins two simple
  /// factors, which bounds every intermediate value far below int64.
  std::string arith(int depth) {
    std::string out = term(depth);
    const std::uint64_t extra = pick(3) == 0 ? 1 : 0;
    for (std::uint64_t i = 0; i < extra; ++i) {
      out += pick(2) == 0 ? " + " : " - ";
      out += term(depth);
    }
    return out;
  }

  std::string term(int depth) {
    if (pick(4) == 0) {
      return simple() + (pick(2) == 0 ? " * " : " / ") + simple();
    }
    return factor(depth);
  }

  std::string simple() {
    switch (pick(4)) {
      case 0:
        return any(kIdents);
      case 1:
        return any(kDoubles);
      case 2:
        return std::string(pick(2) == 0 ? "-" : "") + any(kInts);
      default:
        return "0";
    }
  }

  std::string factor(int depth) {
    switch (pick(10)) {
      case 0:
        return "-" + factor(depth);
      case 1:
        return "+" + factor(depth);
      case 2:
        return depth > 0 ? "(" + cond(depth - 1) + ")" : primary();
      default:
        return primary();
    }
  }

  std::string primary() {
    switch (pick(9)) {
      case 0:
      case 1:
      case 2:
        return any(kIdents);
      case 3:
        return any(kInts);
      case 4:
        return any(kDoubles);
      case 5:
      case 6:
        return any(kStrings);
      default:
        return any(kKeywordLiterals);
    }
  }

  void mutate(std::string& text) {
    if (text.empty()) return;
    const std::size_t at = pick(text.size());
    switch (pick(4)) {
      case 0:
        text.erase(at, 1);
        break;
      case 1:
        text.insert(at, 1, kMutationChars[pick(sizeof(kMutationChars) - 1)]);
        break;
      case 2:
        text.resize(at);
        break;
      default:
        if (at + 1 < text.size()) std::swap(text[at], text[at + 1]);
        break;
    }
  }

  std::mt19937_64 rng_;
};

class Fnv {
 public:
  void byte(std::uint8_t b) {
    hash_ ^= b;
    hash_ *= 1099511628211ULL;
  }
  void word(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(w >> (8 * i)));
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

std::vector<jms::Message> fixed_messages() {
  std::vector<jms::Message> out(4);
  jms::Message& full = out[0];
  full.set_property("a", std::int32_t{3});
  full.set_property("b", std::int32_t{-2});
  full.set_property("l", std::int64_t{40});
  full.set_property("f", 1.5f);
  full.set_property("d", 2.5);
  full.set_property("s", std::string("abc"));
  full.set_property("t", std::string("100%_done"));
  full.set_property("flag", true);
  full.set_property("off", false);
  full.set_property("$x", std::int32_t{5});
  full.set_property("a.b", std::string("zz"));
  full.set_property("select", std::int32_t{1});
  full.set_property("escape", std::int32_t{2});
  full.set_property("int", 0.0);
  full.message_id = "ID:1";
  full.type = "grid";
  full.timestamp = 77;
  full.priority = 7;
  full.delivery_mode = jms::DeliveryMode::kPersistent;
  // out[1] stays empty: every property missing, headers at defaults.
  jms::Message& swapped = out[2];  // same names, other types
  swapped.set_property("a", std::string("3"));
  swapped.set_property("s", std::int64_t{9});
  swapped.set_property("flag", std::int32_t{1});
  swapped.set_property("f", -0.0);
  swapped.set_property("d", 2.0f);
  swapped.set_property("b", true);
  swapped.correlation_id = "c-1";
  jms::Message& zeros = out[3];
  zeros.set_property("a", std::int32_t{0});
  zeros.set_property("b", std::int64_t{0});
  zeros.set_property("d", 0.0);
  zeros.set_property("s", std::string(""));
  zeros.set_property("flag", false);
  zeros.set_property("off", true);
  return out;
}

rgma::TableDef fixed_table() {
  using rgma::ColumnType;
  return rgma::TableDef("t", {{"a", ColumnType::kInteger, 0},
                              {"b", ColumnType::kInteger, 0},
                              {"l", ColumnType::kInteger, 0},
                              {"f", ColumnType::kDouble, 0},
                              {"d", ColumnType::kDouble, 0},
                              {"s", ColumnType::kVarchar, 16},
                              {"t", ColumnType::kVarchar, 16},
                              {"flag", ColumnType::kInteger, 0},
                              {"off", ColumnType::kInteger, 0},
                              {"JMSPriority", ColumnType::kInteger, 0},
                              {"JMSType", ColumnType::kVarchar, 8}});
}

std::vector<std::vector<rgma::SqlValue>> fixed_rows() {
  using rgma::SqlNull;
  using rgma::SqlValue;
  using S = std::string;
  return {
      {std::int64_t{3}, std::int64_t{-2}, std::int64_t{40}, 1.5, 2.5, S("abc"),
       S("100%_done"), std::int64_t{1}, std::int64_t{0}, std::int64_t{4},
       S("grid")},
      {},
      {std::int64_t{0}, SqlNull{}, std::int64_t{7}},
      {S("3"), 1.5, SqlNull{}, std::int64_t{7}, S("x"), std::int64_t{9}, 2.0,
       std::int64_t{2}, S("y"), SqlNull{}, std::int64_t{3}},
      std::vector<SqlValue>(11, SqlValue{SqlNull{}}),
  };
}

struct Tally {
  int ok = 0;
  int errors = 0;
  int tri[3] = {0, 0, 0};
};

constexpr int kSweep = 4000;

TEST(ExprDialects, GeneratedStringsPinBothDialects) {
  const std::vector<jms::Message> messages = fixed_messages();
  const rgma::TableDef table = fixed_table();
  const std::vector<std::vector<rgma::SqlValue>> rows = fixed_rows();

  Generator gen(20261017ULL);
  Fnv jms_hash;
  Fnv sql_hash;
  Tally jms_tally;
  Tally sql_tally;
  for (int i = 0; i < kSweep; ++i) {
    const std::string text = gen.next();

    try {
      const jms::Selector selector = jms::Selector::parse(text);
      jms_hash.byte('K');
      ++jms_tally.ok;
      for (const jms::Message& message : messages) {
        const jms::Tri t = selector.evaluate(message);
        jms_hash.byte(static_cast<std::uint8_t>(t));
        ++jms_tally.tri[static_cast<int>(t)];
      }
    } catch (const jms::SelectorParseError& e) {
      jms_hash.byte('E');
      jms_hash.word(e.position());
      ++jms_tally.errors;
    }

    try {
      const rgma::sql::ExprPtr expr = rgma::sql::parse_predicate(text);
      sql_hash.byte('K');
      ++sql_tally.ok;
      const auto compiled = rgma::sql::CompiledPredicate::compile(expr, table);
      for (const auto& row : rows) {
        const rgma::sql::Tri interpreted =
            rgma::sql::evaluate_predicate(*expr, table, row);
        const rgma::sql::Tri run = compiled.evaluate(row);
        EXPECT_EQ(run, interpreted) << text;
        sql_hash.byte(static_cast<std::uint8_t>(interpreted));
        sql_hash.byte(static_cast<std::uint8_t>(run));
        ++sql_tally.tri[static_cast<int>(interpreted)];
      }
    } catch (const rgma::sql::SqlParseError& e) {
      sql_hash.byte('E');
      sql_hash.word(e.position());
      ++sql_tally.errors;
    }
  }

  // The sweep must exercise both outcomes and all three truth values in
  // each dialect, or the hashes pin less than they claim.
  for (const Tally* tally : {&jms_tally, &sql_tally}) {
    EXPECT_GT(tally->ok, kSweep / 5);
    EXPECT_GT(tally->errors, kSweep / 10);
    for (int t : tally->tri) EXPECT_GT(t, 100);
  }
  EXPECT_EQ(jms_hash.value(), 0x66e04215cda23852ULL) << std::hex << jms_hash.value();
  EXPECT_EQ(sql_hash.value(), 0x2b25b1ee5bd3c88aULL) << std::hex << sql_hash.value();
}

}  // namespace
}  // namespace gridmon
