// Compiled-program equivalence, for both dialects: the program a JMS
// Selector or an R-GMA CompiledPredicate runs must return exactly what the
// reference tree interpreter returns for every (expr, operands) — three-
// valued logic, NULL propagation, type mismatches, division by zero,
// int64 wrap-around, unknown and out-of-range columns, missing properties,
// LIKE and ESCAPE edge cases — plus the fast INSERT parse path against the
// general parser. The randomized sweeps are seeded, so failures reproduce.
#include "rgma/sql_compile.hpp"

#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "expr/interpret.hpp"
#include "expr/parser.hpp"
#include "jms/selector.hpp"
#include "rgma/sql_parser.hpp"

namespace gridmon::rgma::sql {
namespace {

using expr::Between;
using expr::Binary;
using expr::BinaryOp;
using expr::Dialect;
using expr::Identifier;
using expr::InList;
using expr::IsNull;
using expr::Like;
using expr::Literal;
using expr::make_expr;
using expr::Program;
using expr::Unary;
using expr::UnaryOp;
using expr::Val;

TableDef test_table() {
  return TableDef("metrics", {
                                 {"id", ColumnType::kInteger, 0},
                                 {"seq", ColumnType::kInteger, 0},
                                 {"value", ColumnType::kDouble, 0},
                                 {"node", ColumnType::kVarchar, 32},
                                 {"label", ColumnType::kVarchar, 32},
                             });
}

constexpr const char* kStrings[] = {"", "abc", "a%b", "grid/feeder7",
                                    "zz",  "abd", "a"};
constexpr const char* kColumns[] = {"id",    "seq",    "value",
                                    "node",  "label",  "missing"};
constexpr const char* kPatterns[] = {"%",   "_",    "",    "%%",   "a%",
                                     "%b",  "a_c",  "__",  "%a%b%", "abc",
                                     "a%b", "_bc",  "ab%c", "a!%b", "!_bc",
                                     "ab!",  "!!"};
constexpr BinaryOp kBinaryOps[] = {
    BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul, BinaryOp::kDiv,
    BinaryOp::kEq,  BinaryOp::kNeq, BinaryOp::kLt,  BinaryOp::kLe,
    BinaryOp::kGt,  BinaryOp::kGe,  BinaryOp::kAnd, BinaryOp::kOr};

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

/// Small integers with zeros frequent, so division by zero → NULL gets
/// exercised, plus the int64 extremes and -1 so that wrap-around and
/// INT64_MIN / -1 do too.
std::int64_t random_int(std::mt19937_64& rng) {
  switch (rng() % 8) {
    case 0:
      return kMin;
    case 1:
      return kMax;
    case 2:
      return -1;
    default:
      return static_cast<std::int64_t>(rng() % 19) - 9;
  }
}

double random_double(std::mt19937_64& rng) {
  return (static_cast<double>(rng() % 19) - 9.0) / 2.0;
}

SqlValue random_value(std::mt19937_64& rng) {
  switch (rng() % 6) {
    case 0:
      return SqlNull{};
    case 1:
    case 2:
      return random_int(rng);
    case 3:
      return random_double(rng);
    default:
      return std::string(kStrings[rng() % std::size(kStrings)]);
  }
}

/// Generates expressions the dialect's parser could produce: JMS adds
/// unary +, boolean literals, ESCAPE and string-only IN lists.
class ExprGen {
 public:
  ExprGen(const Dialect& dialect, std::uint64_t seed)
      : dialect_(dialect), rng_(seed) {}

  std::mt19937_64& rng() { return rng_; }

  expr::ExprPtr expr(int depth) {
    const auto pick = depth <= 0 ? rng_() % 2 : rng_() % 9;
    switch (pick) {
      case 0:
        return make_expr(literal());
      case 1:
        return make_expr(Identifier{kColumns[rng_() % std::size(kColumns)]});
      case 2:
        return make_expr(Unary{unary_op(), expr(depth - 1)});
      case 3:
        return make_expr(Binary{kBinaryOps[rng_() % std::size(kBinaryOps)],
                                expr(depth - 1), expr(depth - 1)});
      case 4:
        return make_expr(Between{rng_() % 2 == 0, expr(depth - 1),
                                 expr(depth - 1), expr(depth - 1)});
      case 5: {
        std::vector<Literal> options;
        const auto count = rng_() % 4;
        for (std::uint64_t i = 0; i < count; ++i) {
          options.push_back(dialect_.in_strings_only ? string_literal()
                                                     : literal());
        }
        return make_expr(
            InList{rng_() % 2 == 0, expr(depth - 1), std::move(options)});
      }
      case 6: {
        const char escape =
            dialect_.like_escape && rng_() % 2 == 0 ? '!' : '\0';
        return make_expr(Like{rng_() % 2 == 0, expr(depth - 1),
                              kPatterns[rng_() % std::size(kPatterns)],
                              escape});
      }
      case 7:
        return make_expr(IsNull{rng_() % 2 == 0, expr(depth - 1)});
      default:
        return fusable();
    }
  }

 private:
  /// `identifier OP literal` and `identifier [NOT] BETWEEN literal AND
  /// literal`: the shapes the peephole pass fuses into one op.
  expr::ExprPtr fusable() {
    const auto column = [&] {
      return make_expr(Identifier{kColumns[rng_() % std::size(kColumns)]});
    };
    if (rng_() % 2 == 0) {
      return make_expr(Between{rng_() % 2 == 0, column(),
                               make_expr(literal()), make_expr(literal())});
    }
    const BinaryOp comparison = kBinaryOps[4 + rng_() % 6];  // kEq..kGe
    return make_expr(Binary{comparison, column(), make_expr(literal())});
  }

  UnaryOp unary_op() {
    switch (rng_() % (dialect_.unary_plus ? 3 : 2)) {
      case 0:
        return UnaryOp::kNeg;
      case 1:
        return UnaryOp::kNot;
      default:
        return UnaryOp::kPos;
    }
  }

  Literal string_literal() {
    return Literal::string(kStrings[rng_() % std::size(kStrings)]);
  }

  Literal literal() {
    switch (rng_() % 7) {
      case 0:
        return Literal{};
      case 1:
      case 2:
        return Literal{Val::integer(random_int(rng_)), {}};
      case 3:
        return Literal{Val::real(random_double(rng_)), {}};
      case 4:
        if (dialect_.bool_literals) {
          return Literal{Val::boolean(rng_() % 2 == 0), {}};
        }
        return Literal{};
      default:
        return string_literal();
    }
  }

  const Dialect& dialect_;
  std::mt19937_64 rng_;
};

/// Rows vary in length (shorter and longer than the schema) so resolved
/// column indices get bounds-checked, and cells ignore column types so
/// type-mismatch comparisons are common.
std::vector<SqlValue> random_row(std::mt19937_64& rng) {
  std::vector<SqlValue> row;
  const auto len = rng() % 7;
  for (std::uint64_t i = 0; i < len; ++i) row.push_back(random_value(rng));
  return row;
}

/// Every JMS property type (bool, int32, int64, float, double, string),
/// with properties randomly missing.
jms::Message random_message(std::mt19937_64& rng) {
  jms::Message msg;
  for (const char* name : kColumns) {
    switch (rng() % 8) {
      case 0:
        break;  // missing
      case 1:
        msg.set_property(name, rng() % 2 == 0);
        break;
      case 2:
        msg.set_property(name, static_cast<std::int32_t>(rng() % 19) - 9);
        break;
      case 3:
        msg.set_property(name, random_int(rng));
        break;
      case 4:
        msg.set_property(name, static_cast<float>(random_double(rng)));
        break;
      case 5:
        msg.set_property(name, random_double(rng));
        break;
      default:
        msg.set_property(name,
                         std::string(kStrings[rng() % std::size(kStrings)]));
        break;
    }
  }
  return msg;
}

TEST(SqlCompile, RandomizedEquivalenceWithInterpreter) {
  const TableDef table = test_table();
  ExprGen gen(Dialect::kSql, 20260808ULL);
  int outcomes[3] = {0, 0, 0};
  for (int i = 0; i < 1000; ++i) {
    const ExprPtr expr = gen.expr(4);
    const CompiledPredicate compiled = CompiledPredicate::compile(expr, table);
    for (int r = 0; r < 8; ++r) {
      const std::vector<SqlValue> row = random_row(gen.rng());
      const Tri expected = evaluate_predicate(*expr, table, row);
      ASSERT_EQ(compiled.evaluate(row), expected)
          << "expr #" << i << " row #" << r;
      ASSERT_EQ(compiled.selects(row), predicate_selects(expr, table, row));
      ++outcomes[static_cast<int>(expected)];
    }
  }
  // The generator must exercise all three truth values, or the sweep
  // proves less than it claims.
  EXPECT_GT(outcomes[static_cast<int>(Tri::kFalse)], 0);
  EXPECT_GT(outcomes[static_cast<int>(Tri::kTrue)], 0);
  EXPECT_GT(outcomes[static_cast<int>(Tri::kUnknown)], 0);
}

TEST(JmsCompile, RandomizedEquivalenceWithInterpreter) {
  ExprGen gen(Dialect::kJms, 20261017ULL);
  int outcomes[3] = {0, 0, 0};
  for (int i = 0; i < 1000; ++i) {
    const ExprPtr expr = gen.expr(4);
    const Program program = Program::compile(*expr, Dialect::kJms, {});
    for (int m = 0; m < 8; ++m) {
      const jms::Message msg = random_message(gen.rng());
      const Tri expected = expr::interpret(
          *expr, Dialect::kJms, [&](const std::string& name) {
            return jms::selector_operand(msg, name);
          });
      const Tri run = program.run<Dialect::kJms>([&](std::uint32_t operand) {
        return jms::selector_operand(msg, program.name(operand));
      });
      ASSERT_EQ(run, expected) << "expr #" << i << " message #" << m;
      ++outcomes[static_cast<int>(expected)];
    }
  }
  EXPECT_GT(outcomes[static_cast<int>(Tri::kFalse)], 0);
  EXPECT_GT(outcomes[static_cast<int>(Tri::kTrue)], 0);
  EXPECT_GT(outcomes[static_cast<int>(Tri::kUnknown)], 0);
}

TEST(JmsCompile, ParsedSelectorsMatchInterpreter) {
  const char* kSelectors[] = {
      "id < 10000",
      "id BETWEEN 2 AND 8 AND NOT (node LIKE 'a!%%' ESCAPE '!')",
      "label IN ('abc', 'zz') OR value / 0 > 1",  // IEEE: +inf or NaN
      "+seq = seq AND -id <> id",
      "node < 'b'",     // string ordering is UNKNOWN in JMS
      "missing IS NULL",
      "TRUE AND value >= 1.5",
  };
  std::mt19937_64 rng(7);
  for (const char* text : kSelectors) {
    const ExprPtr expr =
        expr::Parser(text, Dialect::kJms).parse_condition();
    const jms::Selector selector = jms::Selector::parse(text);
    for (int m = 0; m < 16; ++m) {
      const jms::Message msg = random_message(rng);
      const Tri expected = expr::interpret(
          *expr, Dialect::kJms, [&](const std::string& name) {
            return jms::selector_operand(msg, name);
          });
      ASSERT_EQ(selector.evaluate(msg), expected) << text;
    }
  }
}

TEST(SqlCompile, EmptyProgramSelectsEverything) {
  const CompiledPredicate compiled =
      CompiledPredicate::compile(nullptr, test_table());
  EXPECT_TRUE(compiled.empty());
  EXPECT_TRUE(compiled.selects({}));
  EXPECT_TRUE(compiled.selects({SqlValue{std::int64_t{1}}}));
}

TEST(SqlCompile, ParsedPredicatesMatchInterpreter) {
  const TableDef table = test_table();
  const char* kPredicates[] = {
      "id = 3 AND value > 1.5",
      "node LIKE 'grid/%' OR label IN ('abc', 'zz', NULL)",
      "seq BETWEEN 2 AND 8",
      "seq NOT BETWEEN 2 AND 8",
      "value / 0 = 1",                // division by zero → NULL → UNKNOWN
      "missing = 1",                  // unknown column → NULL
      "id + seq * 2 - 1 >= 4",
      "NOT (id = 1 OR id = 2)",
      "label IS NULL",
      "label IS NOT NULL",
      "node = 7",                     // type mismatch → UNKNOWN
      "3 < 4",                        // constant-folds to TRUE
      "NULL = NULL",                  // folds to UNKNOWN
      "(-9223372036854775807 - 1) / -1 = 0",  // folds without trapping
      "id * 9223372036854775807 < 0",
  };
  const std::vector<std::vector<SqlValue>> rows = {
      {std::int64_t{3}, std::int64_t{5}, 2.0, std::string("grid/feeder7"),
       std::string("abc")},
      {std::int64_t{1}, std::int64_t{2}, 1.0, std::string("zz"), SqlNull{}},
      {SqlNull{}, std::int64_t{9}, SqlNull{}, std::string("abc"),
       std::string("zz")},
      {std::int64_t{2}, std::int64_t{8}, -4.5, std::int64_t{7}, 1.5},
      {kMin, std::int64_t{-1}, 0.0},
      {},
  };
  for (const char* text : kPredicates) {
    const ExprPtr expr = parse_predicate(text);
    const CompiledPredicate compiled = CompiledPredicate::compile(expr, table);
    EXPECT_GT(compiled.footprint_bytes(), 0);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      ASSERT_EQ(compiled.evaluate(rows[r]),
                evaluate_predicate(*expr, table, rows[r]))
          << text << " row #" << r;
    }
  }
}

TEST(SqlCompile, LikeEdgeCasesMatchSqlLike) {
  const TableDef table = test_table();
  for (const char* pattern : kPatterns) {
    const ExprPtr expr =
        make_expr(Like{false, make_expr(Identifier{"node"}), pattern});
    const CompiledPredicate compiled = CompiledPredicate::compile(expr, table);
    for (const char* text : kStrings) {
      std::vector<SqlValue> row = {SqlNull{}, SqlNull{}, SqlNull{},
                                   std::string(text)};
      const Tri expected = sql_like(text, pattern) ? Tri::kTrue : Tri::kFalse;
      ASSERT_EQ(compiled.evaluate(row), expected)
          << "'" << text << "' LIKE '" << pattern << "'";
    }
    // Non-string and NULL operands are NULL → UNKNOWN, never a match.
    EXPECT_EQ(compiled.evaluate({SqlNull{}, SqlNull{}, SqlNull{},
                                 std::int64_t{3}}),
              Tri::kUnknown);
    EXPECT_EQ(compiled.evaluate({}), Tri::kUnknown);
  }
}

TEST(SqlParserFastPath, CanonicalInsertMatchesGeneralParser) {
  const char* kStatements[] = {
      "INSERT INTO metrics VALUES (1, 2.5, 'a''b', NULL, -7)",
      "insert into metrics values(1)",
      "INSERT INTO metrics VALUES ( -3.25e2 , 'x' )",
      "INSERT INTO m VALUES ('')",
      "INSERT INTO metrics (id, seq) VALUES (1, 2)",  // column-list fallback
  };
  for (const char* text : kStatements) {
    const Statement statement = parse_statement(text);
    const auto* insert = std::get_if<Insert>(&statement);
    ASSERT_NE(insert, nullptr) << text;
    // Cross-check against the token-vector parser, forced by re-rendering
    // (render_insert never emits the fast path's fallback shapes).
    const Statement rendered =
        parse_statement(render_insert(insert->table, insert->values));
    const auto* again = std::get_if<Insert>(&rendered);
    ASSERT_NE(again, nullptr) << text;
    EXPECT_EQ(insert->table, again->table) << text;
    EXPECT_EQ(insert->values, again->values) << text;
  }
}

TEST(SqlParserFastPath, MalformedInsertsStillThrow) {
  EXPECT_THROW(parse_statement("INSERT INTO metrics VALUES (1,)"),
               SqlParseError);
  EXPECT_THROW(parse_statement("INSERT INTO metrics VALUES (1"),
               SqlParseError);
  EXPECT_THROW(parse_statement("INSERT INTO select VALUES (1)"),
               SqlParseError);  // keyword-colliding table name
  EXPECT_THROW(parse_statement("INSERT INTO metrics VALUES (1) garbage"),
               SqlParseError);
  EXPECT_THROW(
      parse_statement("INSERT INTO metrics VALUES (9223372036854775808)"),
      SqlParseError);  // int64 out of range, reported by the general parser
  EXPECT_THROW(parse_statement("INSERT INTO metrics VALUES (1e999)"),
               SqlParseError);  // double out of range, likewise
}

TEST(SqlParserFastPath, RenderInsertRoundTripsDoubles) {
  const std::vector<SqlValue> values = {0.1, -2.5, 1e300, 3.0,
                                        std::int64_t{7}};
  const Statement statement =
      parse_statement(render_insert("metrics", values));
  const auto* insert = std::get_if<Insert>(&statement);
  ASSERT_NE(insert, nullptr);
  EXPECT_EQ(insert->values, values);
}

}  // namespace
}  // namespace gridmon::rgma::sql
