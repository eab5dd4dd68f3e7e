#include "rgma/sql_parser.hpp"

#include <cctype>
#include <optional>

#include "expr/parser.hpp"

namespace gridmon::rgma::sql {
namespace {

using expr::Dialect;
using expr::TokenKind;

SqlValue to_sql(const expr::Literal& literal) {
  switch (literal.value.kind) {
    case expr::Val::Kind::kInt:
      return literal.value.i;
    case expr::Val::Kind::kDouble:
      return literal.value.d;
    case expr::Val::Kind::kStr:
      return literal.text;
    default:
      return SqlNull{};
  }
}

/// Statements around the shared expression parser, which supplies the
/// token cursor, literals and WHERE conditions.
class StatementParser : public expr::Parser {
 public:
  explicit StatementParser(std::string_view source)
      : expr::Parser(source, Dialect::kSql) {}

  Statement statement() {
    if (accept_reserved("CREATE")) return create_table();
    if (accept_reserved("INSERT")) return insert();
    if (accept_reserved("SELECT")) return select();
    fail("expected CREATE, INSERT or SELECT");
  }

 private:
  void expect_reserved(std::string_view word, const char* what) {
    if (!accept_reserved(word)) fail(std::string("expected ") + what);
  }

  std::string expect_ident(const char* what) {
    if (!check(TokenKind::kIdentifier)) fail(std::string("expected ") + what);
    return advance().text;
  }

  Statement create_table() {
    expect_reserved("TABLE", "TABLE after CREATE");
    std::string name = expect_ident("table name");
    expect(TokenKind::kLParen, "'(' after table name");
    std::vector<Column> columns;
    do {
      Column col;
      col.name = expect_ident("column name");
      col.type = column_type(col.width);
      columns.push_back(std::move(col));
    } while (accept(TokenKind::kComma));
    expect(TokenKind::kRParen, "')' after column list");
    expect(TokenKind::kEnd, "end of statement");
    return CreateTable{TableDef(std::move(name), std::move(columns))};
  }

  ColumnType column_type(int& width) {
    width = 0;
    if (accept_reserved("INTEGER") || accept_reserved("INT")) {
      return ColumnType::kInteger;
    }
    if (accept_reserved("REAL")) return ColumnType::kReal;
    if (accept_reserved("DOUBLE")) {
      accept_reserved("PRECISION");
      return ColumnType::kDouble;
    }
    if (accept_reserved("TIMESTAMP")) return ColumnType::kTimestamp;
    const bool is_char = accept_reserved("CHAR");
    if (is_char || accept_reserved("VARCHAR")) {
      if (accept(TokenKind::kLParen)) {
        if (!check(TokenKind::kInt)) fail("expected width");
        width = static_cast<int>(advance().int_value);
        expect(TokenKind::kRParen, "')' after width");
      }
      return is_char ? ColumnType::kChar : ColumnType::kVarchar;
    }
    fail("expected column type");
  }

  Statement insert() {
    expect_reserved("INTO", "INTO after INSERT");
    Insert stmt;
    stmt.table = expect_ident("table name");
    if (accept(TokenKind::kLParen)) {
      do {
        stmt.columns.push_back(expect_ident("column name"));
      } while (accept(TokenKind::kComma));
      expect(TokenKind::kRParen, "')' after column list");
    }
    expect_reserved("VALUES", "VALUES");
    expect(TokenKind::kLParen, "'(' after VALUES");
    do {
      stmt.values.push_back(to_sql(literal()));
    } while (accept(TokenKind::kComma));
    expect(TokenKind::kRParen, "')' after value list");
    expect(TokenKind::kEnd, "end of statement");
    return stmt;
  }

  Statement select() {
    Select stmt;
    if (!accept(TokenKind::kStar)) {
      do {
        stmt.columns.push_back(expect_ident("column name"));
      } while (accept(TokenKind::kComma));
    }
    expect_reserved("FROM", "FROM");
    stmt.table = expect_ident("table name");
    if (accept_reserved("WHERE")) stmt.where = condition();
    expect(TokenKind::kEnd, "end of statement");
    return stmt;
  }
};

/// Fast path for the canonical statement shape render_insert produces:
/// `INSERT INTO <table> VALUES (<literal>, ...)`. Every monitoring tuple
/// arrives in this shape, so it is the dominant parse on the producer hot
/// path; a single left-to-right scan with the shared literal scanners
/// avoids materializing the token vector. Any deviation — column lists,
/// keyword-colliding table names, malformed input, out-of-range numbers —
/// returns nullopt and the caller falls back to the general parser, whose
/// error reporting stays authoritative.
std::optional<Insert> fast_parse_insert(std::string_view src) {
  std::size_t i = 0;
  const std::size_t n = src.size();
  auto skip_ws = [&] {
    while (i < n && std::isspace(static_cast<unsigned char>(src[i]))) ++i;
  };
  auto is_word_char = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  // Case-insensitive full-word keyword match (`kw` must be upper-case).
  auto word = [&](std::string_view kw) {
    skip_ws();
    if (n - i < kw.size()) return false;
    for (std::size_t k = 0; k < kw.size(); ++k) {
      if (std::toupper(static_cast<unsigned char>(src[i + k])) != kw[k]) {
        return false;
      }
    }
    if (i + kw.size() < n && is_word_char(src[i + kw.size()])) return false;
    i += kw.size();
    return true;
  };

  if (!word("INSERT") || !word("INTO")) return std::nullopt;
  skip_ws();
  if (i >= n || !(std::isalpha(static_cast<unsigned char>(src[i])) ||
                  src[i] == '_')) {
    return std::nullopt;
  }
  const std::size_t table_start = i;
  while (i < n && is_word_char(src[i])) ++i;
  std::string table(src.substr(table_start, i - table_start));
  if (expr::is_keyword(table, Dialect::kSql)) return std::nullopt;
  if (!word("VALUES")) return std::nullopt;
  skip_ws();
  if (i >= n || src[i] != '(') return std::nullopt;
  ++i;

  Insert stmt;
  stmt.table = std::move(table);
  for (;;) {
    skip_ws();
    bool negate = false;
    if (i < n && src[i] == '-') {
      negate = true;
      ++i;
      skip_ws();
    }
    if (i >= n) return std::nullopt;
    const char c = src[i];
    if (c == '\'') {
      if (negate) return std::nullopt;
      std::optional<std::string> text = expr::scan_string(src, i, i);
      if (!text) return std::nullopt;
      stmt.values.emplace_back(std::move(*text));
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      const expr::Number num = expr::scan_number(src, i);
      if (!num.in_range) return std::nullopt;
      if (num.is_double) {
        stmt.values.emplace_back(negate ? -num.double_value
                                        : num.double_value);
      } else {
        stmt.values.emplace_back(negate ? -num.int_value : num.int_value);
      }
      i = num.end;
    } else if (word("NULL")) {
      if (negate) return std::nullopt;
      stmt.values.emplace_back(SqlNull{});
    } else {
      return std::nullopt;
    }
    skip_ws();
    if (i < n && src[i] == ',') {
      ++i;
      continue;
    }
    break;
  }
  if (i >= n || src[i] != ')') return std::nullopt;
  ++i;
  skip_ws();
  if (i != n) return std::nullopt;
  return stmt;
}

}  // namespace

Statement parse_statement(std::string_view source) {
  if (auto insert = fast_parse_insert(source)) return std::move(*insert);
  return StatementParser(source).statement();
}

ExprPtr parse_predicate(std::string_view source) {
  return expr::Parser(source, Dialect::kSql).parse_condition();
}

std::string render_insert(const std::string& table,
                          const std::vector<SqlValue>& values) {
  std::string out = "INSERT INTO " + table + " VALUES (";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ", ";
    out += sql_to_string(values[i]);
  }
  out += ")";
  return out;
}

}  // namespace gridmon::rgma::sql
