#include "expr/lexer.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace gridmon::expr {
namespace {

struct Keyword {
  std::string_view text;
  TokenKind kind;
};

constexpr Keyword kExpressionKeywords[] = {
    {"AND", TokenKind::kAnd},   {"OR", TokenKind::kOr},
    {"NOT", TokenKind::kNot},   {"BETWEEN", TokenKind::kBetween},
    {"IN", TokenKind::kIn},     {"LIKE", TokenKind::kLike},
    {"IS", TokenKind::kIs},     {"NULL", TokenKind::kNull},
    {"TRUE", TokenKind::kTrue}, {"FALSE", TokenKind::kFalse},
};

/// Reserved when the dialect has statements around its expressions.
constexpr std::string_view kStatementKeywords[] = {
    "CREATE",  "TABLE", "INSERT", "INTO",      "VALUES", "SELECT",
    "FROM",    "WHERE", "INTEGER", "INT",      "REAL",   "DOUBLE",
    "PRECISION", "CHAR", "VARCHAR", "TIMESTAMP",
};

/// Two-character operators come first so they win over their prefixes.
constexpr Keyword kOperators[] = {
    {"<>", TokenKind::kNeq},   {"<=", TokenKind::kLe},
    {">=", TokenKind::kGe},    {"=", TokenKind::kEq},
    {"<", TokenKind::kLt},     {">", TokenKind::kGt},
    {"+", TokenKind::kPlus},   {"-", TokenKind::kMinus},
    {"*", TokenKind::kStar},   {"/", TokenKind::kSlash},
    {"(", TokenKind::kLParen}, {")", TokenKind::kRParen},
    {",", TokenKind::kComma},
};

bool equals_upper(std::string_view word, std::string_view upper) {
  if (word.size() != upper.size()) return false;
  for (std::size_t k = 0; k < word.size(); ++k) {
    if (std::toupper(static_cast<unsigned char>(word[k])) != upper[k]) {
      return false;
    }
  }
  return true;
}

/// The keyword token `word` lexes to, or kIdentifier. `reserved` receives
/// a statement keyword's upper-case spelling.
TokenKind classify(std::string_view word, const Dialect& dialect,
                   std::string_view& reserved) {
  for (const Keyword& kw : kExpressionKeywords) {
    if (equals_upper(word, kw.text)) return kw.kind;
  }
  if (dialect.like_escape && equals_upper(word, "ESCAPE")) {
    return TokenKind::kEscape;
  }
  if (dialect.statement_keywords) {
    for (std::string_view kw : kStatementKeywords) {
      if (equals_upper(word, kw)) {
        reserved = kw;
        return TokenKind::kReserved;
      }
    }
  }
  return TokenKind::kIdentifier;
}

bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

bool ident_start(char c, const Dialect& dialect) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
         (dialect.java_identifiers && c == '$');
}

bool ident_part(char c, const Dialect& dialect) {
  return ident_start(c, dialect) || is_digit(c) ||
         (dialect.java_identifiers && c == '.');
}

}  // namespace

bool is_keyword(std::string_view word, const Dialect& dialect) {
  std::string_view reserved;
  return classify(word, dialect, reserved) != TokenKind::kIdentifier;
}

Number scan_number(std::string_view src, std::size_t start) {
  const std::size_t n = src.size();
  std::size_t j = start;
  Number num;
  while (j < n && is_digit(src[j])) ++j;
  if (j < n && src[j] == '.') {
    num.is_double = true;
    ++j;
    while (j < n && is_digit(src[j])) ++j;
  }
  if (j < n && (src[j] == 'e' || src[j] == 'E')) {
    std::size_t k = j + 1;
    if (k < n && (src[k] == '+' || src[k] == '-')) ++k;
    if (k < n && is_digit(src[k])) {
      num.is_double = true;
      j = k;
      while (j < n && is_digit(src[j])) ++j;
    }
  }
  num.end = j;
  const char* first = src.data() + start;
  const char* last = src.data() + j;
  const auto result = num.is_double
                          ? std::from_chars(first, last, num.double_value)
                          : std::from_chars(first, last, num.int_value);
  num.in_range = result.ec == std::errc{};
  return num;
}

std::optional<std::string> scan_string(std::string_view src,
                                       std::size_t start, std::size_t& end) {
  std::string text;
  std::size_t j = start + 1;
  for (;;) {
    if (j >= src.size()) return std::nullopt;
    if (src[j] == '\'') {
      if (j + 1 < src.size() && src[j + 1] == '\'') {
        text += '\'';
        j += 2;
        continue;
      }
      end = j + 1;
      return text;
    }
    text += src[j];
    ++j;
  }
}

std::vector<Token> tokenize(std::string_view source, const Dialect& dialect) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  const std::size_t n = source.size();

  auto push = [&](TokenKind kind, std::size_t at, std::size_t width,
                  std::string text = {}) {
    Token tok;
    tok.kind = kind;
    tok.text = std::move(text);
    tok.position = at;
    tokens.push_back(std::move(tok));
    i = at + width;
  };

  while (i < n) {
    const char c = source[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    const std::size_t start = i;

    if (ident_start(c, dialect)) {
      std::size_t j = i + 1;
      while (j < n && ident_part(source[j], dialect)) ++j;
      const std::string_view word = source.substr(i, j - i);
      std::string_view reserved;
      const TokenKind kind = classify(word, dialect, reserved);
      push(kind, start, j - i,
           std::string(kind == TokenKind::kReserved ? reserved : word));
      continue;
    }

    if (is_digit(c) || (dialect.java_identifiers && c == '.' && i + 1 < n &&
                        is_digit(source[i + 1]))) {
      const Number num = scan_number(source, i);
      if (!num.in_range) {
        throw ParseError(num.is_double ? "floating-point literal out of range"
                                       : "integer literal out of range",
                         start);
      }
      push(num.is_double ? TokenKind::kDouble : TokenKind::kInt, start,
           num.end - i);
      tokens.back().int_value = num.int_value;
      tokens.back().double_value = num.double_value;
      continue;
    }

    if (c == '\'') {
      std::size_t end = 0;
      std::optional<std::string> text = scan_string(source, i, end);
      if (!text) throw ParseError("unterminated string literal", start);
      push(TokenKind::kString, start, end - i, std::move(*text));
      continue;
    }

    const std::string_view rest = source.substr(i);
    const auto op = std::find_if(
        std::begin(kOperators), std::end(kOperators),
        [&](const Keyword& o) { return rest.starts_with(o.text); });
    if (op == std::end(kOperators)) {
      throw ParseError(std::string("unexpected character '") + c + "'", start);
    }
    push(op->kind, start, op->text.size());
  }
  push(TokenKind::kEnd, n, 0);
  return tokens;
}

}  // namespace gridmon::expr
