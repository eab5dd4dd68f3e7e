// The one tokenizer for both dialects, plus the number and string-literal
// scanners that R-GMA's fast INSERT path reuses.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "expr/semantics.hpp"

namespace gridmon::expr {

/// Malformed expression or statement text, with the offset of the
/// offending token or character.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& what, std::size_t position)
      : std::runtime_error(what + " (at offset " + std::to_string(position) +
                           ")"),
        position_(position) {}
  [[nodiscard]] std::size_t position() const { return position_; }

 private:
  std::size_t position_;
};

enum class TokenKind {
  kIdentifier,
  kInt,
  kDouble,
  kString,
  kReserved,  ///< a statement keyword; text holds it upper-cased
  // expression keywords
  kAnd,
  kOr,
  kNot,
  kBetween,
  kIn,
  kLike,
  kEscape,
  kIs,
  kNull,
  kTrue,
  kFalse,
  // operators / punctuation
  kEq,
  kNeq,
  kLt,
  kLe,
  kGt,
  kGe,
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kLParen,
  kRParen,
  kComma,
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;  ///< identifier, string contents or reserved word
  std::int64_t int_value = 0;
  double double_value = 0.0;
  std::size_t position = 0;  ///< offset in the source
};

/// Tokenizes the whole source, ending with kEnd. Throws ParseError.
[[nodiscard]] std::vector<Token> tokenize(std::string_view source,
                                          const Dialect& dialect);

/// Is `word` (any case) a keyword of `dialect`?
[[nodiscard]] bool is_keyword(std::string_view word, const Dialect& dialect);

struct Number {
  bool is_double = false;
  bool in_range = true;  ///< false: overflows int64 or a finite double
  std::int64_t int_value = 0;
  double double_value = 0.0;
  std::size_t end = 0;  ///< one past the literal
};

/// Scans digits [. digits] [eE [+-] digits] starting at `start`, which
/// holds a digit or a '.' followed by one.
[[nodiscard]] Number scan_number(std::string_view src, std::size_t start);

/// Scans the string literal whose opening quote is at `start` ('' is an
/// escaped quote) and sets `end` one past the closing quote; nullopt when
/// the literal is unterminated.
[[nodiscard]] std::optional<std::string> scan_string(std::string_view src,
                                                     std::size_t start,
                                                     std::size_t& end);

}  // namespace gridmon::expr
