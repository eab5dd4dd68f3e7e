// Recursive-descent parser for SQL-92 conditional expressions:
//
//   or_expr    := and_expr ( OR and_expr )*
//   and_expr   := not_expr ( AND not_expr )*
//   not_expr   := NOT not_expr | predicate
//   predicate  := arith [ cmp_op arith
//                       | [NOT] BETWEEN arith AND arith
//                       | [NOT] IN '(' element (',' element)* ')'
//                       | [NOT] LIKE string [ESCAPE string]
//                       | IS [NOT] NULL ]
//   arith      := term ( (+|-) term )*
//   term       := factor ( (*|/) factor )*
//   factor     := - factor | + factor | primary
//   primary    := literal | identifier | '(' or_expr ')'
//
// The Dialect decides which literals and IN elements are legal, whether
// ESCAPE exists, and how unary + parses. R-GMA's statement parser derives
// from this class to reuse the token cursor and parse WHERE clauses.
#pragma once

#include <string_view>
#include <vector>

#include "expr/ast.hpp"
#include "expr/lexer.hpp"

namespace gridmon::expr {

class Parser {
 public:
  /// Tokenizes `source`; throws ParseError on a lexical error.
  Parser(std::string_view source, const Dialect& dialect);

  /// The whole source as one conditional expression.
  [[nodiscard]] ExprPtr parse_condition();

 protected:
  [[nodiscard]] const Token& peek() const { return tokens_[pos_]; }
  const Token& advance() { return tokens_[pos_++]; }
  [[nodiscard]] bool check(TokenKind kind) const {
    return peek().kind == kind;
  }
  bool accept(TokenKind kind);
  /// Accepts a statement keyword, given upper-case.
  bool accept_reserved(std::string_view word);
  void expect(TokenKind kind, const char* what);
  [[noreturn]] void fail(const std::string& what) const;

  /// or_expr, stopping at the first token it cannot use.
  [[nodiscard]] ExprPtr condition();
  /// [-] number | string | NULL
  [[nodiscard]] Literal literal();

 private:
  ExprPtr and_expr();
  ExprPtr not_expr();
  ExprPtr predicate();
  Literal in_element();
  ExprPtr arith();
  ExprPtr term();
  ExprPtr factor();
  ExprPtr primary();

  const Dialect& dialect_;
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace gridmon::expr
