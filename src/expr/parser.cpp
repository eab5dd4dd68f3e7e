#include "expr/parser.hpp"

namespace gridmon::expr {

Parser::Parser(std::string_view source, const Dialect& dialect)
    : dialect_(dialect), tokens_(tokenize(source, dialect)) {}

ExprPtr Parser::parse_condition() {
  ExprPtr expr = condition();
  expect(TokenKind::kEnd, "end of expression");
  return expr;
}

bool Parser::accept(TokenKind kind) {
  if (!check(kind)) return false;
  ++pos_;
  return true;
}

bool Parser::accept_reserved(std::string_view word) {
  if (!check(TokenKind::kReserved) || peek().text != word) return false;
  ++pos_;
  return true;
}

void Parser::expect(TokenKind kind, const char* what) {
  if (!accept(kind)) fail(std::string("expected ") + what);
}

void Parser::fail(const std::string& what) const {
  throw ParseError(what, peek().position);
}

ExprPtr Parser::condition() {
  ExprPtr lhs = and_expr();
  while (accept(TokenKind::kOr)) {
    lhs = make_expr(Binary{BinaryOp::kOr, lhs, and_expr()});
  }
  return lhs;
}

ExprPtr Parser::and_expr() {
  ExprPtr lhs = not_expr();
  while (accept(TokenKind::kAnd)) {
    lhs = make_expr(Binary{BinaryOp::kAnd, lhs, not_expr()});
  }
  return lhs;
}

ExprPtr Parser::not_expr() {
  if (accept(TokenKind::kNot)) {
    return make_expr(Unary{UnaryOp::kNot, not_expr()});
  }
  return predicate();
}

ExprPtr Parser::predicate() {
  ExprPtr lhs = arith();

  static constexpr struct {
    TokenKind token;
    BinaryOp op;
  } kComparisons[] = {
      {TokenKind::kEq, BinaryOp::kEq}, {TokenKind::kNeq, BinaryOp::kNeq},
      {TokenKind::kLt, BinaryOp::kLt}, {TokenKind::kLe, BinaryOp::kLe},
      {TokenKind::kGt, BinaryOp::kGt}, {TokenKind::kGe, BinaryOp::kGe},
  };
  for (const auto& cmp : kComparisons) {
    if (accept(cmp.token)) return make_expr(Binary{cmp.op, lhs, arith()});
  }

  bool negated = false;
  if (check(TokenKind::kNot)) {
    // NOT here must be followed by BETWEEN/IN/LIKE.
    const TokenKind next = tokens_[pos_ + 1].kind;
    if (next != TokenKind::kBetween && next != TokenKind::kIn &&
        next != TokenKind::kLike) {
      return lhs;
    }
    ++pos_;
    negated = true;
  }

  if (accept(TokenKind::kBetween)) {
    ExprPtr low = arith();
    expect(TokenKind::kAnd, "AND in BETWEEN");
    return make_expr(Between{negated, lhs, low, arith()});
  }
  if (accept(TokenKind::kIn)) {
    expect(TokenKind::kLParen, "'(' after IN");
    std::vector<Literal> options;
    do {
      options.push_back(in_element());
    } while (accept(TokenKind::kComma));
    expect(TokenKind::kRParen, "')' after IN list");
    return make_expr(InList{negated, lhs, std::move(options)});
  }
  if (accept(TokenKind::kLike)) {
    if (!check(TokenKind::kString)) {
      fail("LIKE pattern must be a string literal");
    }
    std::string pattern = advance().text;
    char escape = '\0';
    if (dialect_.like_escape && accept(TokenKind::kEscape)) {
      if (!check(TokenKind::kString) || peek().text.size() != 1) {
        fail("ESCAPE must be a single-character string literal");
      }
      escape = advance().text[0];
    }
    return make_expr(Like{negated, lhs, std::move(pattern), escape});
  }
  if (accept(TokenKind::kIs)) {
    const bool is_not = accept(TokenKind::kNot);
    expect(TokenKind::kNull, "NULL after IS");
    return make_expr(IsNull{is_not, lhs});
  }
  if (negated) fail("expected BETWEEN, IN or LIKE after NOT");
  return lhs;
}

Literal Parser::in_element() {
  if (!dialect_.in_strings_only) return literal();
  if (!check(TokenKind::kString)) {
    fail("IN list elements must be string literals");
  }
  return Literal::string(advance().text);
}

Literal Parser::literal() {
  const bool negate = accept(TokenKind::kMinus);
  const Token& tok = peek();
  switch (tok.kind) {
    case TokenKind::kInt:
      advance();
      return Literal{Val::integer(negate ? -tok.int_value : tok.int_value), {}};
    case TokenKind::kDouble:
      advance();
      return Literal{Val::real(negate ? -tok.double_value : tok.double_value),
                     {}};
    case TokenKind::kString:
      if (negate) fail("cannot negate a string");
      return Literal::string(advance().text);
    case TokenKind::kNull:
      if (negate) fail("cannot negate NULL");
      advance();
      return Literal{};
    default:
      fail("expected literal");
  }
}

ExprPtr Parser::arith() {
  ExprPtr lhs = term();
  for (;;) {
    if (accept(TokenKind::kPlus)) {
      lhs = make_expr(Binary{BinaryOp::kAdd, lhs, term()});
    } else if (accept(TokenKind::kMinus)) {
      lhs = make_expr(Binary{BinaryOp::kSub, lhs, term()});
    } else {
      return lhs;
    }
  }
}

ExprPtr Parser::term() {
  ExprPtr lhs = factor();
  for (;;) {
    if (accept(TokenKind::kStar)) {
      lhs = make_expr(Binary{BinaryOp::kMul, lhs, factor()});
    } else if (accept(TokenKind::kSlash)) {
      lhs = make_expr(Binary{BinaryOp::kDiv, lhs, factor()});
    } else {
      return lhs;
    }
  }
}

ExprPtr Parser::factor() {
  if (accept(TokenKind::kMinus)) {
    return make_expr(Unary{UnaryOp::kNeg, factor()});
  }
  if (accept(TokenKind::kPlus) && dialect_.unary_plus) {
    return make_expr(Unary{UnaryOp::kPos, factor()});
  }
  return primary();
}

ExprPtr Parser::primary() {
  const Token& tok = peek();
  switch (tok.kind) {
    case TokenKind::kInt:
    case TokenKind::kDouble:
    case TokenKind::kString:
      return make_expr(literal());
    case TokenKind::kTrue:
    case TokenKind::kFalse:
      if (!dialect_.bool_literals) break;
      advance();
      return make_expr(
          Literal{Val::boolean(tok.kind == TokenKind::kTrue), {}});
    case TokenKind::kNull:
      if (!dialect_.null_literal) break;
      return make_expr(literal());
    case TokenKind::kIdentifier:
      advance();
      return make_expr(Identifier{tok.text});
    case TokenKind::kLParen: {
      advance();
      ExprPtr inner = condition();
      expect(TokenKind::kRParen, "')'");
      return inner;
    }
    default:
      break;
  }
  fail("expected literal, identifier or '('");
}

}  // namespace gridmon::expr
