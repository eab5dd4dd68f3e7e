// The one conditional-expression AST, shared by both dialects.
#pragma once

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "expr/semantics.hpp"

namespace gridmon::expr {

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// A literal value. A string literal keeps its contents in `text` and
/// get() points the Val there, so a Literal copies and moves freely.
struct Literal {
  Val value{};
  std::string text;

  [[nodiscard]] static Literal string(std::string contents) {
    return Literal{Val::string(nullptr), std::move(contents)};
  }
  [[nodiscard]] Val get() const {
    Val v = value;
    if (v.kind == Val::Kind::kStr) v.s = &text;
    return v;
  }
};

/// A message property (JMS) or a column (SQL).
struct Identifier {
  std::string name;
};

struct Unary {
  UnaryOp op;
  ExprPtr operand;
};

struct Binary {
  BinaryOp op;
  ExprPtr lhs;
  ExprPtr rhs;
};

struct Between {
  bool negated;
  ExprPtr value;
  ExprPtr low;
  ExprPtr high;
};

struct InList {
  bool negated;
  ExprPtr value;
  std::vector<Literal> options;
};

struct Like {
  bool negated;
  ExprPtr value;
  std::string pattern;
  char escape = '\0';  ///< 0 = no escape character
};

struct IsNull {
  bool negated;
  ExprPtr value;
};

struct Expr {
  std::variant<Literal, Identifier, Unary, Binary, Between, InList, Like,
               IsNull>
      node;
};

template <typename Node>
ExprPtr make_expr(Node node) {
  return std::make_shared<const Expr>(Expr{std::move(node)});
}

}  // namespace gridmon::expr
