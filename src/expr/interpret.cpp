#include "expr/interpret.hpp"

namespace gridmon::expr {
namespace {

class Evaluator {
 public:
  Evaluator(const Dialect& dialect, const Lookup& lookup)
      : dialect_(dialect), lookup_(lookup) {}

  Val eval(const Expr& expr) const {
    return std::visit([this](const auto& node) { return eval_node(node); },
                      expr.node);
  }

  [[nodiscard]] Tri truth(const Val& v) const { return truth_of(v, dialect_); }

 private:
  Val eval_node(const Literal& lit) const { return lit.get(); }

  Val eval_node(const Identifier& ident) const { return lookup_(ident.name); }

  Val eval_node(const Unary& unary) const {
    return expr::unary(unary.op, eval(*unary.operand), dialect_);
  }

  Val eval_node(const Binary& binary) const {
    const Val lhs = eval(*binary.lhs);
    // Logic short-circuits on the deciding value (FALSE for AND, TRUE for
    // OR), per the three-valued truth tables.
    if (binary.op == BinaryOp::kAnd || binary.op == BinaryOp::kOr) {
      const Tri decides =
          binary.op == BinaryOp::kAnd ? Tri::kFalse : Tri::kTrue;
      if (truth(lhs) == decides) return truth_value(decides, dialect_);
      return logic(binary.op, lhs, eval(*binary.rhs), dialect_);
    }
    return expr::binary(binary.op, lhs, eval(*binary.rhs), dialect_);
  }

  Val eval_node(const Between& node) const {
    return between(eval(*node.value), eval(*node.low), eval(*node.high),
                   node.negated, dialect_);
  }

  Val eval_node(const InList& in) const {
    return in_list(eval(*in.value), in.options,
                   [](const Literal& option) { return option.get(); },
                   in.negated, dialect_);
  }

  Val eval_node(const Like& node) const {
    return like(eval(*node.value), node.pattern, node.escape, node.negated,
                dialect_);
  }

  Val eval_node(const IsNull& node) const {
    return is_null(eval(*node.value), node.negated, dialect_);
  }

  const Dialect& dialect_;
  const Lookup& lookup_;
};

}  // namespace

Tri interpret(const Expr& expr, const Dialect& dialect, const Lookup& lookup) {
  const Evaluator evaluator(dialect, lookup);
  return evaluator.truth(evaluator.eval(expr));
}

}  // namespace gridmon::expr
