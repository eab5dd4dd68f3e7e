#include "expr/program.hpp"

#include <algorithm>
#include <utility>

namespace gridmon::expr {

// --- lowering ---------------------------------------------------------------

class Program::Lowerer {
 public:
  Lowerer(Program& out, const Dialect& dialect, const Resolve& resolve)
      : out_(out), dialect_(dialect), resolve_(resolve) {}

  void lower_root(const Expr& expr) {
    const Result root = lower(expr);
    if (root.constant) push_const(root.value);
  }

 private:
  /// Either a compile-time value (nothing emitted) or code left on out_.
  struct Result {
    bool constant = false;
    Val value;
  };

  Result lower(const Expr& expr) {
    return std::visit([this](const auto& node) { return lower_node(node); },
                      expr.node);
  }

  /// Copy a Val into program-owned storage (strings into the pool).
  Val intern(const Val& v) {
    if (v.kind != Val::Kind::kStr) return v;
    return Val::string(&out_.strings_.emplace_back(*v.s));
  }

  void emit(Op op) { out_.code_.push_back(op); }

  void push_const(const Val& v) {
    out_.consts_.push_back(intern(v));
    emit(Op{OpCode::kPushConst, false,
            static_cast<std::uint32_t>(out_.consts_.size() - 1), 0});
  }

  /// Materialize a folded constant at an earlier code position so stack
  /// order matches operand order.
  void insert_const(std::size_t at, const Val& v) {
    out_.consts_.push_back(intern(v));
    out_.code_.insert(
        out_.code_.begin() + static_cast<std::ptrdiff_t>(at),
        Op{OpCode::kPushConst, false,
           static_cast<std::uint32_t>(out_.consts_.size() - 1), 0});
  }

  std::uint32_t add_text(std::string text) {
    out_.texts_.push_back(std::move(text));
    return static_cast<std::uint32_t>(out_.texts_.size() - 1);
  }

  struct Operand {
    Result result;
    std::size_t mark;  ///< code position before this operand's code
  };

  /// Lower each operand in order. Returns true when every operand folded
  /// to a constant (caller folds the node); otherwise materializes the
  /// constant operands at their stack positions.
  bool lower_operands(std::initializer_list<const Expr*> exprs,
                      std::vector<Operand>& operands) {
    bool all_constant = true;
    for (const Expr* expr : exprs) {
      Operand operand;
      operand.mark = out_.code_.size();
      operand.result = lower(*expr);
      all_constant = all_constant && operand.result.constant;
      operands.push_back(std::move(operand));
    }
    if (all_constant) return true;
    std::size_t shift = 0;
    for (const Operand& operand : operands) {
      if (!operand.result.constant) continue;
      insert_const(operand.mark + shift, operand.result.value);
      ++shift;
    }
    return false;
  }

  Result lower_node(const Literal& lit) { return {true, lit.get()}; }

  Result lower_node(const Identifier& ident) {
    if (!resolve_) {
      emit(Op{OpCode::kLoad, false, add_text(ident.name), 0});
      return {};
    }
    const auto index = resolve_(ident.name);
    // A name the resolver rejects is NULL on every row; a resolved index
    // still bounds-checks against the row at evaluation (rows shorter than
    // the schema evaluate trailing columns as NULL).
    if (!index) return {true, Val{}};
    emit(Op{OpCode::kLoad, false, *index, 0});
    return {};
  }

  Result lower_node(const Unary& node) {
    const Result operand = lower(*node.operand);
    if (operand.constant) {
      return {true, unary(node.op, operand.value, dialect_)};
    }
    static constexpr OpCode kCodes[] = {OpCode::kNeg, OpCode::kPos,
                                        OpCode::kNot};
    emit(Op{kCodes[static_cast<int>(node.op)]});
    return {};
  }

  Val fold_binary(BinaryOp op, const Val& lhs, const Val& rhs) const {
    if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
      return logic(op, lhs, rhs, dialect_);
    }
    return binary(op, lhs, rhs, dialect_);
  }

  Result lower_node(const Binary& binary) {
    if (binary.op == BinaryOp::kAnd || binary.op == BinaryOp::kOr) {
      return lower_logical(binary);
    }
    std::vector<Operand> operands;
    if (lower_operands({binary.lhs.get(), binary.rhs.get()}, operands)) {
      return {true, fold_binary(binary.op, operands[0].result.value,
                                operands[1].result.value)};
    }
    emit(Op{static_cast<OpCode>(binary.op)});
    return {};
  }

  /// AND / OR with the interpreter's short-circuit: a deciding lhs (FALSE
  /// for AND, TRUE for OR) skips the rhs entirely. Operands are pure, so
  /// a deciding *constant* lhs folds without lowering the rhs at all.
  Result lower_logical(const Binary& binary) {
    const bool is_and = binary.op == BinaryOp::kAnd;
    const OpCode combiner = static_cast<OpCode>(binary.op);
    const Result lhs = lower(*binary.lhs);
    if (lhs.constant) {
      const Tri decided = truth_of(lhs.value, dialect_);
      if (decided == (is_and ? Tri::kFalse : Tri::kTrue)) {
        return {true, truth_value(decided, dialect_)};
      }
      const std::size_t mark = out_.code_.size();
      const Result rhs = lower(*binary.rhs);
      if (rhs.constant) {
        return {true, fold_binary(binary.op, lhs.value, rhs.value)};
      }
      // Non-deciding constant lhs: materialize it under the rhs code so
      // the combiner sees operands in order. No skip — it never fires.
      insert_const(mark, lhs.value);
      emit(Op{combiner});
      return {};
    }
    // lhs left code behind: jump over the rhs when it decides. The offset
    // is relative to the skip's own index, which keeps it stable when an
    // enclosing operand list later inserts constants — those land at
    // region boundaries, never strictly inside [skip, combiner].
    const std::size_t skip_at = out_.code_.size();
    emit(Op{is_and ? OpCode::kAndSkip : OpCode::kOrSkip});
    const Result rhs = lower(*binary.rhs);
    if (rhs.constant) push_const(rhs.value);
    emit(Op{combiner});
    out_.code_[skip_at].a =
        static_cast<std::uint32_t>(out_.code_.size() - skip_at);
    return {};
  }

  Result lower_node(const Between& node) {
    std::vector<Operand> operands;
    if (lower_operands({node.value.get(), node.low.get(), node.high.get()},
                       operands)) {
      return {true, between(operands[0].result.value,
                            operands[1].result.value,
                            operands[2].result.value, node.negated,
                            dialect_)};
    }
    emit(Op{OpCode::kBetween, node.negated});
    return {};
  }

  Result lower_node(const InList& in) {
    const Result value = lower(*in.value);
    if (value.constant) {
      return {true, in_list(value.value, in.options,
                            [](const Literal& option) { return option.get(); },
                            in.negated, dialect_)};
    }
    const auto offset = static_cast<std::uint32_t>(out_.list_pool_.size());
    for (const Literal& option : in.options) {
      out_.list_pool_.push_back(intern(option.get()));
    }
    emit(Op{OpCode::kIn, in.negated, offset,
            static_cast<std::uint32_t>(in.options.size())});
    return {};
  }

  Result lower_node(const Like& node) {
    const Result value = lower(*node.value);
    if (value.constant) {
      return {true, like(value.value, node.pattern, node.escape,
                         node.negated, dialect_)};
    }
    emit(Op{OpCode::kLike, node.negated, add_text(node.pattern),
            static_cast<unsigned char>(node.escape)});
    return {};
  }

  Result lower_node(const IsNull& node) {
    const Result value = lower(*node.value);
    if (value.constant) {
      return {true, is_null(value.value, node.negated, dialect_)};
    }
    emit(Op{OpCode::kIsNull, node.negated});
    return {};
  }

  Program& out_;
  const Dialect& dialect_;
  const Resolve& resolve_;
};

/// Peephole pass: predicates are almost entirely `identifier OP constant`
/// and `identifier BETWEEN c1 AND c2` leaves, which the lowerer emits as
/// load/push/compare runs. Fuse each into one op so the hot loop pays one
/// dispatch instead of three. Relative jump offsets are remapped through
/// an old→new index table; targets always point one past a combiner,
/// never inside a fused group.
void Program::fuse() {
  const auto raw = [](OpCode c) { return static_cast<std::uint8_t>(c); };
  std::vector<Op> fused;
  fused.reserve(code_.size());
  std::vector<std::uint32_t> new_index(code_.size() + 1);
  std::size_t i = 0;
  while (i < code_.size()) {
    const auto pos = static_cast<std::uint32_t>(fused.size());
    if (code_[i].code == OpCode::kLoad && i + 2 < code_.size() &&
        code_[i + 1].code == OpCode::kPushConst) {
      const std::uint8_t next = raw(code_[i + 2].code);
      if (next >= raw(OpCode::kCmpEq) && next <= raw(OpCode::kCmpGe)) {
        const auto fused_code = static_cast<OpCode>(
            raw(OpCode::kCmpColConstEq) + (next - raw(OpCode::kCmpEq)));
        fused.push_back(Op{fused_code, false, code_[i].a, code_[i + 1].a});
        new_index[i] = new_index[i + 1] = new_index[i + 2] = pos;
        i += 3;
        continue;
      }
      if (i + 3 < code_.size() && code_[i + 2].code == OpCode::kPushConst &&
          code_[i + 3].code == OpCode::kBetween &&
          code_[i + 2].a == code_[i + 1].a + 1) {
        fused.push_back(Op{OpCode::kBetweenColConst, code_[i + 3].negated,
                           code_[i].a, code_[i + 1].a});
        new_index[i] = new_index[i + 1] = new_index[i + 2] =
            new_index[i + 3] = pos;
        i += 4;
        continue;
      }
    }
    new_index[i] = pos;
    fused.push_back(code_[i]);
    ++i;
  }
  new_index[code_.size()] = static_cast<std::uint32_t>(fused.size());
  for (std::size_t old = 0; old < code_.size(); ++old) {
    const Op& op = code_[old];
    if (op.code != OpCode::kAndSkip && op.code != OpCode::kOrSkip) continue;
    fused[new_index[old]].a = new_index[old + op.a] - new_index[old];
  }
  code_ = std::move(fused);
}

Program Program::compile(const Expr& expr, const Dialect& dialect,
                         const Resolve& resolve) {
  Program program;
  Lowerer(program, dialect, resolve).lower_root(expr);
  program.fuse();
  program.code_.shrink_to_fit();
  program.consts_.shrink_to_fit();
  program.list_pool_.shrink_to_fit();
  program.texts_.shrink_to_fit();

  // Compute the evaluation stack's high-water mark. Skips are taken only
  // when the region's result is already on the stack, so the linear scan
  // over-approximates safely.
  std::size_t depth = 0;
  for (const Op& op : program.code_) {
    if (op.code <= OpCode::kOr) {
      --depth;  // binary operators pop two, push one
    } else if (op.code == OpCode::kBetween) {
      depth -= 2;
    } else if (op.code == OpCode::kPushConst || op.code == OpCode::kLoad ||
               op.code >= OpCode::kCmpColConstEq) {
      program.max_stack_ = std::max(program.max_stack_, ++depth);
    }  // unary ops and skips are stack-neutral
  }
  return program;
}

std::int64_t Program::footprint_bytes() const {
  std::int64_t total = static_cast<std::int64_t>(
      sizeof(Program) + code_.size() * sizeof(Op) +
      (consts_.size() + list_pool_.size()) * sizeof(Val));
  for (const std::string& s : strings_) {
    total += static_cast<std::int64_t>(sizeof(std::string) + s.size());
  }
  for (const std::string& t : texts_) {
    total += static_cast<std::int64_t>(sizeof(std::string) + t.size());
  }
  return total;
}

}  // namespace gridmon::expr
