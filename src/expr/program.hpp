// Compiled expression program: what both middlewares evaluate.
//
// Re-walking a shared_ptr AST costs a visit dispatch, an identifier lookup
// and a value round-trip per node, for every message or tuple. A Program
// lowers the tree once: literals land in a constant pool (string storage
// interned and stable), constant subtrees fold at compile time, and
// evaluation becomes a tight postfix loop over a tagged-scalar stack.
//
// Identifiers bind one of two ways. With a Resolve callback (R-GMA) each
// name becomes a row index at compile time, and a name the callback
// rejects folds to NULL. Without one (JMS) each name stays a name, and the
// caller's loader looks it up on every evaluation.
//
// Semantics contract: run() returns exactly what interpret() returns for
// every (expr, dialect, operand values) — NULL/UNKNOWN propagation, type
// mismatches, division by zero, overflow wrap-around. AND/OR short-circuit
// through relative skip ops on the same deciding values as the
// interpreter (FALSE for AND, TRUE for OR); operand evaluation is pure, so
// the skipped code is unobservable. A peephole pass fuses the dominant
// `identifier OP constant` and `identifier BETWEEN c1 AND c2` shapes into
// single ops. The randomized differential test (sql_compile_test) pins
// all of this for both dialects.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "expr/ast.hpp"

namespace gridmon::expr {

class Program {
 public:
  /// Row index of a column name; nullopt when the name is not a column.
  using Resolve =
      std::function<std::optional<std::uint32_t>(const std::string&)>;

  /// Empty program: nothing lowered.
  Program() = default;

  // Move-only: the constant pool borrows pointers into this program's own
  // string storage, so a memberwise copy would dangle.
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;
  Program(Program&&) = default;
  Program& operator=(Program&&) = default;

  /// Lower `expr`. An empty `resolve` leaves identifiers as names.
  [[nodiscard]] static Program compile(const Expr& expr,
                                       const Dialect& dialect,
                                       const Resolve& resolve);

  [[nodiscard]] bool empty() const { return code_.empty(); }

  /// Evaluate under dialect D (the one the program was compiled for).
  /// `load(operand)` returns an identifier's value: `operand` is the row
  /// index, or for programs compiled without a resolver, the argument to
  /// name(). An empty program is UNKNOWN.
  template <const Dialect& D, typename Load>
  [[nodiscard]] Tri run(const Load& load) const;

  /// Identifier name behind a by-name load operand.
  [[nodiscard]] const std::string& name(std::uint32_t operand) const {
    return texts_[operand];
  }

  /// Bytes this program holds live (code + pools), for the
  /// mem_predicate_cache profile category.
  [[nodiscard]] std::int64_t footprint_bytes() const;

 private:
  /// Stack slots evaluated without touching the heap; deeper programs
  /// (only reachable through adversarial nesting) fall back to the heap.
  static constexpr std::size_t kInlineStack = 32;

  enum class OpCode : std::uint8_t {
    // Binary operators, in BinaryOp order so the cast is free.
    kAdd,
    kSub,
    kMul,
    kDiv,
    kCmpEq,
    kCmpNeq,
    kCmpLt,
    kCmpLe,
    kCmpGt,
    kCmpGe,
    kAnd,
    kOr,
    kPushConst,  ///< a = constant-pool index
    kLoad,       ///< a = load operand (row index or name index)
    // Unary operators, in UnaryOp order.
    kNeg,
    kPos,
    kNot,
    kBetween,  ///< pops high, low, value
    kIn,       ///< a = list-pool offset, b = option count
    kLike,     ///< a = pattern index in texts_, b = escape character
    kIsNull,
    // Short-circuit: if the value on top decides the conjunction /
    // disjunction, replace it with the decided value and jump a ops
    // forward (relative, one past the matching kAnd / kOr combiner).
    kAndSkip,  ///< a = relative jump offset, taken on FALSE
    kOrSkip,   ///< a = relative jump offset, taken on TRUE
    // Superinstructions fused from [kLoad][kPushConst][kCmp*] and
    // [kLoad][kPushConst][kPushConst][kBetween] runs. Order mirrors
    // kCmpEq..kCmpGe so the base opcode is recoverable by offset. a = load
    // operand, b = constant-pool index (BETWEEN's high bound is b + 1).
    kCmpColConstEq,
    kCmpColConstNeq,
    kCmpColConstLt,
    kCmpColConstLe,
    kCmpColConstGt,
    kCmpColConstGe,
    kBetweenColConst,
  };

  struct Op {
    OpCode code;
    bool negated = false;  ///< NOT BETWEEN / NOT IN / NOT LIKE / IS NOT NULL
    std::uint32_t a = 0;
    std::uint32_t b = 0;
  };

  class Lowerer;

  /// Peephole superinstruction pass run once after lowering.
  void fuse();

  [[nodiscard]] static BinaryOp binary_op(OpCode code) {
    return static_cast<BinaryOp>(code);
  }

  std::vector<Op> code_;
  std::vector<Val> consts_;     ///< kPushConst pool
  std::vector<Val> list_pool_;  ///< IN-list options, contiguous per op
  /// Owned string storage the Vals above point into (deque: stable
  /// addresses across growth).
  std::deque<std::string> strings_;
  std::vector<std::string> texts_;  ///< LIKE patterns and by-name identifiers
  std::size_t max_stack_ = 0;
};

template <const Dialect& D, typename Load>
Tri Program::run(const Load& load) const {
  if (code_.empty()) return Tri::kUnknown;
  // Uninitialized on purpose: Val is trivial and every slot is written
  // before it is read (max_stack_ bounds the high-water mark).
  Val inline_stack[kInlineStack];
  std::vector<Val> heap_stack;
  Val* stack = inline_stack;
  if (max_stack_ > kInlineStack) {
    heap_stack.resize(max_stack_);
    stack = heap_stack.data();
  }
  std::size_t top = 0;

  const std::size_t end = code_.size();
  std::size_t pc = 0;
  while (pc < end) {
    const Op& op = code_[pc];
    switch (op.code) {
      case OpCode::kPushConst:
        stack[top++] = consts_[op.a];
        break;
      case OpCode::kLoad:
        stack[top++] = load(op.a);
        break;
      case OpCode::kNeg:
      case OpCode::kPos:
      case OpCode::kNot: {
        const auto unary_op = static_cast<UnaryOp>(
            static_cast<std::uint8_t>(op.code) -
            static_cast<std::uint8_t>(OpCode::kNeg));
        stack[top - 1] = unary(unary_op, stack[top - 1], D);
        break;
      }
      case OpCode::kAdd:
      case OpCode::kSub:
      case OpCode::kMul:
      case OpCode::kDiv:
      case OpCode::kCmpEq:
      case OpCode::kCmpNeq:
      case OpCode::kCmpLt:
      case OpCode::kCmpLe:
      case OpCode::kCmpGt:
      case OpCode::kCmpGe: {
        const Val rhs = stack[--top];
        stack[top - 1] = binary(binary_op(op.code), stack[top - 1], rhs, D);
        break;
      }
      case OpCode::kAnd:
      case OpCode::kOr: {
        const Val rhs = stack[--top];
        stack[top - 1] = logic(binary_op(op.code), stack[top - 1], rhs, D);
        break;
      }
      case OpCode::kBetween: {
        const Val high = stack[--top];
        const Val low = stack[--top];
        stack[top - 1] = between(stack[top - 1], low, high, op.negated, D);
        break;
      }
      case OpCode::kIn:
        stack[top - 1] = in_list(stack[top - 1],
                                 std::span(list_pool_).subspan(op.a, op.b),
                                 std::identity{}, op.negated, D);
        break;
      case OpCode::kLike:
        stack[top - 1] = like(stack[top - 1], texts_[op.a],
                              static_cast<char>(op.b), op.negated, D);
        break;
      case OpCode::kIsNull:
        stack[top - 1] = is_null(stack[top - 1], op.negated, D);
        break;
      case OpCode::kAndSkip:
      case OpCode::kOrSkip: {
        // A deciding value (FALSE for AND, TRUE for OR) is the result.
        const Tri decides =
            op.code == OpCode::kAndSkip ? Tri::kFalse : Tri::kTrue;
        Val& v = stack[top - 1];
        if (truth_of(v, D) == decides) {
          v = truth_value(decides, D);  // normalizes nonzero ints
          pc += op.a;
          continue;
        }
        break;
      }
      case OpCode::kCmpColConstEq:
      case OpCode::kCmpColConstNeq:
      case OpCode::kCmpColConstLt:
      case OpCode::kCmpColConstLe:
      case OpCode::kCmpColConstGt:
      case OpCode::kCmpColConstGe: {
        const auto base = static_cast<BinaryOp>(
            static_cast<std::uint8_t>(BinaryOp::kEq) +
            (static_cast<std::uint8_t>(op.code) -
             static_cast<std::uint8_t>(OpCode::kCmpColConstEq)));
        stack[top++] = binary(base, load(op.a), consts_[op.b], D);
        break;
      }
      case OpCode::kBetweenColConst:
        stack[top++] = between(load(op.a), consts_[op.b], consts_[op.b + 1],
                               op.negated, D);
        break;
    }
    ++pc;
  }
  return truth_of(stack[0], D);
}

}  // namespace gridmon::expr
