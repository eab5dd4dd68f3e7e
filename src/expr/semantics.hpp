// SQL-92 conditional-expression semantics shared by JMS selectors and
// R-GMA WHERE clauses: three-valued logic, the tagged scalar every engine
// stage computes with, the two dialects, and the one definition of each
// operator. The tree interpreter, the compiler's constant folding and the
// compiled program all call these helpers, so they cannot drift apart.
#pragma once

#include <cstdint>
#include <string>

namespace gridmon::expr {

/// SQL three-valued logic.
enum class Tri { kFalse, kTrue, kUnknown };

[[nodiscard]] constexpr Tri tri_not(Tri t) {
  if (t == Tri::kTrue) return Tri::kFalse;
  if (t == Tri::kFalse) return Tri::kTrue;
  return Tri::kUnknown;
}
[[nodiscard]] constexpr Tri tri_and(Tri a, Tri b) {
  if (a == Tri::kFalse || b == Tri::kFalse) return Tri::kFalse;
  if (a == Tri::kUnknown || b == Tri::kUnknown) return Tri::kUnknown;
  return Tri::kTrue;
}
[[nodiscard]] constexpr Tri tri_or(Tri a, Tri b) {
  if (a == Tri::kTrue || b == Tri::kTrue) return Tri::kTrue;
  if (a == Tri::kUnknown || b == Tri::kUnknown) return Tri::kUnknown;
  return Tri::kFalse;
}

/// Arithmetic, comparison and logic operators. The compiled program's
/// opcodes start with these twelve in the same order.
enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kEq,
  kNeq,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

enum class UnaryOp { kNeg, kPos, kNot };

/// Tagged scalar. Strings are borrowed: they point into an AST literal, a
/// program's constant pool, or the row / message being evaluated. Integers
/// of every width are kInt and floats are kDouble; booleans (kBool) exist
/// only in the JMS dialect, where i holds 0 or 1. Deliberately trivial (no
/// default member initializers) so an evaluation stack of Vals can stay
/// uninitialized; `Val{}` value-initializes to all-zero, which is kNull.
struct Val {
  enum class Kind : std::uint8_t { kNull, kBool, kInt, kDouble, kStr };
  Kind kind;
  std::int64_t i;
  double d;
  const std::string* s;

  [[nodiscard]] static Val boolean(bool b) {
    return {Kind::kBool, b ? 1 : 0, 0.0, nullptr};
  }
  [[nodiscard]] static Val integer(std::int64_t n) {
    return {Kind::kInt, n, 0.0, nullptr};
  }
  [[nodiscard]] static Val real(double x) {
    return {Kind::kDouble, 0, x, nullptr};
  }
  [[nodiscard]] static Val string(const std::string* str) {
    return {Kind::kStr, 0, 0.0, str};
  }
  [[nodiscard]] bool null() const { return kind == Kind::kNull; }
  [[nodiscard]] bool numeric() const {
    return kind == Kind::kInt || kind == Kind::kDouble;
  }
  [[nodiscard]] double as_double() const {
    return kind == Kind::kInt ? static_cast<double>(i) : d;
  }
};

/// The differences between the two SQL-92 subsets. Exactly two instances
/// exist, one per caller; nothing else can construct or copy one.
class Dialect {
 public:
  static const Dialect kJms;  ///< JMS 1.1 §3.8 message selectors
  static const Dialect kSql;  ///< R-GMA WHERE predicates

  Dialect(const Dialect&) = delete;
  Dialect& operator=(const Dialect&) = delete;

  /// '$' may start an identifier and '.' continue one; ".5" is a number.
  bool java_identifiers;
  /// Statement words (CREATE, SELECT, INT, ...) are keywords, not names.
  bool statement_keywords;
  /// TRUE and FALSE are literals; otherwise they are reserved words.
  bool bool_literals;
  /// NULL is a literal; otherwise it only appears in IS [NOT] NULL.
  bool null_literal;
  /// IN lists hold string literals only and match only strings; otherwise
  /// they hold any literal and compare with `=`.
  bool in_strings_only;
  /// LIKE takes an optional ESCAPE character (ESCAPE is a keyword).
  bool like_escape;
  /// Unary + is an operator that nests and yields NULL for non-numbers;
  /// otherwise one optional + before a primary is accepted and ignored.
  bool unary_plus;
  /// The kind truth values take: kBool, or kInt 0/1 where any non-zero
  /// integer reads as TRUE.
  Val::Kind truth;
  /// <, <=, > and >= order strings; otherwise they are UNKNOWN.
  bool string_ordering;
  /// Double division by zero follows IEEE; otherwise it is NULL.
  bool ieee_division;

 private:
  constexpr Dialect(bool java_identifiers, bool statement_keywords,
                    bool bool_literals, bool null_literal,
                    bool in_strings_only, bool like_escape, bool unary_plus,
                    Val::Kind truth, bool string_ordering, bool ieee_division)
      : java_identifiers(java_identifiers),
        statement_keywords(statement_keywords),
        bool_literals(bool_literals),
        null_literal(null_literal),
        in_strings_only(in_strings_only),
        like_escape(like_escape),
        unary_plus(unary_plus),
        truth(truth),
        string_ordering(string_ordering),
        ieee_division(ieee_division) {}
};

inline constexpr Dialect Dialect::kJms{
    /*java_identifiers=*/true,  /*statement_keywords=*/false,
    /*bool_literals=*/true,     /*null_literal=*/false,
    /*in_strings_only=*/true,   /*like_escape=*/true,
    /*unary_plus=*/true,        /*truth=*/Val::Kind::kBool,
    /*string_ordering=*/false,  /*ieee_division=*/true};
inline constexpr Dialect Dialect::kSql{
    /*java_identifiers=*/false, /*statement_keywords=*/true,
    /*bool_literals=*/false,    /*null_literal=*/true,
    /*in_strings_only=*/false,  /*like_escape=*/false,
    /*unary_plus=*/false,       /*truth=*/Val::Kind::kInt,
    /*string_ordering=*/true,   /*ieee_division=*/false};

/// A value's truth: the dialect's truth kind is TRUE when non-zero;
/// everything else (NULL, other types) is UNKNOWN.
[[nodiscard]] inline Tri truth_of(const Val& v, const Dialect& dialect) {
  if (v.kind != dialect.truth) return Tri::kUnknown;
  return v.i != 0 ? Tri::kTrue : Tri::kFalse;
}

[[nodiscard]] inline Val truth_value(Tri t, const Dialect& dialect) {
  Val v{};
  if (t == Tri::kUnknown) return v;
  v.kind = dialect.truth;
  v.i = t == Tri::kTrue ? 1 : 0;
  return v;
}

[[nodiscard]] inline Val truth_value(bool b, const Dialect& dialect) {
  return truth_value(b ? Tri::kTrue : Tri::kFalse, dialect);
}

/// Integer arithmetic follows Java `long`: two's-complement wrap-around,
/// and INT64_MIN / -1 == INT64_MIN. Computed on unsigned operands, so no
/// input is undefined behaviour.
[[nodiscard]] inline std::int64_t wrap(std::uint64_t u) {
  return static_cast<std::int64_t>(u);
}

[[nodiscard]] inline Val negate(const Val& v) {
  if (v.kind == Val::Kind::kInt) {
    return Val::integer(wrap(0 - static_cast<std::uint64_t>(v.i)));
  }
  if (v.kind == Val::Kind::kDouble) return Val::real(-v.d);
  return Val{};  // NULL, string or boolean
}

/// + - * / on non-NULL operands. Integer division by zero is NULL.
[[nodiscard]] inline Val arith(BinaryOp op, const Val& lhs, const Val& rhs,
                               const Dialect& dialect) {
  if (!lhs.numeric() || !rhs.numeric()) return Val{};
  if (lhs.kind == Val::Kind::kInt && rhs.kind == Val::Kind::kInt) {
    const auto a = static_cast<std::uint64_t>(lhs.i);
    const auto b = static_cast<std::uint64_t>(rhs.i);
    switch (op) {
      case BinaryOp::kAdd:
        return Val::integer(wrap(a + b));
      case BinaryOp::kSub:
        return Val::integer(wrap(a - b));
      case BinaryOp::kMul:
        return Val::integer(wrap(a * b));
      case BinaryOp::kDiv:
        if (rhs.i == 0) return Val{};
        if (rhs.i == -1) return negate(lhs);
        return Val::integer(lhs.i / rhs.i);
      default:
        return Val{};
    }
  }
  const double a = lhs.as_double();
  const double b = rhs.as_double();
  switch (op) {
    case BinaryOp::kAdd:
      return Val::real(a + b);
    case BinaryOp::kSub:
      return Val::real(a - b);
    case BinaryOp::kMul:
      return Val::real(a * b);
    case BinaryOp::kDiv:
      if (b == 0.0 && !dialect.ieee_division) return Val{};
      return Val::real(a / b);
    default:
      return Val{};
  }
}

template <typename T>
[[nodiscard]] Tri order(BinaryOp op, const T& a, const T& b) {
  switch (op) {
    case BinaryOp::kEq:
      return a == b ? Tri::kTrue : Tri::kFalse;
    case BinaryOp::kNeq:
      return a != b ? Tri::kTrue : Tri::kFalse;
    case BinaryOp::kLt:
      return a < b ? Tri::kTrue : Tri::kFalse;
    case BinaryOp::kLe:
      return a <= b ? Tri::kTrue : Tri::kFalse;
    case BinaryOp::kGt:
      return a > b ? Tri::kTrue : Tri::kFalse;
    case BinaryOp::kGe:
      return a >= b ? Tri::kTrue : Tri::kFalse;
    default:
      return Tri::kUnknown;
  }
}

/// = <> < <= > >= on non-NULL operands. Numbers of any kind compare as
/// doubles; booleans support only = and <>; cross-type is UNKNOWN.
[[nodiscard]] inline Tri compare(BinaryOp op, const Val& lhs, const Val& rhs,
                                 const Dialect& dialect) {
  const bool equality = op == BinaryOp::kEq || op == BinaryOp::kNeq;
  if (lhs.numeric() && rhs.numeric()) {
    return order(op, lhs.as_double(), rhs.as_double());
  }
  if (lhs.kind == Val::Kind::kStr && rhs.kind == Val::Kind::kStr) {
    if (!equality && !dialect.string_ordering) return Tri::kUnknown;
    return order(op, *lhs.s, *rhs.s);
  }
  if (lhs.kind == Val::Kind::kBool && rhs.kind == Val::Kind::kBool &&
      equality) {
    return order(op, lhs.i, rhs.i);
  }
  return Tri::kUnknown;
}

/// SQL LIKE: % matches any run, _ any one character; a non-zero `escape`
/// makes the character after it literal.
[[nodiscard]] bool like_match(const std::string& text,
                              const std::string& pattern, char escape);

// --- operators as the interpreter, the folder and the program apply them --

[[nodiscard]] inline Val unary(UnaryOp op, const Val& v,
                               const Dialect& dialect) {
  switch (op) {
    case UnaryOp::kNeg:
      return negate(v);
    case UnaryOp::kPos:
      return v.numeric() ? v : Val{};  // JMS: anything else is NULL
    case UnaryOp::kNot:
      break;
  }
  return truth_value(tri_not(truth_of(v, dialect)), dialect);
}

/// AND / OR over both operands' truth values.
[[nodiscard]] inline Val logic(BinaryOp op, const Val& lhs, const Val& rhs,
                               const Dialect& dialect) {
  const Tri a = truth_of(lhs, dialect);
  const Tri b = truth_of(rhs, dialect);
  return truth_value(op == BinaryOp::kAnd ? tri_and(a, b) : tri_or(a, b),
                     dialect);
}

/// Arithmetic or comparison; NULL when either operand is NULL.
[[nodiscard]] inline Val binary(BinaryOp op, const Val& lhs, const Val& rhs,
                                const Dialect& dialect) {
  if (lhs.null() || rhs.null()) return Val{};
  if (op <= BinaryOp::kDiv) return arith(op, lhs, rhs, dialect);
  return truth_value(compare(op, lhs, rhs, dialect), dialect);
}

[[nodiscard]] inline Val between(const Val& value, const Val& low,
                                 const Val& high, bool negated,
                                 const Dialect& dialect) {
  if (value.null() || low.null() || high.null()) return Val{};
  const Tri result = tri_and(compare(BinaryOp::kGe, value, low, dialect),
                             compare(BinaryOp::kLe, value, high, dialect));
  return truth_value(negated ? tri_not(result) : result, dialect);
}

/// value [NOT] IN (options); `option_val` maps an element of `options` to
/// its Val. A NULL option never matches.
template <typename Options, typename OptionVal>
[[nodiscard]] Val in_list(const Val& value, const Options& options,
                          OptionVal option_val, bool negated,
                          const Dialect& dialect) {
  if (value.null()) return Val{};
  if (dialect.in_strings_only && value.kind != Val::Kind::kStr) return Val{};
  bool found = false;
  for (const auto& option : options) {
    const Val ov = option_val(option);
    if (!ov.null() &&
        compare(BinaryOp::kEq, value, ov, dialect) == Tri::kTrue) {
      found = true;
      break;
    }
  }
  return truth_value(negated != found, dialect);
}

[[nodiscard]] inline Val like(const Val& value, const std::string& pattern,
                              char escape, bool negated,
                              const Dialect& dialect) {
  if (value.kind != Val::Kind::kStr) return Val{};
  return truth_value(negated != like_match(*value.s, pattern, escape),
                     dialect);
}

[[nodiscard]] inline Val is_null(const Val& value, bool negated,
                                 const Dialect& dialect) {
  return truth_value(negated != value.null(), dialect);
}

}  // namespace gridmon::expr
