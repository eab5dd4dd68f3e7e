// JMS message selectors (JMS 1.1 §3.8): a SQL-92 conditional-expression
// subset evaluated against a message's headers and properties.
//
// Supported, per the spec: identifiers; exact/approximate numeric, string
// and boolean literals; comparison operators =, <>, <, <=, >, >= (string and
// boolean comparison limited to = and <>); arithmetic + - * / with unary
// sign; logical AND/OR/NOT with SQL three-valued logic; BETWEEN ... AND ...;
// IN (...); LIKE with % and _ wildcards and optional ESCAPE; IS [NOT] NULL.
// The grammar, the compiler and the semantics are the shared src/expr
// engine in its JMS dialect; this file binds identifiers to properties.
//
// The paper's subscriber uses the selector "id<10000" — present here not as
// a stub but as one expression in a full grammar, because selector
// evaluation cost is part of the broker service-time model.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "expr/lexer.hpp"
#include "expr/semantics.hpp"
#include "jms/message.hpp"

namespace gridmon::expr {
class Program;
}

namespace gridmon::jms {

using Tri = expr::Tri;
using SelectorParseError = expr::ParseError;

/// A property as the expression engine sees it: missing → NULL, header
/// pseudo-properties included, strings borrowed from `message`.
[[nodiscard]] expr::Val selector_operand(const Message& message,
                                         const std::string& name);

class Selector {
 public:
  /// Empty/blank text yields a match-everything selector, as in JMS.
  static Selector parse(std::string_view text);

  Selector() = default;

  /// JMS match semantics: only a TRUE result matches.
  [[nodiscard]] bool matches(const Message& message) const {
    return evaluate(message) == Tri::kTrue;
  }

  /// Full three-valued result, exposed for tests.
  [[nodiscard]] Tri evaluate(const Message& message) const;

  [[nodiscard]] const std::string& text() const { return text_; }
  [[nodiscard]] bool trivial() const { return program_ == nullptr; }

 private:
  std::string text_;
  /// Immutable once compiled, so copies of a Selector share it.
  std::shared_ptr<const expr::Program> program_;
};

}  // namespace gridmon::jms
