// Tree-walking reference interpreter. Neither middleware evaluates with it:
// both run compiled Programs. Tests and benches use it as the oracle the
// compiled program must agree with.
#pragma once

#include <functional>
#include <string>

#include "expr/ast.hpp"

namespace gridmon::expr {

/// Value of an identifier (NULL when it names nothing).
using Lookup = std::function<Val(const std::string& name)>;

[[nodiscard]] Tri interpret(const Expr& expr, const Dialect& dialect,
                            const Lookup& lookup);

}  // namespace gridmon::expr
