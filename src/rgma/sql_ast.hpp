// Statement AST for the SQL subset R-GMA speaks (CREATE TABLE / INSERT /
// SELECT with WHERE predicates).
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "expr/ast.hpp"
#include "rgma/schema.hpp"
#include "rgma/sql_value.hpp"

namespace gridmon::rgma::sql {

/// WHERE predicates are trees of the shared expression engine.
using ExprPtr = expr::ExprPtr;

struct CreateTable {
  TableDef table;
};

struct Insert {
  std::string table;
  std::vector<std::string> columns;  ///< empty = positional
  std::vector<SqlValue> values;
};

struct Select {
  std::vector<std::string> columns;  ///< empty = '*'
  std::string table;
  ExprPtr where;  ///< null = no predicate
};

using Statement = std::variant<CreateTable, Insert, Select>;

}  // namespace gridmon::rgma::sql
