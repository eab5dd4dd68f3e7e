// SQL subset parser: tokenizer + recursive descent over the grammar
//
//   statement   := create_table | insert | select
//   create_table:= CREATE TABLE ident '(' col_def (',' col_def)* ')'
//   col_def     := ident type
//   type        := INTEGER | REAL | DOUBLE [PRECISION]
//                | CHAR ['(' int ')'] | VARCHAR ['(' int ')'] | TIMESTAMP
//   insert      := INSERT INTO ident ['(' ident (',' ident)* ')']
//                  VALUES '(' literal (',' literal)* ')'
//   select      := SELECT ('*' | ident (',' ident)*) FROM ident
//                  [WHERE or_expr]
//
// Predicates are the shared SQL-92 conditional grammar (src/expr) in its
// SQL dialect, with column references in place of message properties; the
// statement parser reuses its tokenizer and token cursor.
#pragma once

#include <string>
#include <string_view>

#include "expr/lexer.hpp"
#include "rgma/sql_ast.hpp"

namespace gridmon::rgma::sql {

using SqlParseError = expr::ParseError;

/// Parse one statement. Throws SqlParseError on malformed input.
[[nodiscard]] Statement parse_statement(std::string_view source);

/// Parse just a predicate expression (used for consumer query predicates
/// and registry mediation).
[[nodiscard]] ExprPtr parse_predicate(std::string_view source);

/// Render an INSERT statement for a row (what the producer API sends over
/// the wire).
[[nodiscard]] std::string render_insert(const std::string& table,
                                        const std::vector<SqlValue>& values);

}  // namespace gridmon::rgma::sql
