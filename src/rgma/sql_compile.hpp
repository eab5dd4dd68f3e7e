// R-GMA's binding of the shared expression engine (src/expr): a WHERE
// predicate compiled once per (predicate, table), with column references
// resolved to row indices at compile time and a column the table does not
// define folded to NULL. A continuous query evaluates its predicate tens of
// thousands of times against the same TableDef, so the producer and
// consumer services cache one CompiledPredicate per attachment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "expr/program.hpp"
#include "rgma/schema.hpp"
#include "rgma/sql_ast.hpp"

namespace gridmon::rgma::sql {

using Tri = expr::Tri;

class CompiledPredicate {
 public:
  /// Empty program: no predicate, selects every row (mirrors the null
  /// ExprPtr convention of predicate_selects).
  CompiledPredicate() = default;

  /// Lower `predicate` against `table`. A null predicate compiles to the
  /// empty program.
  [[nodiscard]] static CompiledPredicate compile(const ExprPtr& predicate,
                                                 const TableDef& table);

  [[nodiscard]] bool empty() const { return program_.empty(); }

  /// Three-valued result, identical to evaluate_predicate().
  [[nodiscard]] Tri evaluate(const std::vector<SqlValue>& row) const;

  /// Only TRUE selects (UNKNOWN rejects), identical to predicate_selects().
  [[nodiscard]] bool selects(const std::vector<SqlValue>& row) const {
    if (program_.empty()) return true;
    return evaluate(row) == Tri::kTrue;
  }

  /// Bytes this program holds live (code + pools), for the
  /// mem_predicate_cache profile category.
  [[nodiscard]] std::int64_t footprint_bytes() const {
    return program_.footprint_bytes();
  }

 private:
  expr::Program program_;
};

/// The reference tree interpreter over the same row semantics: columns
/// looked up by name, a column missing from the table or beyond the row's
/// end is NULL. Tests and benches check CompiledPredicate against it.
[[nodiscard]] Tri evaluate_predicate(const expr::Expr& predicate,
                                     const TableDef& table,
                                     const std::vector<SqlValue>& row);

[[nodiscard]] inline bool predicate_selects(const ExprPtr& predicate,
                                            const TableDef& table,
                                            const std::vector<SqlValue>& row) {
  if (!predicate) return true;
  return evaluate_predicate(*predicate, table, row) == Tri::kTrue;
}

/// SQL LIKE match with % and _ (no escape in the R-GMA subset).
[[nodiscard]] inline bool sql_like(const std::string& text,
                                   const std::string& pattern) {
  return expr::like_match(text, pattern, '\0');
}

}  // namespace gridmon::rgma::sql
