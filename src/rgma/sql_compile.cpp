#include "rgma/sql_compile.hpp"

#include "expr/interpret.hpp"

namespace gridmon::rgma::sql {
namespace {

// footprint_bytes() counts sizeof the program, and its value feeds the
// mem_predicate_cache gauge pinned by the obs series goldens.
static_assert(sizeof(CompiledPredicate) == 184,
              "CompiledPredicate footprint must not move");

/// Row cell → tagged scalar, strings borrowed from the row.
expr::Val operand(const SqlValue& cell) {
  switch (cell.index()) {
    case 1:
      return expr::Val::integer(std::get<std::int64_t>(cell));
    case 2:
      return expr::Val::real(std::get<double>(cell));
    case 3:
      return expr::Val::string(&std::get<std::string>(cell));
    default:
      return expr::Val{};  // NULL cell
  }
}

}  // namespace

CompiledPredicate CompiledPredicate::compile(const ExprPtr& predicate,
                                             const TableDef& table) {
  CompiledPredicate compiled;
  if (!predicate) return compiled;
  compiled.program_ = expr::Program::compile(
      *predicate, expr::Dialect::kSql,
      [&table](const std::string& name) -> std::optional<std::uint32_t> {
        const auto index = table.column_index(name);
        if (!index) return std::nullopt;
        return static_cast<std::uint32_t>(*index);
      });
  return compiled;
}

Tri CompiledPredicate::evaluate(const std::vector<SqlValue>& row) const {
  // Rows shorter than the schema evaluate trailing columns as NULL.
  return program_.run<expr::Dialect::kSql>([&row](std::uint32_t index) {
    return index < row.size() ? operand(row[index]) : expr::Val{};
  });
}

Tri evaluate_predicate(const expr::Expr& predicate, const TableDef& table,
                       const std::vector<SqlValue>& row) {
  return expr::interpret(
      predicate, expr::Dialect::kSql, [&](const std::string& name) {
        const auto index = table.column_index(name);
        return index && *index < row.size() ? operand(row[*index])
                                            : expr::Val{};
      });
}

}  // namespace gridmon::rgma::sql
