#include "jms/selector.hpp"

#include <cctype>

#include "expr/parser.hpp"
#include "expr/program.hpp"

namespace gridmon::jms {
namespace {

// A Selector sits in every narada::Broker::Subscription, whose size the
// mem_broker_routing gauge counts.
static_assert(sizeof(Selector) == 48, "Selector is its text plus a program");

struct ToOperand {
  expr::Val operator()(const NullValue&) const { return expr::Val{}; }
  expr::Val operator()(bool b) const { return expr::Val::boolean(b); }
  expr::Val operator()(std::int32_t i) const { return expr::Val::integer(i); }
  expr::Val operator()(std::int64_t i) const { return expr::Val::integer(i); }
  expr::Val operator()(float f) const { return expr::Val::real(f); }
  expr::Val operator()(double d) const { return expr::Val::real(d); }
  expr::Val operator()(const std::string& s) const {
    return expr::Val::string(&s);
  }
};

bool is_blank(std::string_view text) {
  for (char c : text) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace

expr::Val selector_operand(const Message& message, const std::string& name) {
  return message.visit_property(name, ToOperand{});
}

Selector Selector::parse(std::string_view text) {
  Selector selector;
  selector.text_ = std::string(text);
  if (is_blank(text)) return selector;  // match-everything
  const expr::ExprPtr root =
      expr::Parser(text, expr::Dialect::kJms).parse_condition();
  // Properties are looked up by name on every evaluation.
  selector.program_ = std::make_shared<const expr::Program>(
      expr::Program::compile(*root, expr::Dialect::kJms, {}));
  return selector;
}

Tri Selector::evaluate(const Message& message) const {
  if (program_ == nullptr) return Tri::kTrue;
  const expr::Program& program = *program_;
  return program.run<expr::Dialect::kJms>([&](std::uint32_t operand) {
    return selector_operand(message, program.name(operand));
  });
}

}  // namespace gridmon::jms
