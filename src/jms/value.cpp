#include "jms/value.hpp"

#include <sstream>

namespace gridmon::jms {

std::int64_t wire_size(const Value& v) {
  struct Sizer {
    std::int64_t operator()(const NullValue&) const { return 1; }
    std::int64_t operator()(bool) const { return 1; }
    std::int64_t operator()(std::int32_t) const { return 4; }
    std::int64_t operator()(std::int64_t) const { return 8; }
    std::int64_t operator()(float) const { return 4; }
    std::int64_t operator()(double) const { return 8; }
    std::int64_t operator()(const std::string& s) const {
      return 2 + static_cast<std::int64_t>(s.size());
    }
  };
  return std::visit(Sizer{}, v);
}

std::string to_string(const Value& v) {
  struct Printer {
    std::string operator()(const NullValue&) const { return "NULL"; }
    std::string operator()(bool b) const { return b ? "TRUE" : "FALSE"; }
    std::string operator()(std::int32_t i) const { return std::to_string(i); }
    std::string operator()(std::int64_t l) const { return std::to_string(l); }
    std::string operator()(float f) const {
      std::ostringstream out;
      out << f;
      return out.str();
    }
    std::string operator()(double d) const {
      std::ostringstream out;
      out << d;
      return out.str();
    }
    std::string operator()(const std::string& s) const { return "'" + s + "'"; }
  };
  return std::visit(Printer{}, v);
}

}  // namespace gridmon::jms
