// FNV-1a (64-bit) over a golden export: the campaign CSVs and obs exports
// the determinism tests pin. One copy, so every golden is hashed the same
// way.
#pragma once

#include <cstdint>
#include <string_view>

namespace gridmon::golden {

inline std::uint64_t fnv1a(std::string_view data) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace gridmon::golden
