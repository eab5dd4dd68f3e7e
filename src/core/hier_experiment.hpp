// Hierarchical aggregation experiment: generator → edge aggregator →
// regional publisher → root subscriber, over any of the three backends.
//
// The flat experiments connect every generator straight to the middleware,
// so the 2 GB server heap caps the fleet near 4000. Here only the
// *regional* tier holds backend clients: generators are flyweight records
// in a shared FleetState (src/hier/fleet.hpp) and edges synthesise their
// samples at window close (src/hier/aggregator.hpp), so the same campaign
// machinery sweeps 10k → 1M generators. The backend still carries real
// modelled traffic — every regional publish is a full middleware message
// with the frame's modelled wire size — and the root counts received and
// late samples from each frame's per-edge collected counts and send-time
// bounds (hier::late_samples), so Metrics stays per-sample even though
// only frames cross the wire.
#pragma once

#include "core/experiment.hpp"
#include "hier/topology.hpp"

namespace gridmon::core {

enum class HierBackend { kNarada, kRgma, kMqtt };

[[nodiscard]] const char* to_string(HierBackend backend);

struct HierConfig {
  static constexpr const char* kBackend = "hier";
  HierBackend backend = HierBackend::kNarada;
  /// The tree shape (serialisable, expanded deterministically at setup).
  hier::TopologySpec topology;
  /// One regional client is created every `creation_interval`, starting at
  /// t=1 s (the paper's staggered connection ramp, applied to the tier
  /// that actually owns connections).
  SimTime creation_interval = units::milliseconds(50);
  /// Server memory budget override in bytes (0 = the backend's default
  /// 2 GB host). The OOM-wall tests shrink this to force refusals.
  std::int64_t server_memory_budget = 0;
  SimTime duration = units::minutes(30);
  std::uint64_t seed = 1;
  /// Observability (hier scenario presets enable obs + memprof so the
  /// bytes/generator column is populated by default).
  obs::Options obs;
};

[[nodiscard]] Results run_hier_experiment(const HierConfig& config);

}  // namespace gridmon::core
