// Flyweight fleet state: the whole generator tier in struct-of-arrays form.
//
// A flat scenario holds one middleware client object (~KBs of model state
// plus simulated broker-side threads) per generator — the 2 GB heap caps
// that at ~4000. Here a generator is 8 bytes: a phase fraction and a value
// seed, both u32, in two parallel arrays shared by every edge aggregator.
// Everything else about a generator (its sample times, values, per-sample
// loss draws) is *recomputed* from (seed, generator, sample index) on
// demand when an edge window closes — and, for the few frames the 5 s
// deadline cuts through, again at the root — so no per-sample state is
// ever stored or shipped.
#pragma once

#include <cstdint>
#include <vector>

#include "hier/topology.hpp"
#include "util/rng.hpp"

namespace gridmon::hier {

class FleetState {
 public:
  /// Expands per-generator arrays from the spec. `seed` drives the phase
  /// and value streams (splitmix over seed ^ index — no sequential RNG, so
  /// construction is O(generators) with no draw-order coupling).
  FleetState(const TopologySpec& spec, std::uint64_t seed);

  [[nodiscard]] std::int64_t generators() const {
    return static_cast<std::int64_t>(phase_.size());
  }

  /// Offset of generator `g`'s sample inside each sample period, in
  /// [0, sample_period), stored as a u32 fraction of the period.
  /// Known defect: `frac * period` overflows u64 once the period exceeds
  /// 2^32 ns (~4.29 s), so the product wraps. The result still lies in
  /// [0, period) but is not monotone in the fraction, and every 10 s
  /// preset draws its phases from [0, 4.29 s) instead of [0, 10 s).
  /// Fixing it moves the hier goldens, so it waits for a benchmark re-pin.
  [[nodiscard]] SimTime phase(std::int64_t g) const {
    return static_cast<SimTime>(
        (static_cast<std::uint64_t>(phase_[static_cast<std::size_t>(g)]) *
         static_cast<std::uint64_t>(sample_period_)) >>
        32);
  }

  /// The reading generator `g` publishes as sample `k` (k counts samples
  /// globally: window * samples_per_window + slot). Pure function.
  [[nodiscard]] double value(std::int64_t g, std::int64_t k) const {
    std::uint64_t s = value_seed_[static_cast<std::size_t>(g)] +
                      static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ULL;
    return static_cast<double>(util::splitmix64(s) >> 11) * 0x1.0p-53 * 100.0;
  }

  /// Whether sample `k` of generator `g` is lost on the generator→edge
  /// link. Deterministic Bernoulli(edge.link.loss) — the edge skips lost
  /// samples when aggregating and the root skips the same ones when
  /// accounting, so the two sides agree without any shared state.
  [[nodiscard]] bool sample_lost(std::int64_t g, std::int64_t k) const {
    if (loss_threshold_ == 0) return false;
    std::uint64_t s = loss_salt_ ^ (static_cast<std::uint64_t>(g) * 0x100000001B3ULL +
                                    static_cast<std::uint64_t>(k));
    return util::splitmix64(s) < loss_threshold_;
  }

  /// Model bytes held by the arrays (mirrored into mem_hier by the owner).
  [[nodiscard]] std::int64_t bytes() const {
    return static_cast<std::int64_t>(phase_.capacity() * sizeof(std::uint32_t) +
                                     value_seed_.capacity() *
                                         sizeof(std::uint32_t));
  }

 private:
  SimTime sample_period_;
  std::uint64_t loss_salt_;
  std::uint64_t loss_threshold_;  ///< loss probability scaled to 2^64
  std::vector<std::uint32_t> phase_;
  std::vector<std::uint32_t> value_seed_;
};

}  // namespace gridmon::hier
