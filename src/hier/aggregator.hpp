// Edge and regional aggregators: the middle tiers of the hierarchy.
//
// An EdgeAggregator terminates one group of generator links on a simulated
// host. It never stores per-sample state: when a window closes it
// *synthesises* its generators' samples from the shared FleetState (times,
// values and per-sample loss draws are all pure functions of the seed),
// reduces them per the tier policy, and emits one EdgeFrame. A
// RegionalAggregator buffers the frames of its child edges and flushes
// them upstream on its own window — either re-publishing each child frame
// (raw pass-through: a pure broker tree) or folding them into one
// aggregate publish. The actual backend client (Narada/R-GMA/MQTT) lives
// in the experiment harness; the regional hands it finished UpstreamFrames
// through a callback, so this layer depends on nothing middleware-specific.
//
// Accounting contract: each EdgeFrame carries the collected count and the
// oldest send time of the samples for_each_sample() enumerated at the edge.
// The root takes received counts straight from the frames and gets the
// late count from late_samples(), which settles a segment from those two
// fields and the window bounds and re-walks only a segment the deadline
// cutoff falls inside. No sample is ever shipped or stored.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "hier/fleet.hpp"
#include "hier/topology.hpp"

namespace gridmon::hier {

/// Modelled wire overhead of an aggregate frame and of one reduced record
/// (edge id + window + count + value), vs `sample_bytes` per raw record.
constexpr std::int64_t kFrameHeaderBytes = 32;
constexpr std::int64_t kAggRecordBytes = 24;

/// Shared immutable run shape: one instance per experiment, referenced by
/// every edge and regional (the flyweight's intrinsic state).
struct TreeConfig {
  TopologySpec spec;
  TopologySpec::Expansion shape;
  const FleetState* fleet = nullptr;
  SimTime epoch = 0;           ///< window 0 opens here (the steady epoch)
  std::int64_t windows = 0;    ///< edge windows per run

  /// Deterministic per-child spread in [0, jitter], hashed from the child
  /// index — no RNG draws, so expansion stays seedless.
  [[nodiscard]] static SimTime spread(std::int64_t child, SimTime jitter) {
    if (jitter <= 0) return 0;
    std::uint64_t s = static_cast<std::uint64_t>(child) + 0x9E3779B97F4A7C15ULL;
    return static_cast<SimTime>(util::splitmix64(s) %
                                static_cast<std::uint64_t>(jitter + 1));
  }

  /// Walk every sample of edge `edge` whose send time falls inside edge
  /// window `window` — including the ones lost on the generator→edge link
  /// (`fn(generator, sample_index, send_time, lost)`). Samples are
  /// enumerated in (generator, index) order.
  template <typename Fn>
  void for_each_sample(std::int64_t edge, std::int64_t window, Fn&& fn) const {
    const SimTime period = spec.sample_period;
    // Sample i of generator g is sent at epoch + i*period + phase(g); find
    // the i range landing in [begin, end) relative to the epoch. Split
    // both bounds by the period once per window: begin = qb*period + rb
    // and end - 1 = qe*period + re. Since 0 <= phase < period, sample qb
    // is in range iff phase >= rb and sample qe iff phase <= re, so each
    // generator's range costs two compares and no division. hi comes out
    // as -1 for a window before the generator's first sample.
    const SimTime begin = window * spec.edge.window;
    const SimTime last_ns = begin + spec.edge.window - 1;
    const std::int64_t qb = begin / period;
    const SimTime rb = begin % period;
    const std::int64_t qe = last_ns / period;
    const SimTime re = last_ns % period;
    for (std::int64_t g = shape.generator_begin(edge),
                      last = shape.generator_end(edge);
         g < last; ++g) {
      const SimTime phase = fleet->phase(g);
      const std::int64_t lo = qb + (phase < rb ? 1 : 0);
      const std::int64_t hi = qe - (phase > re ? 1 : 0);
      for (std::int64_t i = lo; i <= hi; ++i) {
        fn(g, i, epoch + i * period + phase, fleet->sample_lost(g, i));
      }
    }
  }

  /// Send time at which edge window `window` closes: every sample it
  /// covers was sent strictly before this.
  [[nodiscard]] SimTime window_end(std::int64_t window) const {
    return epoch + (window + 1) * spec.edge.window;
  }
};

/// One edge's output for one window.
struct EdgeFrame {
  std::int64_t edge = 0;
  std::int64_t window = 0;
  std::int64_t collected = 0;  ///< samples that survived the generator link
  std::int64_t bytes = 0;      ///< modelled wire size of this frame
  SimTime oldest_send = 0;     ///< earliest collected sample's send time
  double aggregate = 0.0;      ///< reduced value (kRaw: 0)
};

class EdgeAggregator {
 public:
  EdgeAggregator(const TreeConfig& config, std::int64_t edge)
      : config_(config), edge_(edge) {}

  /// When window `w`'s frame reaches this edge's regional: window end,
  /// plus the generator→edge hop (waiting for the window's last samples),
  /// plus the edge→regional hop with this edge's deterministic spread.
  [[nodiscard]] SimTime close_time(std::int64_t window) const;

  /// Synthesise and reduce window `w`. `generated` returns the number of
  /// samples the generators emitted (collected + lost) for sent-side
  /// accounting. A window nobody sampled in yields collected == 0 and the
  /// caller drops the frame.
  [[nodiscard]] EdgeFrame close_window(std::int64_t window,
                                       std::int64_t& generated) const;

  [[nodiscard]] std::int64_t id() const { return edge_; }

 private:
  const TreeConfig& config_;
  std::int64_t edge_;
};

/// A frame the regional tier publishes upstream into the backend. Carries
/// the covered edge frames so the root can count late samples per segment.
struct UpstreamFrame {
  std::int64_t regional = 0;
  std::int64_t bytes = 0;
  std::int64_t collected = 0;  ///< sum of the segments' collected counts
  SimTime oldest_send = 0;
  std::vector<EdgeFrame> segments;
};

/// How many of the samples `frame` carries were sent before `cutoff` (the
/// root's delivery time minus the deadline). A segment whose oldest sample
/// is at or after the cutoff has none late; a segment whose window closed
/// at or before it is late in full. Only a segment the cutoff falls inside
/// is re-walked with for_each_sample(), so the count is exact per sample.
[[nodiscard]] std::int64_t late_samples(const TreeConfig& tree,
                                        const UpstreamFrame& frame,
                                        SimTime cutoff);

class RegionalAggregator {
 public:
  /// `publish` hands a finished frame to the harness (which owns the
  /// backend client). Called from flush().
  using PublishFn = std::function<void(UpstreamFrame)>;

  RegionalAggregator(const TreeConfig& config, std::int64_t regional,
                     PublishFn publish)
      : config_(config), regional_(regional), publish_(std::move(publish)) {}

  /// An edge frame arrived over the edge→regional link.
  void deliver(EdgeFrame frame);

  /// Regional window close: publish everything pending. Raw pass-through
  /// re-publishes each child frame; a reducing tier folds them into one
  /// aggregate frame with one record per child edge frame.
  void flush();

  /// Delay after a regional window end that guarantees the covered edge
  /// frames have arrived (worst-case edge close + uplink).
  [[nodiscard]] SimTime flush_offset() const {
    return config_.spec.edge.link.latency + config_.spec.edge.link.jitter +
           config_.spec.regional.link.latency +
           config_.spec.regional.link.jitter + units::milliseconds(1);
  }

  [[nodiscard]] std::int64_t id() const { return regional_; }
  [[nodiscard]] std::int64_t pending() const {
    return static_cast<std::int64_t>(pending_.size());
  }

 private:
  const TreeConfig& config_;
  std::int64_t regional_;
  PublishFn publish_;
  std::vector<EdgeFrame> pending_;
};

}  // namespace gridmon::hier
