// The hierarchical aggregation tier: TopologySpec round-trips and expands
// deterministically, the flyweight fleet is a pure function of the seed,
// edges and the root agree on per-sample accounting, and an OOM-refused
// regional subtree counts every descendant generator as refused.
#include "hier/aggregator.hpp"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/hier_experiment.hpp"
#include "hier/fleet.hpp"
#include "hier/topology.hpp"

namespace gridmon::hier {
namespace {

TopologySpec small_spec() {
  TopologySpec spec;
  spec.generators = 400;
  spec.edge.fan_in = 20;
  spec.regional.fan_in = 5;
  return spec;
}

TEST(TopologySpecTest, SerialiseRoundTrips) {
  TopologySpec spec = small_spec();
  spec.sample_period = units::seconds(5);
  spec.sample_bytes = 64;
  spec.edge.link.latency = units::milliseconds(3);
  spec.edge.link.jitter = units::milliseconds(2);
  spec.edge.link.loss = 0.05;
  spec.edge.reduce = Reduce::kSum;
  spec.edge.window = units::seconds(2);
  spec.regional.reduce = Reduce::kLast;

  const std::string text = spec.serialise();
  const TopologySpec parsed = TopologySpec::parse(text);
  // Field-order-stable text form: re-serialising reproduces it exactly.
  EXPECT_EQ(parsed.serialise(), text);
  EXPECT_EQ(parsed.generators, spec.generators);
  EXPECT_EQ(parsed.sample_period, spec.sample_period);
  EXPECT_EQ(parsed.edge.link.loss, spec.edge.link.loss);
  EXPECT_EQ(parsed.edge.reduce, Reduce::kSum);
  EXPECT_EQ(parsed.regional.reduce, Reduce::kLast);
}

TEST(TopologySpecTest, ParseRejectsMalformedInput) {
  EXPECT_THROW(TopologySpec::parse("nonsense 1"), std::invalid_argument);
  EXPECT_THROW((void)parse_reduce("median"), std::invalid_argument);
}

TEST(TopologySpecTest, ExpandIsDeterministicAndCoversEveryGenerator) {
  const TopologySpec spec = small_spec();
  const auto shape = spec.expand();
  EXPECT_EQ(shape.generators, 400);
  EXPECT_EQ(shape.edges, 20);      // 400 / 20
  EXPECT_EQ(shape.regionals, 4);   // 20 / 5
  // Expansion is a pure function of the spec.
  const auto again = spec.expand();
  EXPECT_EQ(again.edges, shape.edges);
  EXPECT_EQ(again.regionals, shape.regionals);

  // Parent/child maps are mutually consistent and partition the fleet.
  std::int64_t covered = 0;
  for (std::int64_t r = 0; r < shape.regionals; ++r) {
    for (std::int64_t e = shape.edge_begin(r); e < shape.edge_end(r); ++e) {
      EXPECT_EQ(shape.regional_of(e), r);
      for (std::int64_t g = shape.generator_begin(e);
           g < shape.generator_end(e); ++g) {
        EXPECT_EQ(shape.edge_of(g), e);
        ++covered;
      }
    }
    EXPECT_EQ(shape.generators_under(r), 100);  // 5 edges x 20 generators
  }
  EXPECT_EQ(covered, shape.generators);
}

TEST(TopologySpecTest, ExpandHandlesRaggedTails) {
  TopologySpec spec = small_spec();
  spec.generators = 450;  // 23 edges; the last holds 10 generators
  const auto shape = spec.expand();
  EXPECT_EQ(shape.edges, 23);
  EXPECT_EQ(shape.regionals, 5);  // last regional holds 3 edges
  EXPECT_EQ(shape.generator_end(22) - shape.generator_begin(22), 10);
  std::int64_t covered = 0;
  for (std::int64_t r = 0; r < shape.regionals; ++r) {
    covered += shape.generators_under(r);
  }
  EXPECT_EQ(covered, 450);
}

TEST(TopologySpecTest, ExpandValidates) {
  TopologySpec bad = small_spec();
  bad.edge.fan_in = 0;
  EXPECT_THROW((void)bad.expand(), std::invalid_argument);
  bad = small_spec();
  bad.edge.link.loss = 1.0;
  EXPECT_THROW((void)bad.expand(), std::invalid_argument);
  bad = small_spec();
  bad.regional.window = -1;
  EXPECT_THROW((void)bad.expand(), std::invalid_argument);
  // Loss is only modelled on the generator→edge hop; a regional-tier
  // setting must be rejected, not silently ignored.
  bad = small_spec();
  bad.regional.link.loss = 0.05;
  EXPECT_THROW((void)bad.expand(), std::invalid_argument);
}

TEST(FleetStateTest, PureFunctionOfSeed) {
  const TopologySpec spec = small_spec();
  const FleetState a(spec, 42);
  const FleetState b(spec, 42);
  const FleetState c(spec, 43);
  bool any_differs = false;
  for (std::int64_t g = 0; g < a.generators(); ++g) {
    EXPECT_EQ(a.phase(g), b.phase(g));
    EXPECT_EQ(a.value(g, 7), b.value(g, 7));
    EXPECT_GE(a.phase(g), 0);
    EXPECT_LT(a.phase(g), spec.sample_period);
    any_differs |= a.phase(g) != c.phase(g);
  }
  EXPECT_TRUE(any_differs);
  // 8 bytes of model state per generator, SoA.
  EXPECT_GE(a.bytes(), a.generators() * 8);
}

TEST(FleetStateTest, SampleLossMatchesConfiguredRate) {
  TopologySpec spec = small_spec();
  spec.edge.link.loss = 0.1;
  const FleetState fleet(spec, 1);
  std::int64_t lost = 0;
  const std::int64_t draws = 400 * 50;
  for (std::int64_t g = 0; g < 400; ++g) {
    for (std::int64_t k = 0; k < 50; ++k) lost += fleet.sample_lost(g, k);
  }
  const double rate = static_cast<double>(lost) / static_cast<double>(draws);
  EXPECT_NEAR(rate, 0.1, 0.01);
  // Lossless fleets never drop.
  const FleetState clean(small_spec(), 1);
  EXPECT_FALSE(clean.sample_lost(0, 0));
  // An unvalidated loss of 1.0 (expand() rejects it, but the constructor
  // can see a raw spec) clamps the 2^64 scale instead of a UB cast, and
  // drops everything.
  TopologySpec saturated = small_spec();
  saturated.edge.link.loss = 1.0;
  const FleetState all_lost(saturated, 1);
  for (std::int64_t k = 0; k < 100; ++k) {
    EXPECT_TRUE(all_lost.sample_lost(0, k));
  }
}

TEST(AggregatorTest, SubPeriodWindowsEnumerateEachSampleExactlyOnce) {
  // Regression: with edge.window < sample_period (every shipped hier/*
  // preset: 2 s windows, 10 s period) the last-sample index used to
  // truncate toward zero instead of flooring, so sample 0 leaked into
  // every window before its real one — inflating sent/collected counts
  // and recording negative RTTs for early frames.
  TopologySpec spec = small_spec();
  spec.edge.window = units::seconds(2);  // 5 windows per sample period
  FleetState fleet(spec, 9);
  TreeConfig tree;
  tree.spec = spec;
  tree.shape = spec.expand();
  tree.fleet = &fleet;
  tree.epoch = units::seconds(1);
  tree.windows = 10;  // two full sample periods

  std::map<std::pair<std::int64_t, std::int64_t>, int> seen;
  for (std::int64_t w = 0; w < tree.windows; ++w) {
    const SimTime begin = tree.epoch + w * spec.edge.window;
    const SimTime end = begin + spec.edge.window;
    tree.for_each_sample(
        0, w, [&](std::int64_t g, std::int64_t k, SimTime send, bool) {
          // Every enumerated send time really falls inside the window.
          EXPECT_GE(send, begin);
          EXPECT_LT(send, end);
          ++seen[{g, k}];
        });
  }
  // Two periods: samples 0 and 1 of each of the edge's generators, each
  // in exactly one window.
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(2 * spec.edge.fan_in));
  for (const auto& [key, count] : seen) {
    EXPECT_EQ(count, 1) << "generator " << key.first << " sample "
                        << key.second;
  }
}

using Sample = std::tuple<std::int64_t, std::int64_t, SimTime, bool>;

/// The division-based window walk for_each_sample() must reproduce: two
/// 64-bit divisions per (generator, window), with the floor on the last
/// index that keeps sub-period windows from pulling in sample 0.
std::vector<Sample> reference_walk(const TreeConfig& tree, std::int64_t edge,
                                   std::int64_t window) {
  std::vector<Sample> out;
  const SimTime w = tree.spec.edge.window;
  const SimTime period = tree.spec.sample_period;
  const SimTime begin = window * w;
  const SimTime end = begin + w;
  for (std::int64_t g = tree.shape.generator_begin(edge),
                    last = tree.shape.generator_end(edge);
       g < last; ++g) {
    const SimTime phase = tree.fleet->phase(g);
    std::int64_t lo = (begin - phase + period - 1) / period;
    if (lo < 0) lo = 0;
    const std::int64_t num = end - phase - 1;
    const std::int64_t hi = num >= 0 ? num / period : -1;
    for (std::int64_t i = lo; i <= hi; ++i) {
      out.emplace_back(g, i, tree.epoch + i * period + phase,
                       tree.fleet->sample_lost(g, i));
    }
  }
  return out;
}

TEST(AggregatorTest, WindowWalkMatchesDivisionReference) {
  // Periods below and above 2^32 ns (phase() wraps there), windows that
  // are shorter than, do not divide, equal and exceed the period, lossy
  // and lossless links, and a ragged last edge of 5 generators. Two more
  // windows put the largest phase exactly on a window bound: window 1 of
  // a `peak`-long window opens on it, and window 0 of a `peak + 1`-long
  // one closes just after it.
  const SimTime kPeriods[] = {units::milliseconds(20), units::seconds(1),
                              units::seconds(4), units::seconds(10)};
  const double kLosses[] = {0.0, 0.1};
  std::int64_t empty_early_windows = 0;
  for (const SimTime period : kPeriods) {
    for (const double loss : kLosses) {
      TopologySpec spec;
      spec.generators = 45;
      spec.edge.fan_in = 10;
      spec.regional.fan_in = 5;
      spec.sample_period = period;
      spec.edge.link.loss = loss;
      const FleetState fleet(spec, 17);
      SimTime peak = 0;
      for (std::int64_t g = 0; g < fleet.generators(); ++g) {
        peak = std::max(peak, fleet.phase(g));
      }
      const SimTime kWindows[] = {units::seconds(2), units::seconds(3),
                                  period,            units::seconds(25),
                                  peak,              peak + 1};
      for (const SimTime window : kWindows) {
        spec.edge.window = window;
        TreeConfig tree;
        tree.spec = spec;
        tree.shape = spec.expand();
        tree.fleet = &fleet;
        tree.epoch = units::seconds(1);
        // Cover at least two sample periods from window 0 on.
        const std::int64_t windows = 2 * period / window + 2;
        for (std::int64_t e = 0; e < tree.shape.edges; ++e) {
          for (std::int64_t w = 0; w < windows; ++w) {
            const std::vector<Sample> expected = reference_walk(tree, e, w);
            std::vector<Sample> actual;
            tree.for_each_sample(e, w, [&](std::int64_t g, std::int64_t k,
                                           SimTime send, bool lost) {
              actual.emplace_back(g, k, send, lost);
            });
            ASSERT_EQ(actual, expected)
                << "period " << period << " window " << window << " loss "
                << loss << " edge " << e << " w " << w;
            // Windows that close before some generator's first sample.
            for (std::int64_t g = tree.shape.generator_begin(e);
                 g < tree.shape.generator_end(e); ++g) {
              if ((w + 1) * window <= fleet.phase(g)) ++empty_early_windows;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(empty_early_windows, 0);
}

TEST(AggregatorTest, EdgeWindowCollectsExactlyThePhasedSamples) {
  // One edge window per sample period: every generator contributes exactly
  // one sample per window, and the mean aggregate matches a manual fold
  // over the same for_each_sample() walk the root uses.
  TopologySpec spec = small_spec();
  spec.edge.reduce = Reduce::kMean;
  FleetState fleet(spec, 9);
  TreeConfig tree;
  tree.spec = spec;
  tree.shape = spec.expand();
  tree.fleet = &fleet;
  tree.epoch = units::seconds(1);
  tree.windows = 3;

  const EdgeAggregator edge(tree, 0);
  for (std::int64_t w = 0; w < tree.windows; ++w) {
    std::int64_t generated = 0;
    const EdgeFrame frame = edge.close_window(w, generated);
    EXPECT_EQ(generated, spec.edge.fan_in);
    EXPECT_EQ(frame.collected, spec.edge.fan_in);  // lossless link
    EXPECT_EQ(frame.window, w);
    double sum = 0.0;
    SimTime oldest = 0;
    bool first = true;
    tree.for_each_sample(0, w, [&](std::int64_t g, std::int64_t k,
                                   SimTime send, bool lost) {
      EXPECT_FALSE(lost);
      sum += fleet.value(g, k);
      if (first || send < oldest) oldest = send;
      first = false;
    });
    EXPECT_DOUBLE_EQ(frame.aggregate, sum / static_cast<double>(generated));
    EXPECT_EQ(frame.oldest_send, oldest);
    // Reduced frame: header plus a single aggregate record.
    EXPECT_EQ(frame.bytes, kFrameHeaderBytes + kAggRecordBytes);
  }
  EXPECT_GT(edge.close_time(0), tree.epoch + spec.edge.window);
}

TEST(AggregatorTest, RawRegionalPassesFramesThroughReducedFoldsThem) {
  TopologySpec spec = small_spec();
  spec.edge.reduce = Reduce::kRaw;
  spec.regional.reduce = Reduce::kRaw;
  FleetState fleet(spec, 9);
  TreeConfig tree;
  tree.spec = spec;
  tree.shape = spec.expand();
  tree.fleet = &fleet;
  tree.epoch = units::seconds(1);
  tree.windows = 1;

  std::vector<UpstreamFrame> published;
  RegionalAggregator raw(tree, 0,
                         [&](UpstreamFrame f) { published.push_back(f); });
  const EdgeAggregator e0(tree, 0);
  const EdgeAggregator e1(tree, 1);
  std::int64_t generated = 0;
  raw.deliver(e0.close_window(0, generated));
  raw.deliver(e1.close_window(0, generated));
  EXPECT_EQ(raw.pending(), 2);
  raw.flush();
  EXPECT_EQ(raw.pending(), 0);
  ASSERT_EQ(published.size(), 2u);  // pass-through: one publish per frame
  // Raw edge frames carry every sample record.
  EXPECT_EQ(published[0].bytes,
            kFrameHeaderBytes + spec.edge.fan_in * spec.sample_bytes);

  spec.edge.reduce = Reduce::kMean;
  spec.regional.reduce = Reduce::kMean;
  TreeConfig folded_tree = tree;
  folded_tree.spec = spec;
  published.clear();
  RegionalAggregator folded(folded_tree, 0,
                            [&](UpstreamFrame f) { published.push_back(f); });
  const EdgeAggregator f0(folded_tree, 0);
  const EdgeAggregator f1(folded_tree, 1);
  folded.deliver(f0.close_window(0, generated));
  folded.deliver(f1.close_window(0, generated));
  folded.flush();
  ASSERT_EQ(published.size(), 1u);  // one combined upstream frame
  EXPECT_EQ(published[0].segments.size(), 2u);
  EXPECT_EQ(published[0].collected, 2 * spec.edge.fan_in);
  EXPECT_EQ(published[0].bytes, kFrameHeaderBytes + 2 * kAggRecordBytes);
}

/// Brute-force count of the collected samples in `frame` sent before
/// `cutoff`, walking every segment.
std::int64_t walk_late(const TreeConfig& tree, const UpstreamFrame& frame,
                       SimTime cutoff) {
  std::int64_t late = 0;
  for (const EdgeFrame& segment : frame.segments) {
    tree.for_each_sample(
        segment.edge, segment.window,
        [&](std::int64_t, std::int64_t, SimTime send, bool lost) {
          if (!lost && send < cutoff) ++late;
        });
  }
  return late;
}

TEST(AggregatorTest, RootLateCountMatchesBruteForceWalk) {
  // A lossy link and several samples per segment, so a cutoff can fall
  // between the send times inside one segment. The 3 s window holds three
  // samples per generator; the sub-period one ends 1 ns after the largest
  // phase of a collected first sample, so a cutoff at `end - 1` must
  // leave that sample on time.
  TopologySpec spec = small_spec();
  spec.sample_period = units::seconds(1);
  spec.edge.link.loss = 0.1;
  const FleetState fleet(spec, 5);
  SimTime peak = 0;
  for (std::int64_t g = 0; g < 100; ++g) {  // regional 0's generators
    if (!fleet.sample_lost(g, 0)) peak = std::max(peak, fleet.phase(g));
  }
  for (const SimTime window : {units::seconds(3), peak + 1}) {
    for (const Reduce regional : {Reduce::kRaw, Reduce::kMean}) {
      spec.edge.window = window;
      spec.regional.reduce = regional;
      TreeConfig tree;
      tree.spec = spec;
      tree.shape = spec.expand();
      tree.fleet = &fleet;
      tree.epoch = units::seconds(1);
      tree.windows = 3;

      std::vector<UpstreamFrame> frames;
      RegionalAggregator aggregator(
          tree, 0, [&](UpstreamFrame f) { frames.push_back(std::move(f)); });
      for (std::int64_t w = 0; w < tree.windows; ++w) {
        for (std::int64_t e = tree.shape.edge_begin(0);
             e < tree.shape.edge_end(0); ++e) {
          std::int64_t generated = 0;
          const EdgeAggregator edge(tree, e);
          aggregator.deliver(edge.close_window(w, generated));
        }
        aggregator.flush();
      }
      // Raw pass-through: one segment per frame; reduced: one frame per
      // flush with a segment per edge.
      ASSERT_EQ(frames.size(), regional == Reduce::kRaw ? 15u : 3u);

      int partial = 0;
      for (const UpstreamFrame& frame : frames) {
        ASSERT_EQ(frame.segments.size(), regional == Reduce::kRaw ? 1u : 5u);
        std::vector<SimTime> cutoffs;
        for (const EdgeFrame& segment : frame.segments) {
          const SimTime end = tree.window_end(segment.window);
          // Before and at the oldest sample, at the window end, past it.
          for (const SimTime c : {segment.oldest_send - 1, segment.oldest_send,
                                  end - 1, end, end + units::seconds(1)}) {
            cutoffs.push_back(c);
          }
          // Inside the window: at and just after every send time.
          tree.for_each_sample(
              segment.edge, segment.window,
              [&](std::int64_t, std::int64_t, SimTime send, bool) {
                cutoffs.push_back(send);
                cutoffs.push_back(send + 1);
              });
        }
        for (const SimTime cutoff : cutoffs) {
          const std::int64_t expected = walk_late(tree, frame, cutoff);
          ASSERT_EQ(late_samples(tree, frame, cutoff), expected)
              << "cutoff " << cutoff;
          if (expected > 0 && expected < frame.collected) ++partial;
        }
        EXPECT_EQ(late_samples(tree, frame, frame.oldest_send), 0);
        EXPECT_EQ(late_samples(tree, frame, tree.window_end(tree.windows)),
                  frame.collected);
      }
      EXPECT_GT(partial, 0);
    }
  }
}

// OOM wall: when the server heap refuses a regional's connection, every
// generator in that regional's subtree is refused — not just the one
// backend client that failed to connect (satellite: honest loss
// accounting at fleet granularity).
TEST(HierExperimentTest, RefusedRegionalCountsDescendantGenerators) {
  core::HierConfig config;
  config.backend = core::HierBackend::kNarada;
  config.topology = small_spec();
  config.duration = units::minutes(1);
  // Enough heap for the broker baseline (46 MiB) and part of the regional
  // tier, not all of it: some of the 4 regionals (100 generators each)
  // must be turned away at ~266 KiB per connection.
  config.server_memory_budget = 47 * units::MiB;
  const core::Results results = core::run_hier_experiment(config);
  EXPECT_GT(results.refused, 0u);
  EXPECT_LT(results.refused, 400u);
  // Refusals come in whole subtrees.
  EXPECT_EQ(results.refused % 100, 0u);
  EXPECT_TRUE(results.hit_oom_wall());
  EXPECT_FALSE(results.completed);
  EXPECT_EQ(results.generators, 400);
  // The regionals that did connect still delivered their samples.
  EXPECT_GT(results.metrics.received(), 0u);
}

TEST(HierExperimentTest, FullFleetDeliversEverySample) {
  core::HierConfig config;
  config.backend = core::HierBackend::kNarada;
  config.topology = small_spec();
  config.duration = units::minutes(1);
  const core::Results results = core::run_hier_experiment(config);
  EXPECT_EQ(results.refused, 0u);
  EXPECT_TRUE(results.completed);
  EXPECT_GT(results.metrics.sent(), 0u);
  EXPECT_EQ(results.metrics.sent(), results.metrics.received());
}

// Edge and regional windows (6 s each) long enough that a frame's oldest
// samples miss the 5 s deadline while its newest make it: the only run
// shape where the root's late count falls strictly between 0 and the
// received count. The counts are pinned from the division-based walk.
TEST(HierExperimentTest, LongWindowsMakeSomeButNotAllSamplesLate) {
  core::HierConfig config;
  config.backend = core::HierBackend::kNarada;
  config.topology = small_spec();
  config.topology.edge.window = units::seconds(6);
  config.topology.regional.window = units::seconds(6);
  config.topology.edge.link.loss = 0.1;
  config.duration = units::minutes(1);
  const core::Results results = core::run_hier_experiment(config);
  const core::Metrics& metrics = results.metrics;
  EXPECT_GT(metrics.delivered_late(), 0u);
  EXPECT_LT(metrics.delivered_late(), metrics.received());
  EXPECT_EQ(metrics.sent(), 2400u);
  EXPECT_EQ(metrics.received(), 2163u);
  EXPECT_EQ(metrics.delivered_late(), 435u);
}

}  // namespace
}  // namespace gridmon::hier
