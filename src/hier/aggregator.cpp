#include "hier/aggregator.hpp"

#include <utility>

#include "obs/memprof.hpp"

namespace gridmon::hier {

namespace {

/// Model bytes one buffered EdgeFrame costs the regional tier.
[[nodiscard]] std::int64_t pending_cost(const EdgeFrame&) {
  return static_cast<std::int64_t>(sizeof(EdgeFrame));
}

}  // namespace

SimTime EdgeAggregator::close_time(std::int64_t window) const {
  // The edge waits out the generator→edge hop (so the window's last
  // samples have arrived), then ships the frame over its edge→regional
  // link with a deterministic per-edge spread.
  const TopologySpec& spec = config_.spec;
  return config_.window_end(window) + spec.edge.link.latency +
         spec.edge.link.jitter + spec.regional.link.latency +
         TreeConfig::spread(edge_, spec.regional.link.jitter);
}

EdgeFrame EdgeAggregator::close_window(std::int64_t window,
                                       std::int64_t& generated) const {
  EdgeFrame frame;
  frame.edge = edge_;
  frame.window = window;
  generated = 0;

  double sum = 0.0;
  double last = 0.0;
  SimTime last_send = -1;
  const Reduce reduce = config_.spec.edge.reduce;
  config_.for_each_sample(
      edge_, window,
      [&](std::int64_t g, std::int64_t k, SimTime send, bool lost) {
        ++generated;
        if (lost) return;
        if (frame.collected == 0 || send < frame.oldest_send) {
          frame.oldest_send = send;
        }
        ++frame.collected;
        if (reduce == Reduce::kRaw) return;
        const double v = config_.fleet->value(g, k);
        sum += v;
        if (send >= last_send) {
          last_send = send;
          last = v;
        }
      });

  if (frame.collected == 0) return frame;
  switch (reduce) {
    case Reduce::kRaw:
      frame.bytes =
          kFrameHeaderBytes + frame.collected * config_.spec.sample_bytes;
      break;
    case Reduce::kSum:
      frame.aggregate = sum;
      frame.bytes = kFrameHeaderBytes + kAggRecordBytes;
      break;
    case Reduce::kMean:
      frame.aggregate = sum / static_cast<double>(frame.collected);
      frame.bytes = kFrameHeaderBytes + kAggRecordBytes;
      break;
    case Reduce::kLast:
      frame.aggregate = last;
      frame.bytes = kFrameHeaderBytes + kAggRecordBytes;
      break;
  }
  return frame;
}

std::int64_t late_samples(const TreeConfig& tree, const UpstreamFrame& frame,
                          SimTime cutoff) {
  std::int64_t late = 0;
  for (const EdgeFrame& segment : frame.segments) {
    if (cutoff <= segment.oldest_send) continue;
    if (cutoff >= tree.window_end(segment.window)) {
      late += segment.collected;
      continue;
    }
    tree.for_each_sample(
        segment.edge, segment.window,
        [&](std::int64_t, std::int64_t, SimTime send, bool lost) {
          if (!lost && send < cutoff) ++late;
        });
  }
  return late;
}

void RegionalAggregator::deliver(EdgeFrame frame) {
  obs::mem_add(obs::MemCategory::kHier, pending_cost(frame));
  pending_.push_back(std::move(frame));
}

void RegionalAggregator::flush() {
  if (pending_.empty()) return;
  std::vector<EdgeFrame> batch;
  batch.swap(pending_);
  std::int64_t freed = 0;
  for (const EdgeFrame& frame : batch) freed += pending_cost(frame);
  obs::mem_sub(obs::MemCategory::kHier, freed);

  if (config_.spec.regional.reduce == Reduce::kRaw) {
    // Pure broker tier: re-publish each edge frame as its own upstream
    // message, size unchanged.
    for (EdgeFrame& frame : batch) {
      UpstreamFrame up;
      up.regional = regional_;
      up.bytes = frame.bytes;
      up.collected = frame.collected;
      up.oldest_send = frame.oldest_send;
      up.segments.push_back(std::move(frame));
      publish_(std::move(up));
    }
    return;
  }

  // Reducing tier: fold everything pending into one frame carrying one
  // fixed-size record per covered edge frame.
  UpstreamFrame up;
  up.regional = regional_;
  up.bytes = kFrameHeaderBytes +
             static_cast<std::int64_t>(batch.size()) * kAggRecordBytes;
  for (const EdgeFrame& frame : batch) {
    up.collected += frame.collected;
    if (up.segments.empty() || frame.oldest_send < up.oldest_send) {
      up.oldest_send = frame.oldest_send;
    }
    up.segments.push_back(frame);
  }
  publish_(std::move(up));
}

}  // namespace gridmon::hier
