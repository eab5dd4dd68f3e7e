#include "obs/recorder.hpp"

#include <algorithm>

#include "core/message_id.hpp"

namespace gridmon::obs {

TraceKey key_of(std::string_view id) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (unsigned char c : id) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

TraceKey key_of(const core::MessageId& id) {
  char buf[core::MessageId::kMaxChars];
  return key_of(id.format(buf));
}

TraceKey key_of(std::int64_t a, std::int64_t b) {
  // splitmix64-style mix of the pair; the constants are the standard
  // finalizer's, good enough to decorrelate (id, seq) lattices.
  auto mix = [](std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  return mix(mix(static_cast<std::uint64_t>(a)) ^
             static_cast<std::uint64_t>(b));
}

Recorder::Recorder(sim::Simulation& sim, Options options)
    : sim_(sim), options_(options) {}

bool Recorder::want_trace(TraceKey key) const {
  if (options_.span_sample_every == 0) return false;
  if (options_.span_sample_every == 1) return true;
  // The key is already a mixed hash; its low bits are uniform enough for
  // the modulus to pick a stable, seed-independent 1-in-N subset.
  return key % options_.span_sample_every == 0;
}

std::uint16_t Recorder::intern(std::string_view stage) {
  auto it = stage_index_.find(std::string(stage));
  if (it != stage_index_.end()) return it->second;
  const auto index = static_cast<std::uint16_t>(stage_names_.size());
  stage_names_.emplace_back(stage);
  stage_index_.emplace(stage_names_.back(), index);
  return index;
}

void Recorder::mark(TraceKey key, std::string_view stage) {
  mark_at(key, stage, sim_.now());
}

void Recorder::mark_at(TraceKey key, std::string_view stage, SimTime at) {
  if (!want_trace(key)) return;
  live_[key].push_back(Mark{intern(stage), at});
}

void Recorder::complete(TraceKey key) {
  auto it = live_.find(key);
  if (it == live_.end()) return;
  CompletedTrace trace;
  trace.key = key;
  trace.marks = std::move(it->second);
  live_.erase(it);
  // Stable time-sort: stage durations between consecutive marks are then
  // non-negative and telescope exactly (R-GMA poll issue times can precede
  // the eval-cycle completion that matched the tuple).
  std::stable_sort(
      trace.marks.begin(), trace.marks.end(),
      [](const Mark& a, const Mark& b) { return a.at < b.at; });
  completed_.push_back(std::move(trace));
}

void Recorder::add_chaos(std::string name, SimTime begin, SimTime end) {
  chaos_.push_back(ChaosSpan{std::move(name), begin, end});
}

void Recorder::arm(SimTime first_at) {
  timer_ = sim::PeriodicTimer(sim_, first_at, options_.sample_period, [this] {
    // The sampling tick is a pure observer: discount it so
    // KernelStats.events_executed is identical with obs on or off.
    sim_.discount_stat_event();
    if (sampler_) sampler_(timeline_);
    timeline_.sample(sim_.now());
  });
}

std::shared_ptr<const Report> Recorder::finish(SimTime horizon) {
  timer_.cancel();
  // Close the final partial window so late deliveries are visible.
  if (sampler_) sampler_(timeline_);
  timeline_.sample(horizon);

  auto report = std::make_shared<Report>();
  report->options = options_;
  report->columns = timeline_.columns();
  report->samples = timeline_.samples();
  report->stage_names = std::move(stage_names_);
  // Deterministic order: completion order is event order, already stable.
  report->traces = std::move(completed_);
  report->traces_dropped = live_.size();
  report->chaos = std::move(chaos_);
  std::stable_sort(report->chaos.begin(), report->chaos.end(),
                   [](const ChaosSpan& a, const ChaosSpan& b) {
                     return a.begin < b.begin;
                   });
  report->horizon = horizon;
  return report;
}

namespace detail {
Recorder*& current_recorder() {
  thread_local Recorder* current = nullptr;
  return current;
}
}  // namespace detail

Recorder* tracer() { return detail::current_recorder(); }

ScopedRecorder::ScopedRecorder(Recorder* recorder)
    : previous_(detail::current_recorder()) {
  detail::current_recorder() = recorder;
}

ScopedRecorder::~ScopedRecorder() { detail::current_recorder() = previous_; }

}  // namespace gridmon::obs
