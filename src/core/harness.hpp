// The run scaffold every experiment shares.
//
// The paper's Narada and R-GMA numbers only compare because both ran under
// one test procedure: the §III.E connection stagger, a 10–20 s warm-up, the
// 10 s publish period, the 5 s delivery deadline, and the same RTT, loss
// and vmstat metrics. A Harness is that procedure for one run. Each
// run_*_experiment creates one, builds its middleware on harness.hydra(),
// and supplies only what is specific to it: node placement, clients,
// middleware fault hooks and counter gauges. The harness owns the rest:
//  - the Hydra testbed and the Results bundle (5 s deadline, fleet size);
//  - the obs Recorder and MemProfile with their thread-local installs, and
//    the timeline columns every backend shares;
//  - the FaultInjector / AvailabilityTracker pair and the LAN fault hooks;
//  - refusal counting, split into in-fault and resource refusals;
//  - in-flight send records and delivery accounting (InFlight below);
//  - vmstat over the server hosts, the run itself, and the common Results
//    fields.
//
// Event order is part of the contract. The kernel breaks same-time ties by
// insertion order, so run() schedules after everything the backend already
// scheduled (fleet and subscriber starts), in a fixed order: fault
// injector, then the obs sampler, then vmstat.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/hydra.hpp"
#include "core/experiment.hpp"
#include "core/message_id.hpp"
#include "core/payloads.hpp"
#include "net/client_link.hpp"
#include "util/rng.hpp"

namespace gridmon::core {

/// A named timeline column, read from model state at every sample.
struct Probe {
  std::string name;
  std::function<double()> read;
};

/// The backend-specific part of a run's timeline. Columns export in this
/// order after the shared ones (sent, received, rtt_ms, kernel_events,
/// kernel_queue_depth, lan_in_flight, lan_dropped): the counters; then, on
/// memprof runs, one mem_* gauge per category and mem_total; then, on
/// replay runs, the replay probes and (memprof on) mem_history.
struct Columns {
  std::vector<Probe> counters;
  std::vector<obs::MemCategory> mem;
  std::vector<Probe> replay;  ///< empty = not a replay run
};

/// One send awaiting delivery. after_sending starts equal to
/// before_sending (the PRT-unknown sentinel) until the middleware reports
/// the send complete.
struct SentRecord {
  SimTime before_sending = 0;
  SimTime after_sending = 0;
};

/// When a run's phases fall, in absolute virtual time.
struct Phases {
  SimTime steady_begin = 0;  ///< fault anchor; CPU-idle window opens
  SimTime duration = 0;      ///< steady window length (vmstat stops after)
  SimTime drain = 0;         ///< run on past the window for late deliveries
};

class Harness {
 public:
  /// Fleets, the obs sampler and memory vmstat all start at t = 1 s.
  static constexpr SimTime kStartTime = units::seconds(1);

  Harness(const cluster::HydraConfig& hydra_config, std::int64_t generators);
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  [[nodiscard]] cluster::Hydra& hydra() { return hydra_; }
  [[nodiscard]] sim::Simulation& sim() { return hydra_.sim(); }
  [[nodiscard]] Metrics& metrics() { return results_.metrics; }

  /// The steady epoch of a staggered fleet: the last client is created and
  /// has finished the longest warm-up.
  [[nodiscard]] static SimTime steady_begin(const FleetConfig& fleet);
  /// Uniform draw in [lo, hi) — the warm-up sleep, or a start phase.
  [[nodiscard]] static SimTime uniform_time(util::Rng& rng, SimTime lo,
                                            SimTime hi);

  /// Create the Recorder and MemProfile when `options` enables them, lay
  /// out the timeline columns, and install both thread-locally for the
  /// rest of the run (installs null when off). Call once; middleware built
  /// after this call is memory-accounted, middleware built before is not.
  void observe(const obs::Options& options, Columns columns);

  /// The server refused `n` connections or registrations. Those inside an
  /// injected fault window are the schedule at work, not resource
  /// exhaustion, and are counted apart (Results::refused_in_faults).
  void refuse(std::uint64_t n = 1);

  /// An end-to-end delivery, for time-to-recover after fault windows.
  void on_delivery();

  /// Record a delivered send: four-phase Metrics and the RTT histogram.
  void record(const SentRecord& sent, SimTime before_receiving);

  /// A send that can never be delivered: classify it against the fault
  /// windows now instead of at run end.
  void lose(SimTime before_sending);

  /// Classify `fn`'s outstanding sends as losses at run end.
  void add_outstanding(std::function<void()> fn) {
    outstanding_.push_back(std::move(fn));
  }

  /// Run the experiment: arm `plan` at phases.steady_begin through `hooks`
  /// (the LAN hooks are filled in here), arm the obs sampler at
  /// kStartTime, sample vmstat on `server_hosts`, run to the horizon, and
  /// return the Results with every field the backends share filled in.
  /// The caller adds its middleware counters afterwards.
  [[nodiscard]] Results run(const FaultPlan& plan, FaultHooks hooks,
                            const std::vector<int>& server_hosts,
                            const Phases& phases);

 private:
  void add_gauge(const std::string& name, std::function<double()> read);

  cluster::Hydra hydra_;
  double base_loss_;
  Results results_;
  std::unique_ptr<obs::Recorder> recorder_;
  std::unique_ptr<obs::MemProfile> memprof_;
  std::optional<obs::ScopedRecorder> scoped_recorder_;
  std::optional<obs::ScopedMemProfile> scoped_memprof_;
  obs::HistogramSeries* rtt_series_ = nullptr;
  std::vector<std::pair<obs::Gauge*, std::function<double()>>> gauges_;
  std::unique_ptr<FaultInjector> injector_;
  AvailabilityTracker tracker_;
  std::uint64_t refused_in_faults_ = 0;
  std::vector<std::function<void()>> outstanding_;
};

/// A generator's publish cadence once it is connected (§III.E): sleep the
/// warm-up, then publish once per period, duration / period times in all.
class PublishLoop {
 public:
  PublishLoop() = default;
  PublishLoop(const PublishLoop&) = delete;  // scheduled events hold `this`
  PublishLoop& operator=(const PublishLoop&) = delete;

  void start(sim::Simulation& sim, SimTime warmup, const FleetConfig& fleet,
             SimTime duration, std::function<void()> publish);

 private:
  void next();

  sim::Simulation* sim_ = nullptr;
  SimTime period_ = 0;
  std::int64_t remaining_ = 0;
  std::function<void()> publish_;
};

/// The client reconnect policy the fleet's backoff_* knobs describe (callers
/// install it only when `fleet.recovery` is on).
[[nodiscard]] net::ReconnectPolicy reconnect_policy(const FleetConfig& fleet);

/// The id a client at `local` stamps on its publish number `seq`.
[[nodiscard]] inline MessageId message_id(net::Endpoint local,
                                          std::int64_t seq) {
  return MessageId{local.node, local.port, seq};
}

/// Span identity of an in-flight key: the hash of a message id (parsed or
/// as text), or the (generator, sequence) pair a row key packs.
[[nodiscard]] inline obs::TraceKey trace_key(const MessageId& id) {
  return obs::key_of(id);
}
[[nodiscard]] inline obs::TraceKey trace_key(const std::string& message_id) {
  return obs::key_of(message_id);
}
[[nodiscard]] inline obs::TraceKey trace_key(std::int64_t row) {
  return obs::key_of(row / kRowKeySpan, row % kRowKeySpan);
}

/// Sends awaiting delivery, keyed by the identity the middleware carries
/// end to end (a message id, or an R-GMA row key). Whatever is still here
/// at run end is a loss, classified against the fault windows.
template <typename Key, typename Record = SentRecord>
class InFlight {
 public:
  explicit InFlight(Harness& harness) : harness_(harness) {
    harness.add_outstanding([this] {
      for (const auto& entry : records_) {
        harness_.lose(entry.second.before_sending);
      }
    });
  }
  InFlight(const InFlight&) = delete;
  InFlight& operator=(const InFlight&) = delete;

  void add(Key key, Record record) {
    records_.emplace(std::move(key), std::move(record));
  }

  /// A generator publishes `key` at `before`: counts it as sent, records
  /// it in flight and marks the span "pub". Counting at publish intent,
  /// not at send completion, keeps a sample stuck in a disconnected
  /// client's backlog visible as a loss (fault-free runs are unchanged:
  /// every publish completes).
  void publish(Key key, SimTime before) {
    harness_.metrics().count_sent();
    mark(key, "pub", before);
    records_.emplace(std::move(key), Record{before, before});
  }

  /// The middleware finished sending `key` at `after` (PRT endpoint);
  /// marks the span with `stage` at `after` (null = untraced). False, and
  /// no mark, when the record is already gone.
  bool sent(const Key& key, SimTime after, const char* stage = "sent") {
    const auto it = records_.find(key);
    if (it == records_.end()) return false;
    it->second.after_sending = after;
    if (stage != nullptr) mark(key, stage, after);
    return true;
  }

  /// The send failed outright (e.g. an insert refused by a crashed
  /// servlet): a loss now.
  void fail(const Key& key) {
    const auto it = records_.find(key);
    if (it == records_.end()) return;
    harness_.lose(it->second.before_sending);
    records_.erase(it);
  }

  /// Delivery of `key` at the receiver: records the phase timestamps and
  /// the RTT histogram, closes the span trace with `stage` at
  /// before_receiving (null = untraced), hands the record to `on_hit`, and
  /// retires it. False for an unknown key — a duplicate, a status message,
  /// or a send already retired.
  template <typename OnHit>
  bool deliver(const Key& key, SimTime before_receiving, const char* stage,
               OnHit&& on_hit) {
    const auto it = records_.find(key);
    if (it == records_.end()) return false;
    harness_.record(it->second, before_receiving);
    if (stage != nullptr) {
      if (obs::Recorder* r = obs::tracer()) {
        const obs::TraceKey trace = trace_key(key);
        r->mark_at(trace, stage, before_receiving);
        r->mark(trace, "done");
        r->complete(trace);
      }
    }
    on_hit(it->second);
    records_.erase(it);
    return true;
  }
  bool deliver(const Key& key, SimTime before_receiving,
               const char* stage = "recv") {
    return deliver(key, before_receiving, stage, [](const Record&) {});
  }

 private:
  static void mark(const Key& key, const char* stage, SimTime at) {
    if constexpr (!obs::kEnabled) return;
    if (obs::Recorder* r = obs::tracer()) {
      r->mark_at(trace_key(key), stage, at);
    }
  }

  Harness& harness_;
  std::unordered_map<Key, Record> records_;
};

}  // namespace gridmon::core
