#include "core/harness.hpp"

#include "cluster/vmstat.hpp"

namespace gridmon::core {

Harness::Harness(const cluster::HydraConfig& hydra_config,
                 std::int64_t generators)
    : hydra_(hydra_config), base_loss_(hydra_config.lan.datagram_loss) {
  results_.metrics.set_deadline(units::seconds(5));
  results_.generators = generators;
}

SimTime Harness::steady_begin(const FleetConfig& fleet) {
  return kStartTime + fleet.creation_interval * fleet.generators +
         fleet.warmup_max;
}

net::ReconnectPolicy reconnect_policy(const FleetConfig& fleet) {
  net::ReconnectPolicy policy;
  policy.backoff_initial = fleet.backoff_initial;
  policy.backoff_max = fleet.backoff_max;
  policy.jitter = fleet.backoff_jitter;
  return policy;
}

SimTime Harness::uniform_time(util::Rng& rng, SimTime lo, SimTime hi) {
  return static_cast<SimTime>(
      rng.uniform(static_cast<double>(lo), static_cast<double>(hi)));
}

void Harness::add_gauge(const std::string& name,
                        std::function<double()> read) {
  gauges_.emplace_back(&recorder_->timeline().gauge(name), std::move(read));
}

void Harness::observe(const obs::Options& options, Columns columns) {
  if (obs::kEnabled && options.enabled) {
    // The sampler only reads state, so every metric is identical with obs
    // on or off; column creation order is export order.
    recorder_ = std::make_unique<obs::Recorder>(sim(), options);
    add_gauge("sent", [this] { return results_.metrics.sent(); });
    add_gauge("received", [this] { return results_.metrics.received(); });
    rtt_series_ = &recorder_->timeline().histogram("rtt_ms");
    add_gauge("kernel_events",
              [this] { return sim().kernel_stats().events_executed; });
    add_gauge("kernel_queue_depth", [this] { return sim().queue_size(); });
    add_gauge("lan_in_flight",
              [this] { return hydra_.lan().datagrams_in_flight(); });
    add_gauge("lan_dropped",
              [this] { return hydra_.lan().datagrams_dropped(); });
    for (Probe& probe : columns.counters) {
      add_gauge(probe.name, std::move(probe.read));
    }
    if (options.memprof) {
      memprof_ = std::make_unique<obs::MemProfile>();
      for (obs::MemCategory category : columns.mem) {
        add_gauge(std::string(obs::gauge_name(category)),
                  [this, category] { return memprof_->live(category); });
      }
      add_gauge("mem_total", [this] { return memprof_->live_total(); });
    }
    for (Probe& probe : columns.replay) {
      add_gauge(probe.name, std::move(probe.read));
    }
    if (memprof_ && !columns.replay.empty()) {
      add_gauge(std::string(obs::gauge_name(obs::MemCategory::kHistory)),
                [this] { return memprof_->live(obs::MemCategory::kHistory); });
    }
  }
  scoped_recorder_.emplace(recorder_.get());
  scoped_memprof_.emplace(memprof_.get());
}

void Harness::refuse(std::uint64_t n) {
  results_.metrics.count_refused_connection(n);
  if (injector_ && in_fault_window(injector_->windows(), sim().now())) {
    refused_in_faults_ += n;
  }
}

void Harness::on_delivery() { tracker_.on_delivery(sim().now()); }

void Harness::record(const SentRecord& sent, SimTime before_receiving) {
  const SimTime now = sim().now();
  results_.metrics.record(sent.before_sending, sent.after_sending,
                          before_receiving, now);
  if (rtt_series_ != nullptr) {
    rtt_series_->record(units::to_millis(now - sent.before_sending));
  }
}

void Harness::lose(SimTime before_sending) {
  tracker_.classify_loss(before_sending);
}

Results Harness::run(const FaultPlan& plan, FaultHooks hooks,
                     const std::vector<int>& server_hosts,
                     const Phases& phases) {
  const SimTime measure_end = phases.steady_begin + phases.duration;
  const SimTime horizon = measure_end + phases.drain;

  // Fault injection: every event fires at a fixed virtual time, so chaos
  // runs are as deterministic as fault-free ones.
  net::Lan& lan = hydra_.lan();
  hooks.set_nic = [&lan](int node, bool down) {
    lan.set_node_down(node, down);
  };
  hooks.set_loss = [&lan, base = base_loss_](double p, bool active) {
    lan.set_datagram_loss(active ? p : base);
  };
  hooks.set_link_loss = [&lan](int src, int dst, double p, bool active) {
    if (active) {
      lan.set_link_loss(src, dst, p);
    } else {
      lan.clear_link_loss(src, dst);
    }
  };
  injector_ = std::make_unique<FaultInjector>(sim(), plan, std::move(hooks));
  injector_->arm(phases.steady_begin);
  tracker_.set_windows(injector_->windows());

  if (recorder_) {
    // Chaos track: every planned event (instantaneous ones included, which
    // windows() excludes), with anchors resolved the same way arm() does.
    for (const FaultEvent& event : plan.events) {
      const SimTime base =
          event.anchor == FaultAnchor::kSteady ? phases.steady_begin : 0;
      recorder_->add_chaos(std::string(to_string(event.kind)),
                           base + event.at, base + event.at + event.duration);
    }
    recorder_->set_sampler([this](obs::Timeline&) {
      if (memprof_) {
        memprof_->set(obs::MemCategory::kKernelSlab,
                      static_cast<std::int64_t>(
                          sim().kernel_stats().slab_bytes));
      }
      for (auto& [gauge, read] : gauges_) gauge->set(read());
    });
    recorder_->arm(kStartTime);
  }

  // vmstat on every server host: memory (peak - bottom) over the whole run,
  // since the connection ramp is what makes it grow; CPU idle over the
  // steady window only.
  std::vector<std::unique_ptr<cluster::VmstatSampler>> mem_samplers;
  std::vector<std::unique_ptr<cluster::VmstatSampler>> cpu_samplers;
  for (int host : server_hosts) {
    auto* mem = mem_samplers
                    .emplace_back(std::make_unique<cluster::VmstatSampler>(
                        hydra_.host(host)))
                    .get();
    auto* cpu = cpu_samplers
                    .emplace_back(std::make_unique<cluster::VmstatSampler>(
                        hydra_.host(host)))
                    .get();
    sim().schedule_at(kStartTime, [mem] { mem->start(); });
    sim().schedule_at(phases.steady_begin, [cpu] { cpu->start(); });
    sim().schedule_at(measure_end, [mem, cpu] {
      mem->stop();
      cpu->stop();
    });
  }

  sim().run_until(horizon);

  double idle_sum = 0.0;
  std::int64_t mem_sum = 0;
  for (auto& sampler : cpu_samplers) idle_sum += sampler->mean_cpu_idle();
  for (auto& sampler : mem_samplers) mem_sum += sampler->memory_consumption();
  results_.servers.cpu_idle_pct =
      idle_sum / static_cast<double>(cpu_samplers.size());
  results_.servers.memory_bytes =
      mem_sum / static_cast<std::int64_t>(mem_samplers.size());
  for (int host : server_hosts) results_.wire_bytes += lan.bytes_to_node(host);
  results_.refused = results_.metrics.refused_connections();
  results_.refused_in_faults = refused_in_faults_;
  results_.completed = !results_.hit_oom_wall();
  results_.kernel = sim().kernel_stats();
  if (memprof_) {
    memprof_->set(obs::MemCategory::kKernelSlab,
                  static_cast<std::int64_t>(results_.kernel.slab_bytes));
    results_.mem = memprof_->summary();
  }

  // Availability: classify every undelivered send against the fault
  // windows (the sums are order-independent); the caller folds in its
  // recovery effort.
  for (const auto& classify : outstanding_) classify();
  results_.availability = tracker_.finalise(horizon);
  results_.availability.fault_events = injector_->injected();
  results_.availability.delivered_late = results_.metrics.delivered_late();
  if (recorder_) results_.obs = recorder_->finish(horizon);
  return std::move(results_);
}

void PublishLoop::start(sim::Simulation& sim, SimTime warmup,
                        const FleetConfig& fleet, SimTime duration,
                        std::function<void()> publish) {
  sim_ = &sim;
  period_ = fleet.publish_period;
  remaining_ = period_ > 0 ? duration / period_ : 0;
  publish_ = std::move(publish);
  sim.schedule_after(warmup, [this] { next(); });
}

void PublishLoop::next() {
  if (remaining_ <= 0) return;
  --remaining_;
  publish_();
  sim_->schedule_after(period_, [this] { next(); });
}

}  // namespace gridmon::core
