// Hierarchical aggregation harness: see core/hier_experiment.hpp.
//
// Tier map onto the Hydra testbed: the backend server (broker / R-GMA
// services) keeps host 0 and the root subscriber host 1, exactly like the
// flat harnesses; regional publishers round-robin over the remaining
// hosts. Generators and edge aggregators are *not* hosts — they are
// flyweight state (hier::FleetState) plus synthesis-at-window-close logic
// (hier::EdgeAggregator), so only regionals × backend-client objects scale
// with the tree, not with the generator count.

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/costs.hpp"
#include "core/harness.hpp"
#include "core/hier_experiment.hpp"
#include "hier/aggregator.hpp"
#include "mqtt/broker.hpp"
#include "mqtt/client.hpp"
#include "narada/client.hpp"
#include "narada/dbn.hpp"
#include "rgma/api.hpp"
#include "rgma/network.hpp"
#include "util/intern.hpp"

namespace gridmon::core {

const char* to_string(HierBackend backend) {
  switch (backend) {
    case HierBackend::kNarada:
      return "narada";
    case HierBackend::kRgma:
      return "rgma";
    case HierBackend::kMqtt:
      return "mqtt";
  }
  return "unknown";
}

namespace {

constexpr SimTime kDrainTime = units::seconds(60);
constexpr const char* kTopic = "powergrid/monitoring";
constexpr const char* kTable = "generators";
constexpr std::uint16_t kMqttPort = 1883;
constexpr int kServerHost = 0;
constexpr int kRootHost = 1;

/// An upstream frame awaiting its root delivery. before_sending is the
/// frame's oldest collected sample's send time, so the recorded RTT is the
/// worst-case staleness the frame imposed on any sample it carries.
struct FrameRecord : SentRecord {
  hier::UpstreamFrame frame;
};

/// Shared run state the regionals and the root both touch.
struct HierRun {
  Harness& harness;
  const HierConfig& config;
  hier::TreeConfig tree;
  /// Frames in flight, keyed by backend message id (Narada/MQTT) or by
  /// row_key (R-GMA). Only one is populated per run.
  InFlight<std::string, FrameRecord> in_flight;
  InFlight<std::int64_t, FrameRecord> rgma_in_flight;
  /// Interned topic/name storage shared by the regional tier (the
  /// flyweight satellite: one arena instead of per-node strings).
  util::StringTable names;
  std::uint64_t frames_published = 0;
  std::uint64_t frames_delivered = 0;

  HierRun(Harness& h, const HierConfig& c)
      : harness(h), config(c), in_flight(h), rgma_in_flight(h) {}
};

/// Root-side accounting for one delivered frame. The harness has recorded
/// the oldest sample (keeping the RTT distribution honest about
/// staleness); the frame's collected count and hier::late_samples() cover
/// the rest, so the received/late counters stay per-sample.
void account_samples(HierRun& run, const FrameRecord& record) {
  const SimTime now = run.harness.sim().now();
  constexpr SimTime kDeadline = units::seconds(5);
  const std::int64_t collected = record.frame.collected;
  const auto late = static_cast<std::uint64_t>(
      hier::late_samples(run.tree, record.frame, now - kDeadline));
  Metrics& metrics = run.harness.metrics();
  if (collected > 0) {
    metrics.count_received(static_cast<std::uint64_t>(collected - 1));
  }
  const std::uint64_t oldest_late =
      now - record.before_sending > kDeadline ? 1 : 0;
  if (late > oldest_late) metrics.count_delivered_late(late - oldest_late);
  ++run.frames_delivered;
}

/// Root-side delivery of the frame under `key`.
template <typename Key>
void deliver_frame(HierRun& run, InFlight<Key, FrameRecord>& in_flight,
                   const Key& key, SimTime arrived_at) {
  in_flight.deliver(key, arrived_at, /*stage=*/nullptr,
                    [&run](const FrameRecord& record) {
                      account_samples(run, record);
                    });
}

/// One regional publisher: owns this subtree's EdgeAggregators, a
/// RegionalAggregator, and the backend client that carries its upstream
/// frames. Created on the connection stagger like the flat fleets; a
/// refused connection (the server's OOM wall) silences the whole subtree,
/// and is counted as one refusal per *descendant generator* so the
/// refused/loss accounting stays comparable with flat runs.
class Regional {
 public:
  Regional(HierRun& run, std::int64_t id, int host)
      : run_(run),
        id_(id),
        host_(host),
        rng_(run.harness.sim().rng_stream("hier.regional").stream(
            static_cast<std::uint64_t>(id))),
        aggregator_(run.tree, id,
                    [this](hier::UpstreamFrame frame) {
                      publish(std::move(frame));
                    }),
        topic_(run.names.intern("powergrid/region" + std::to_string(id) +
                                "/agg")) {
    const auto& shape = run_.tree.shape;
    for (std::int64_t e = shape.edge_begin(id); e < shape.edge_end(id); ++e) {
      edges_.emplace_back(run_.tree, e);
    }
    next_window_.assign(edges_.size(), 0);
  }

  /// Wire the backend client (exactly one per regional).
  void attach_narada(cluster::Hydra& hydra, net::Endpoint broker,
                     narada::TransportKind transport) {
    const auto port = static_cast<std::uint16_t>(10000 + id_ % 50000);
    narada_ = narada::NaradaClient::create(hydra.host(host_), hydra.lan(),
                                           hydra.streams(), broker,
                                           net::Endpoint{host_, port},
                                           transport);
  }
  void attach_mqtt(cluster::Hydra& hydra, net::Endpoint broker) {
    const auto port = static_cast<std::uint16_t>(10000 + id_ % 50000);
    mqtt::MqttClientOptions options;
    options.client_id = "regional-" + std::to_string(id_);
    mqtt_ = mqtt::MqttClient::create(hydra.host(host_), hydra.lan(),
                                     hydra.streams(), broker,
                                     net::Endpoint{host_, port},
                                     std::move(options));
  }
  void attach_rgma(cluster::Hydra& hydra, net::HttpClient& http,
                   net::Endpoint service) {
    producer_ = std::make_unique<rgma::PrimaryProducer>(
        hydra.host(host_), http, service, static_cast<int>(id_), kTable);
  }

  void start() {
    auto on_ready = [this](bool ok) {
      if (!ok) {
        run_.harness.refuse(static_cast<std::uint64_t>(
            run_.tree.shape.generators_under(id_)));
        return;
      }
      start_tree();
    };
    if (narada_) {
      narada_->connect(on_ready);
    } else if (mqtt_) {
      mqtt_->connect(on_ready);
    } else {
      producer_->declare(on_ready);
    }
  }

 private:
  void start_tree() {
    for (std::size_t i = 0; i < edges_.size(); ++i) {
      run_.harness.sim().schedule_at(edges_[i].close_time(0),
                                   [this, i] { run_edge(i); });
    }
    const SimTime first = run_.tree.epoch + run_.config.topology.regional.window +
                          aggregator_.flush_offset();
    flush_timer_ = sim::PeriodicTimer(run_.harness.sim(), first,
                                      run_.config.topology.regional.window,
                                      [this] { aggregator_.flush(); });
  }

  void run_edge(std::size_t i) {
    const std::int64_t window = next_window_[i]++;
    std::int64_t generated = 0;
    hier::EdgeFrame frame = edges_[i].close_window(window, generated);
    if (generated > 0) {
      run_.harness.metrics().count_sent(
          static_cast<std::uint64_t>(generated));
    }
    if (frame.collected > 0) aggregator_.deliver(std::move(frame));
    if (next_window_[i] < run_.tree.windows) {
      run_.harness.sim().schedule_at(edges_[i].close_time(next_window_[i]),
                                   [this, i] { run_edge(i); });
    }
  }

  void publish(hier::UpstreamFrame frame) {
    ++run_.frames_published;
    if (narada_) {
      // Frame wire size rides as message padding on top of the standard
      // monitoring MapMessage.
      std::int64_t pad = frame.bytes - cluster::costs::kNaradaMessageBytes;
      if (pad < 0) pad = 0;
      jms::Message msg = make_generator_message(kTopic, id_, sequence_++,
                                                narada_->local().node, rng_,
                                                pad);
      // The client stamps "ID:node-port-<n>" with its own counter starting
      // at 1, so the key uses the post-increment sequence (the same idiom
      // as the flat Narada harness).
      const std::string key =
          message_id(narada_->local(), sequence_).to_string();
      run_.in_flight.add(key, record(std::move(frame)));
      narada_->publish(std::move(msg), [this, key](SimTime after) {
        run_.in_flight.sent(key, after, /*stage=*/nullptr);
      });
    } else if (mqtt_) {
      const std::string key =
          "hier-" + std::to_string(id_) + "-" + std::to_string(sequence_++);
      const std::string topic{run_.names.view(topic_)};
      const std::int64_t payload = frame.bytes;
      run_.in_flight.add(key, record(std::move(frame)));
      mqtt_->publish(topic, payload, /*qos=*/0, /*retain=*/false, key,
                     [this, key](SimTime after) {
                       run_.in_flight.sent(key, after, /*stage=*/nullptr);
                     });
    } else {
      // R-GMA rows are fixed-size (the paper's 16-column schema), so the
      // frame's modelled wire size is not inflated onto the INSERT; the
      // aggregation still shows up as 1/batch the insert *count*.
      const std::int64_t seq = sequence_++;
      const std::int64_t key = row_key(id_, seq);
      auto row = make_generator_row(id_, seq, frame.oldest_send, rng_);
      run_.rgma_in_flight.add(key, record(std::move(frame)));
      producer_->insert(std::move(row), [this, key](bool ok, SimTime after) {
        if (ok) {
          run_.rgma_in_flight.sent(key, after, /*stage=*/nullptr);
        } else {
          run_.rgma_in_flight.fail(key);
        }
      });
    }
  }

  [[nodiscard]] static FrameRecord record(hier::UpstreamFrame frame) {
    const SimTime oldest = frame.oldest_send;
    return FrameRecord{{oldest, oldest}, std::move(frame)};
  }

  HierRun& run_;
  std::int64_t id_;
  int host_;
  util::Rng rng_;
  hier::RegionalAggregator aggregator_;
  util::StringTable::Id topic_;
  std::vector<hier::EdgeAggregator> edges_;
  std::vector<std::int64_t> next_window_;
  sim::PeriodicTimer flush_timer_;
  std::shared_ptr<narada::NaradaClient> narada_;
  std::shared_ptr<mqtt::MqttClient> mqtt_;
  std::unique_ptr<rgma::PrimaryProducer> producer_;
  std::int64_t sequence_ = 0;
};

}  // namespace

Results run_hier_experiment(const HierConfig& config) {
  const hier::TopologySpec::Expansion shape = config.topology.expand();

  cluster::HydraConfig hydra_config;
  hydra_config.seed = config.seed;
  if (config.server_memory_budget > 0) {
    hydra_config.host.memory_budget = config.server_memory_budget;
  }
  Harness harness(hydra_config, config.topology.generators);
  cluster::Hydra& hydra = harness.hydra();

  HierRun run(harness, config);
  run.tree.spec = config.topology;
  run.tree.shape = shape;
  run.tree.epoch = Harness::kStartTime +
                   config.creation_interval * shape.regionals +
                   units::seconds(1);
  run.tree.windows = config.duration / config.topology.edge.window;
  if (run.tree.windows < 1) run.tree.windows = 1;

  // Observability first so the flyweight allocations below are accounted.
  Columns columns;
  columns.counters = {
      {"frames_published", [&run] { return run.frames_published; }},
      {"frames_delivered", [&run] { return run.frames_delivered; }},
  };
  columns.mem = {obs::MemCategory::kHier, obs::MemCategory::kNetConnections,
                 obs::MemCategory::kKernelSlab};
  harness.observe(config.obs, std::move(columns));

  // The flyweight fleet: 8 bytes per generator, shared by every edge.
  hier::FleetState fleet(config.topology, config.seed);
  run.tree.fleet = &fleet;
  obs::mem_add(obs::MemCategory::kHier, fleet.bytes());

  // Backend server on host 0, mirroring the flat harnesses.
  std::unique_ptr<narada::Dbn> dbn;
  std::unique_ptr<mqtt::MqttBroker> mqtt_broker;
  std::unique_ptr<rgma::RgmaNetwork> rgma_network;
  const net::Endpoint mqtt_endpoint{kServerHost, kMqttPort};
  if (config.backend == HierBackend::kNarada) {
    narada::DbnConfig dbn_config;
    dbn_config.broker_hosts = {kServerHost};
    dbn = std::make_unique<narada::Dbn>(hydra, dbn_config);
    dbn->start();
  } else if (config.backend == HierBackend::kMqtt) {
    mqtt::MqttBrokerConfig broker_config;
    broker_config.endpoint = mqtt_endpoint;
    mqtt_broker = std::make_unique<mqtt::MqttBroker>(
        hydra.host(kServerHost), hydra.lan(), hydra.streams(), broker_config);
    mqtt_broker->start();
  } else {
    rgma::RgmaNetworkConfig net_config;
    net_config.registry_host = kServerHost;
    net_config.producer_hosts = {kServerHost};
    net_config.consumer_hosts = {kServerHost};
    rgma_network = std::make_unique<rgma::RgmaNetwork>(hydra, net_config);
    rgma_network->create_table(generator_table(kTable));
  }

  // Root subscriber on host 1.
  std::shared_ptr<narada::NaradaClient> narada_root;
  std::shared_ptr<mqtt::MqttClient> mqtt_root;
  std::unique_ptr<net::HttpClient> rgma_root_http;
  std::unique_ptr<RowPoller> rgma_root;
  if (config.backend == HierBackend::kNarada) {
    narada_root = narada::NaradaClient::create(
        hydra.host(kRootHost), hydra.lan(), hydra.streams(),
        dbn->broker_endpoint(0), net::Endpoint{kRootHost, 9000},
        narada::TransportKind::kTcp);
    narada_root->connect([&run, narada_root](bool ok) {
      if (!ok) return;
      narada_root->subscribe(
          kTopic, "id<1000000", jms::AcknowledgeMode::kAutoAcknowledge,
          [&run](const jms::MessagePtr& message, SimTime arrived_at) {
            deliver_frame(run, run.in_flight, message->message_id,
                          arrived_at);
          });
    });
  } else if (config.backend == HierBackend::kMqtt) {
    mqtt::MqttClientOptions root_options;
    root_options.client_id = "root";
    mqtt_root = mqtt::MqttClient::create(
        hydra.host(kRootHost), hydra.lan(), hydra.streams(), mqtt_endpoint,
        net::Endpoint{kRootHost, 9000}, std::move(root_options));
    mqtt_root->connect([&run, mqtt_root](bool ok) {
      if (!ok) return;
      mqtt_root->subscribe(
          "powergrid/#", 0,
          [&run](const mqtt::PacketPtr& packet, SimTime arrived_at) {
            deliver_frame(run, run.in_flight, packet->message_id, arrived_at);
          });
    });
  } else {
    // A Consumer polled every 100 ms, like the flat subscriber.
    rgma_root_http = std::make_unique<net::HttpClient>(
        hydra.streams(), net::Endpoint{kRootHost, 21000});
    rgma_root = std::make_unique<RowPoller>(
        hydra.host(kRootHost), *rgma_root_http,
        rgma_network->assign_consumer_service(), 800000,
        std::string("SELECT * FROM ") + kTable + " WHERE id < 1000000",
        units::milliseconds(100),
        [&run](std::int64_t row, SimTime received, bool) {
          deliver_frame(run, run.rgma_in_flight, row, received);
        });
    hydra.sim().schedule_at(Harness::kStartTime / 2,
                            [root = rgma_root.get()] { root->start(); });
  }

  // Regional publishers round-robin over the non-server, non-root hosts,
  // created on the connection stagger.
  std::vector<int> regional_hosts;
  for (int h = 0; h < hydra.node_count(); ++h) {
    if (h != kServerHost && h != kRootHost) regional_hosts.push_back(h);
  }
  if (regional_hosts.empty()) {
    throw std::invalid_argument(
        "run_hier_experiment: testbed needs more than 2 hosts (hosts 0 and "
        "1 are reserved for the server and the root) to place regional "
        "publishers");
  }
  std::vector<std::unique_ptr<net::HttpClient>> rgma_http;
  std::vector<std::unique_ptr<Regional>> regionals;
  regionals.reserve(static_cast<std::size_t>(shape.regionals));
  for (std::int64_t r = 0; r < shape.regionals; ++r) {
    const int host =
        regional_hosts[static_cast<std::size_t>(r) % regional_hosts.size()];
    auto regional = std::make_unique<Regional>(run, r, host);
    if (config.backend == HierBackend::kNarada) {
      regional->attach_narada(hydra, dbn->broker_endpoint(0),
                              narada::TransportKind::kTcp);
    } else if (config.backend == HierBackend::kMqtt) {
      regional->attach_mqtt(hydra, mqtt_endpoint);
    } else {
      rgma_http.push_back(std::make_unique<net::HttpClient>(
          hydra.streams(),
          net::Endpoint{host, static_cast<std::uint16_t>(
                                  20000 + static_cast<std::uint16_t>(r))}));
      regional->attach_rgma(hydra, *rgma_http.back(),
                            rgma_network->assign_producer_service());
    }
    regionals.push_back(std::move(regional));
    hydra.sim().schedule_at(
        Harness::kStartTime + config.creation_interval * r,
        [reg = regionals.back().get()] { reg->start(); });
  }
  obs::mem_add(obs::MemCategory::kHier, run.names.bytes());

  // hier scenarios carry no fault plan: the injector arms nothing and the
  // availability columns stay zero.
  Results results = harness.run({}, {}, {kServerHost},
                                {run.tree.epoch, config.duration, kDrainTime});
  results.events_forwarded = dbn ? dbn->total_stats().events_forwarded : 0;
  return results;
}

}  // namespace gridmon::core
