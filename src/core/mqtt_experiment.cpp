// MQTT experiment: the modern-baseline twin of the Narada harness.
//
// One MqttBroker on a Hydra host, a fleet of generator clients publishing
// sensor samples at QoS 0/1/2, and a single monitoring subscriber holding a
// 'powergrid/#' wildcard subscription. The stagger, warm-up, steady window,
// fault hooks, obs columns and availability accounting come from the shared
// Harness, so the three backends produce comparable Results bundles.

#include <memory>
#include <string>

#include "cluster/costs.hpp"
#include "core/harness.hpp"
#include "mqtt/broker.hpp"
#include "mqtt/client.hpp"

namespace gridmon::core {
namespace {

constexpr SimTime kDrainTime = units::seconds(60);
constexpr std::uint16_t kBrokerPort = 1883;

[[nodiscard]] int publisher_qos(const MqttConfig& config, std::int64_t id) {
  return config.mixed_qos ? static_cast<int>(id % 3) : config.qos;
}

[[nodiscard]] mqtt::ReconnectPolicy reconnect_policy(const FleetConfig& fleet) {
  mqtt::ReconnectPolicy policy;
  policy.enabled = fleet.recovery;
  policy.backoff_initial = fleet.backoff_initial;
  policy.backoff_max = fleet.backoff_max;
  policy.jitter = fleet.backoff_jitter;
  return policy;
}

/// One simulated generator (or edge gateway when gateway_batch > 1): owns
/// an MQTT client and publishes readings on its period. Same life cycle as
/// the Narada generator: created on a stagger, sleeps uniform(10–20 s),
/// then publishes every period. A gateway fronts `gateway_batch` sensors,
/// aggregating their samples into one proportionally larger PUBLISH per
/// period — same sensor coverage, 1/batch the packet count.
class MqttGenerator {
 public:
  MqttGenerator(Harness& harness, InFlight<MessageId>& in_flight, int host,
                net::Endpoint broker, const MqttConfig& config,
                std::int64_t id)
      : harness_(harness),
        in_flight_(in_flight),
        config_(config),
        id_(id),
        rng_(harness.sim().rng_stream("generator").stream(
            static_cast<std::uint64_t>(id))),
        topic_("powergrid/feeder" + std::to_string(id % 16) + "/gen" +
               std::to_string(id)),
        payload_bytes_((cluster::costs::kMqttSampleBytes +
                        config.fleet.pad_bytes) *
                       config.gateway_batch) {
    cluster::Hydra& hydra = harness.hydra();
    const auto port = static_cast<std::uint16_t>(10000 + id % 50000);
    mqtt::MqttClientOptions options;
    options.client_id = "gen-" + std::to_string(id);
    options.clean_session = config.clean_session;
    options.keep_alive = config.keep_alive;
    options.retransmit_timeout = config.retransmit_timeout;
    if (config.last_will) {
      options.will_topic = "powergrid/status/gen" + std::to_string(id);
      options.will_bytes = 24;
      options.will_qos = 0;
    }
    client_ = mqtt::MqttClient::create(hydra.host(host), hydra.lan(),
                                       hydra.streams(), broker,
                                       net::Endpoint{host, port},
                                       std::move(options));
    if (config.fleet.recovery) {
      client_->set_reconnect_policy(reconnect_policy(config.fleet));
    }
  }

  void start() {
    client_->connect([this](bool ok) {
      if (!ok) return harness_.refuse();
      const FleetConfig& fleet = config_.fleet;
      loop_.start(harness_.sim(),
                  Harness::uniform_time(rng_, fleet.warmup_min,
                                        fleet.warmup_max),
                  fleet, config_.duration, [this] { publish(); });
    });
  }

  [[nodiscard]] std::uint64_t reconnects() const {
    return client_->reconnects();
  }
  [[nodiscard]] std::uint64_t resubscribes() const {
    return client_->resubscribes();
  }

 private:
  void publish() {
    const MessageId id = message_id(client_->local(), sequence_++);
    in_flight_.publish(id, harness_.sim().now());
    client_->publish(topic_, payload_bytes_, publisher_qos(config_, id_),
                     config_.retain_last, id.to_string(),
                     [this, seq = id.seq](SimTime after) {
                       in_flight_.sent(message_id(client_->local(), seq),
                                       after);
                     });
  }

  Harness& harness_;
  InFlight<MessageId>& in_flight_;
  const MqttConfig& config_;
  std::int64_t id_;
  util::Rng rng_;
  const std::string topic_;
  const std::int64_t payload_bytes_;
  std::shared_ptr<mqtt::MqttClient> client_;
  PublishLoop loop_;
  std::int64_t sequence_ = 0;
};

}  // namespace

Results run_mqtt_experiment(const MqttConfig& config) {
  cluster::HydraConfig hydra_config;
  hydra_config.seed = config.seed;
  Harness harness(hydra_config, config.fleet.generators);
  cluster::Hydra& hydra = harness.hydra();

  // The broker: one host, one event loop, sessions admitted against heap.
  mqtt::MqttBrokerConfig broker_config;
  broker_config.endpoint = net::Endpoint{config.broker_host, kBrokerPort};
  broker_config.retention = config.replay.retention;
  mqtt::MqttBroker broker(hydra.host(config.broker_host), hydra.lan(),
                          hydra.streams(), broker_config);
  broker.start();

  // Subscriber gets the first non-broker host; generators share the rest.
  std::vector<int> free_hosts;
  for (int h = 0; h < hydra.node_count(); ++h) {
    if (h != config.broker_host) free_hosts.push_back(h);
  }
  const int subscriber_host = free_hosts.front();
  const std::vector<int> generator_hosts(free_hosts.begin() + 1,
                                         free_hosts.end());

  const auto& stats = broker.stats();
  Columns columns;
  columns.counters = {
      {"broker_publishes_received", [&] { return stats.publishes_received; }},
      {"broker_publishes_delivered",
       [&] { return stats.publishes_delivered; }},
      {"broker_retransmissions", [&] { return stats.retransmissions; }},
  };
  columns.mem = {obs::MemCategory::kBrokerRouting,
                 obs::MemCategory::kClientRecords,
                 obs::MemCategory::kNetConnections,
                 obs::MemCategory::kKernelSlab,
                 obs::MemCategory::kMqttSubIndex};
  if (config.replay.enabled) {
    columns.replay = {
        {"backfill_msgs", [&] { return stats.backfill_msgs; }},
        {"backfill_bytes", [&] { return stats.backfill_bytes; }},
        {"queue_dropped", [&] { return stats.queue_dropped; }},
    };
  }
  harness.observe(config.obs, std::move(columns));
  InFlight<MessageId> in_flight(harness);

  // The monitoring subscriber: one wildcard subscription covers the whole
  // fleet ('powergrid/#' also matches will/status topics).
  const int subscriber_qos =
      config.subscriber_qos >= 0 ? config.subscriber_qos
                                 : (config.mixed_qos ? 2 : config.qos);
  mqtt::MqttClientOptions sub_options;
  sub_options.client_id = "monitor";
  sub_options.clean_session = config.clean_session;
  sub_options.keep_alive = config.keep_alive;
  sub_options.retransmit_timeout = config.retransmit_timeout;
  auto subscriber = mqtt::MqttClient::create(
      hydra.host(subscriber_host), hydra.lan(), hydra.streams(),
      broker_config.endpoint, net::Endpoint{subscriber_host, 9000},
      std::move(sub_options));
  if (config.fleet.recovery) {
    subscriber->set_reconnect_policy(reconnect_policy(config.fleet));
  }
  subscriber->connect([&, subscriber_qos](bool ok) {
    if (!ok) return;
    subscriber->subscribe(
        "powergrid/#", subscriber_qos,
        [&harness, &in_flight](const mqtt::PacketPtr& packet,
                               SimTime arrived_at) {
          harness.on_delivery();
          // Unknown ids are duplicates and will/status messages (whose id
          // is empty, so it does not parse).
          if (const auto id = MessageId::parse(packet->message_id)) {
            in_flight.deliver(*id, arrived_at);
          }
        });
  });

  // Generator fleet, created on the stagger.
  std::vector<std::unique_ptr<MqttGenerator>> fleet;
  fleet.reserve(static_cast<std::size_t>(config.fleet.generators));
  for (int g = 0; g < config.fleet.generators; ++g) {
    const int host =
        generator_hosts[static_cast<std::size_t>(g) % generator_hosts.size()];
    fleet.push_back(std::make_unique<MqttGenerator>(
        harness, in_flight, host, broker_config.endpoint, config, g));
    hydra.sim().schedule_at(
        Harness::kStartTime + config.fleet.creation_interval * g,
        [gen = fleet.back().get()] { gen->start(); });
  }

  // Broker crash/restart map onto the single MqttBroker (partition is a
  // no-op — one broker).
  FaultHooks hooks;
  hooks.crash_broker = [&broker](int) { broker.crash(); };
  hooks.restart_broker = [&broker](int) { broker.restart(); };

  Results results = harness.run(
      config.faults, std::move(hooks), {config.broker_host},
      {Harness::steady_begin(config.fleet), config.duration, kDrainTime});

  for (const auto& gen : fleet) {
    results.availability.reconnects += gen->reconnects();
    results.availability.resubscribes += gen->resubscribes();
  }
  results.availability.reconnects += subscriber->reconnects();
  results.availability.resubscribes += subscriber->resubscribes();
  // Offline-queue drains at session resumption are MQTT's backfill path.
  results.availability.backfill_msgs = stats.backfill_msgs;
  results.availability.backfill_bytes = stats.backfill_bytes;
  return results;
}

}  // namespace gridmon::core
