#include <memory>

#include "cluster/costs.hpp"
#include "core/harness.hpp"
#include "narada/client.hpp"
#include "narada/dbn.hpp"

namespace gridmon::core {
namespace {

constexpr SimTime kDrainTime = units::seconds(60);
constexpr const char* kTopic = "powergrid/monitoring";

/// One simulated power generator: owns a client connection and publishes
/// readings on its period. Mirrors §III.E: created on a stagger, sleeps a
/// random 10–20 s so publications spread evenly, then publishes every 10 s.
class Generator {
 public:
  Generator(Harness& harness, InFlight<MessageId>& in_flight, int host,
            net::Endpoint broker, const NaradaConfig& config, std::int64_t id)
      : harness_(harness),
        in_flight_(in_flight),
        config_(config),
        id_(id),
        rng_(harness.sim().rng_stream("generator").stream(
            static_cast<std::uint64_t>(id))) {
    cluster::Hydra& hydra = harness.hydra();
    const auto port = static_cast<std::uint16_t>(10000 + id % 50000);
    client_ = narada::NaradaClient::create(
        hydra.host(host), hydra.lan(), hydra.streams(), broker,
        net::Endpoint{host, port}, config.transport);
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
    jms::Message msg = make_generator_message(kTopic, id_, sequence_++,
                                              client_->local().node, rng_,
                                              config_.fleet.pad_bytes);
    msg.delivery_mode = config_.delivery_mode;
    // The client stamps "ID:node-port-<n>" with its own counter starting
    // at 1, which the post-increment sequence matches.
    const MessageId id = message_id(client_->local(), sequence_);
    in_flight_.publish(id, harness_.sim().now());
    client_->publish(std::move(msg), [this, seq = id.seq](SimTime after) {
      in_flight_.sent(message_id(client_->local(), seq), after);
    });
  }

  Harness& harness_;
  InFlight<MessageId>& in_flight_;
  const NaradaConfig& config_;
  std::int64_t id_;
  util::Rng rng_;
  std::shared_ptr<narada::NaradaClient> client_;
  PublishLoop loop_;
  std::int64_t sequence_ = 0;
};

}  // namespace

Results run_narada_experiment(const NaradaConfig& config) {
  cluster::HydraConfig hydra_config;
  hydra_config.seed = config.seed;
  if (config.transport == narada::TransportKind::kUdp) {
    hydra_config.lan.datagram_loss = cluster::costs::kUdpLossProbability;
  }
  Harness harness(hydra_config, config.fleet.generators);
  cluster::Hydra& hydra = harness.hydra();

  // Brokers (unit controller assigns addresses; see Dbn).
  narada::DbnConfig dbn_config;
  dbn_config.broker_hosts = config.broker_hosts;
  dbn_config.transport = config.transport;
  dbn_config.subscription_aware_routing = config.subscription_aware_routing;
  dbn_config.replay = config.replay.enabled;
  dbn_config.retention = config.replay.retention;
  narada::Dbn dbn(hydra, dbn_config);
  dbn.start();

  const bool multi_broker = config.broker_hosts.size() > 1;

  // Generator hosts: the nodes not running brokers, minus one reserved for
  // the single-broker subscriber program.
  std::vector<int> free_hosts;
  for (int h = 0; h < hydra.node_count(); ++h) {
    bool is_broker = false;
    for (int b : config.broker_hosts) is_broker |= (b == h);
    if (!is_broker) free_hosts.push_back(h);
  }
  int subscriber_host = free_hosts.front();
  std::vector<int> generator_hosts;
  if (multi_broker) {
    // DBN: generators and subscribers share the non-broker nodes, as in
    // the paper ("data were received by the node where they were sent").
    generator_hosts = free_hosts;
  } else {
    generator_hosts.assign(free_hosts.begin() + 1, free_hosts.end());
  }

  Columns columns;
  columns.counters = {
      {"broker_events_received",
       [&dbn] { return dbn.total_stats().events_received; }},
      {"broker_events_delivered",
       [&dbn] { return dbn.total_stats().events_delivered; }},
      {"broker_events_forwarded",
       [&dbn] { return dbn.total_stats().events_forwarded; }},
  };
  columns.mem = {obs::MemCategory::kBrokerRouting,
                 obs::MemCategory::kClientRecords,
                 obs::MemCategory::kNetConnections,
                 obs::MemCategory::kKernelSlab};
  if (config.replay.enabled) {
    columns.replay = {
        {"backfill_msgs", [&dbn] { return dbn.total_stats().backfill_msgs; }},
        {"backfill_bytes", [&dbn] { return dbn.total_stats().backfill_bytes; }},
    };
  }
  harness.observe(config.obs, std::move(columns));
  InFlight<MessageId> in_flight(harness);

  // Subscriber programs.
  std::vector<std::shared_ptr<narada::NaradaClient>> subscribers;
  auto make_listener = [&harness, &in_flight] {
    return [&harness, &in_flight](const jms::MessagePtr& message,
                                  SimTime arrived_at) {
      harness.on_delivery();
      if (const auto id = MessageId::parse(message->message_id)) {
        in_flight.deliver(*id, arrived_at);
      }
    };
  };
  net::ReconnectPolicy subscriber_policy = reconnect_policy(config.fleet);
  if (config.replay.enabled && multi_broker) {
    // Fail-over targets: every other broker in the network. Replication
    // means any of them can serve the subscriber's stream and its backfill.
    for (int b = 0; b < dbn.broker_count(); ++b) {
      subscriber_policy.fallbacks.push_back(dbn.broker_endpoint(b));
    }
  }

  if (multi_broker) {
    // One subscriber per generator node, partitioned by origin with a real
    // selector, attached to the subscribing brokers the discovery node
    // assigns.
    std::uint16_t port = 9000;
    for (int host : generator_hosts) {
      auto sub = narada::NaradaClient::create(
          hydra.host(host), hydra.lan(), hydra.streams(),
          dbn.assign_subscriber_broker(), net::Endpoint{host, port++},
          config.transport);
      if (config.fleet.recovery) sub->set_reconnect_policy(subscriber_policy);
      if (config.replay.enabled) {
        sub->set_replay(config.replay.settle, config.replay.max_retries);
      }
      sub->connect([sub, host, &make_listener](bool ok) {
        if (!ok) return;
        sub->subscribe("powergrid/monitoring",
                       "node=" + std::to_string(host),
                       jms::AcknowledgeMode::kAutoAcknowledge,
                       make_listener());
      });
      subscribers.push_back(std::move(sub));
    }
  } else {
    auto sub = narada::NaradaClient::create(
        hydra.host(subscriber_host), hydra.lan(), hydra.streams(),
        dbn.broker_endpoint(0), net::Endpoint{subscriber_host, 9000},
        config.transport);
    if (config.fleet.recovery) sub->set_reconnect_policy(subscriber_policy);
    if (config.replay.enabled) {
      sub->set_replay(config.replay.settle, config.replay.max_retries);
    }
    const auto ack = config.ack_mode;
    sub->connect([sub, ack, &make_listener](bool ok) {
      if (!ok) return;
      // The paper's selector: filters nothing but is really evaluated.
      sub->subscribe("powergrid/monitoring", "id<10000", ack,
                     make_listener());
    });
    // CLIENT_ACKNOWLEDGE: acknowledge() piggybacks on deliveries inside
    // the client model, as the test client would acknowledge each one.
    subscribers.push_back(std::move(sub));
  }

  // Generator fleet, created on the paper's stagger.
  std::vector<std::unique_ptr<Generator>> fleet;
  fleet.reserve(static_cast<std::size_t>(config.fleet.generators));
  for (int g = 0; g < config.fleet.generators; ++g) {
    const int host =
        generator_hosts[static_cast<std::size_t>(g) % generator_hosts.size()];
    const net::Endpoint broker =
        multi_broker ? dbn.assign_publisher_broker() : dbn.broker_endpoint(0);
    fleet.push_back(std::make_unique<Generator>(harness, in_flight, host,
                                                broker, config, g));
    hydra.sim().schedule_at(Harness::kStartTime +
                                config.fleet.creation_interval * g,
                            [gen = fleet.back().get()] { gen->start(); });
  }

  // Fault hooks beyond the LAN ones the harness wires: the broker network.
  FaultHooks hooks;
  hooks.set_partition = [&hydra, &config, &dbn](bool active) {
    // Split the DBN down the middle: publishing brokers (first half) lose
    // the switch path to subscribing brokers (second half).
    const auto& hosts = config.broker_hosts;
    const std::size_t half = hosts.size() / 2;
    if (half == 0) return;
    for (std::size_t i = 0; i < half; ++i) {
      for (std::size_t j = half; j < hosts.size(); ++j) {
        hydra.lan().set_path_blocked(hosts[i], hosts[j], active);
      }
    }
    if (!active && config.replay.enabled) {
      // Replication repair: every broker pulls the frames it missed from
      // its peers, so client backfills (which settle later) find complete
      // retention on whichever broker serves them.
      dbn.request_peer_backfill();
    }
  };
  hooks.crash_broker = [&dbn](int b) { dbn.broker(b).crash(); };
  hooks.restart_broker = [&dbn](int b) { dbn.broker(b).restart(); };

  Results results = harness.run(
      config.faults, std::move(hooks), config.broker_hosts,
      {Harness::steady_begin(config.fleet), config.duration, kDrainTime});

  const auto broker_stats = dbn.total_stats();
  results.events_forwarded = broker_stats.events_forwarded;
  for (const auto& gen : fleet) {
    results.availability.reconnects += gen->reconnects();
    results.availability.resubscribes += gen->resubscribes();
  }
  for (const auto& sub : subscribers) {
    results.availability.reconnects += sub->reconnects();
    results.availability.resubscribes += sub->resubscribes();
  }
  // Backfill traffic served from retention: broker stats cover both
  // client-facing replays and peer-to-peer replication repair.
  results.availability.backfill_msgs = broker_stats.backfill_msgs;
  results.availability.backfill_bytes = broker_stats.backfill_bytes;
  return results;
}

}  // namespace gridmon::core
