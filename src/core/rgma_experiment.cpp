#include <memory>

#include "core/harness.hpp"
#include "rgma/network.hpp"
#include "rgma/secondary_producer.hpp"

namespace gridmon::core {
namespace {

constexpr const char* kTable = "generators";
constexpr const char* kSecondaryTable = "generators_sp";

/// One simulated power generator on the R-GMA side: owns a PrimaryProducer
/// registration and inserts a row every period (§III.F).
class RgmaGenerator {
 public:
  RgmaGenerator(Harness& harness, InFlight<std::int64_t>& in_flight, int host,
                net::HttpClient& http, net::Endpoint service,
                const RgmaConfig& config, std::int64_t id)
      : harness_(harness),
        in_flight_(in_flight),
        config_(config),
        id_(id),
        rng_(harness.sim().rng_stream("rgma.generator").stream(
            static_cast<std::uint64_t>(id))),
        // Replay runs widen producer retention to the configured tiers so a
        // reconnecting consumer's history query can cover its poll gap.
        producer_(harness.hydra().host(host), http, service,
                  static_cast<int>(id), kTable,
                  config.replay.enabled ? config.replay.retention.raw_window
                                        : units::seconds(30),
                  config.replay.enabled
                      ? config.replay.retention.downsampled_window
                      : units::seconds(60)) {
    if (config.fleet.recovery) {
      producer_.enable_redeclare(config.fleet.backoff_initial,
                                 config.fleet.backoff_max);
    }
  }

  [[nodiscard]] std::uint64_t redeclares() const {
    return producer_.redeclares();
  }

  void start() {
    producer_.declare([this](bool ok) {
      if (!ok) return harness_.refuse();
      // With no warm-up wait (the paper's loss experiment) the insert loop
      // still starts at a uniformly random phase within one period, so a
      // producer's first insert races the mediator's attachment — most
      // win, some lose their first tuple.
      const FleetConfig& fleet = config_.fleet;
      const SimTime warmup =
          fleet.warmup_max > 0
              ? Harness::uniform_time(rng_, fleet.warmup_min, fleet.warmup_max)
              : Harness::uniform_time(rng_, 0, fleet.publish_period);
      loop_.start(harness_.sim(), warmup, fleet, config_.duration,
                  [this] { insert(); });
    });
  }

 private:
  void insert() {
    const SimTime before = harness_.sim().now();
    const std::int64_t seq = sequence_++;
    auto row = make_generator_row(id_, seq, before, rng_);
    // A 503 from a crashed container is a loss, counted as sent at intent.
    in_flight_.publish(row_key(id_, seq), before);
    producer_.insert(std::move(row), [this, seq](bool ok, SimTime after) {
      if (!ok) return in_flight_.fail(row_key(id_, seq));
      in_flight_.sent(row_key(id_, seq), after);
    });
  }

  Harness& harness_;
  InFlight<std::int64_t>& in_flight_;
  const RgmaConfig& config_;
  std::int64_t id_;
  util::Rng rng_;
  rgma::PrimaryProducer producer_;
  PublishLoop loop_;
  std::int64_t sequence_ = 0;
};

/// Timeline columns summing one service counter across the network.
Probe producer_probe(std::string name, rgma::RgmaNetwork& network,
                     std::uint64_t rgma::ProducerServiceStats::*field) {
  return {std::move(name), [&network, field] {
            std::uint64_t total = 0;
            for (int i = 0; i < network.producer_service_count(); ++i) {
              total += network.producer_service(i).stats().*field;
            }
            return total;
          }};
}
Probe consumer_probe(std::string name, rgma::RgmaNetwork& network,
                     std::uint64_t rgma::ConsumerServiceStats::*field) {
  return {std::move(name), [&network, field] {
            std::uint64_t total = 0;
            for (int i = 0; i < network.consumer_service_count(); ++i) {
              total += network.consumer_service(i).stats().*field;
            }
            return total;
          }};
}

}  // namespace

Results run_rgma_experiment(const RgmaConfig& config) {
  cluster::HydraConfig hydra_config;
  hydra_config.seed = config.seed;
  Harness harness(hydra_config, config.fleet.generators);
  cluster::Hydra& hydra = harness.hydra();

  // Deployment: single server (everything on host 0) or the paper's
  // distributed architecture (2 producer nodes, 2 consumer nodes).
  rgma::RgmaNetworkConfig net_config;
  if (config.distributed) {
    net_config.registry_host = 0;
    net_config.producer_hosts = {0, 1};
    net_config.consumer_hosts = {2, 3};
  } else {
    net_config.registry_host = 0;
    net_config.producer_hosts = {0};
    net_config.consumer_hosts = {0};
  }
  net_config.secure = config.secure;
  net_config.legacy_stream_api = config.legacy_stream_api;
  rgma::RgmaNetwork network(hydra, net_config);
  network.create_table(generator_table(kTable));
  if (config.via_secondary_producer) {
    network.create_table(generator_table(kSecondaryTable));
  }

  // Soft-state expiry and renewal heartbeats (the recovery policy that
  // rebuilds a wiped registry purely from periodic re-assertions).
  if (config.registry_ttl > 0) {
    network.registry().set_registration_ttl(config.registry_ttl);
  }
  if (config.fleet.recovery) {
    for (int i = 0; i < network.producer_service_count(); ++i) {
      network.producer_service(i).enable_registration_renewal(
          config.renewal_period);
    }
    for (int i = 0; i < network.consumer_service_count(); ++i) {
      network.consumer_service(i).enable_registration_renewal(
          config.renewal_period);
    }
  }
  if (config.request_timeout > 0) {
    // Half-open-registry rescue: bound every service→registry round trip so
    // wedged (accepted-but-never-answered) requests fail with 408 instead
    // of stranding the renewal/registration handlers forever.
    for (int i = 0; i < network.producer_service_count(); ++i) {
      network.producer_service(i).set_registry_timeout(config.request_timeout);
    }
    for (int i = 0; i < network.consumer_service_count(); ++i) {
      network.consumer_service(i).set_registry_timeout(config.request_timeout);
    }
  }

  std::vector<std::unique_ptr<RowPoller>> subscribers;
  Columns columns;
  columns.counters = {
      producer_probe("pp_tuples_streamed", network,
                     &rgma::ProducerServiceStats::tuples_streamed),
      producer_probe("pp_batches_sent", network,
                     &rgma::ProducerServiceStats::batches_sent),
      consumer_probe("cs_batches_received", network,
                     &rgma::ConsumerServiceStats::batches_received),
      consumer_probe("cs_tuples_matched", network,
                     &rgma::ConsumerServiceStats::tuples_matched),
      consumer_probe("cs_polls_served", network,
                     &rgma::ConsumerServiceStats::polls_served),
  };
  columns.mem = {obs::MemCategory::kRgmaTuples,
                 obs::MemCategory::kNetConnections,
                 obs::MemCategory::kKernelSlab,
                 obs::MemCategory::kPredicateCache};
  if (config.replay.enabled) {
    columns.replay = {
        {"backfill_msgs",
         [&subscribers] {
           std::uint64_t n = 0;
           for (const auto& sub : subscribers) n += sub->backfill_tuples();
           return n;
         }},
        {"backfill_bytes",
         [&subscribers] {
           std::int64_t n = 0;
           for (const auto& sub : subscribers) n += sub->backfill_bytes();
           return n;
         }},
    };
  }
  harness.observe(config.obs, std::move(columns));
  InFlight<std::int64_t> in_flight(harness);

  // Client hosts: 4–7 run generator programs and the subscriber(s).
  const std::vector<int> client_hosts = {4, 5, 6, 7};
  std::vector<std::unique_ptr<net::HttpClient>> http_clients;
  for (int host : client_hosts) {
    http_clients.push_back(std::make_unique<net::HttpClient>(
        hydra.streams(), net::Endpoint{host, 20000}));
  }
  auto http_for = [&](std::size_t index) -> net::HttpClient& {
    return *http_clients[index % http_clients.size()];
  };

  // Secondary Producer chain (Fig 10): generators → PP("generators") →
  // SP(deliberate delay) → PP("generators_sp") → Consumer → subscriber.
  std::unique_ptr<rgma::SecondaryProducer> secondary;
  std::unique_ptr<net::HttpClient> secondary_http;
  if (config.via_secondary_producer) {
    const int sp_host = config.distributed ? 1 : 0;
    secondary_http = std::make_unique<net::HttpClient>(
        hydra.streams(), net::Endpoint{sp_host, 21000});
    secondary = std::make_unique<rgma::SecondaryProducer>(
        hydra.host(sp_host), *secondary_http,
        network.assign_consumer_service(), network.assign_producer_service(),
        900000, kTable, kSecondaryTable, config.secondary_delay);
    hydra.sim().schedule_at(Harness::kStartTime / 2,
                            [&secondary] { secondary->start(nullptr); });
  }

  // Subscriber(s): one per consumer service, partitioned by generator id so
  // every row is delivered exactly once.
  const std::string table_to_watch =
      config.via_secondary_producer ? kSecondaryTable : kTable;
  const RowPoller::OnRow on_row = [&harness, &in_flight](
                                      std::int64_t row, SimTime received,
                                      bool backfill) {
    if (in_flight.deliver(row, received, backfill ? "backfill" : "recv")) {
      harness.on_delivery();
    }
  };
  const int consumer_services = network.consumer_service_count();
  for (int c = 0; c < consumer_services; ++c) {
    std::string query = "SELECT * FROM " + table_to_watch;
    if (consumer_services > 1) {
      // Content-based partitioning across consumer services.
      const int share = config.fleet.generators / consumer_services + 1;
      const int lo = c * share;
      const int hi = lo + share;
      query += " WHERE id >= " + std::to_string(lo) + " AND id < " +
               std::to_string(hi);
    } else {
      query += " WHERE id < 1000000";  // the paper-style no-op filter
    }
    auto* sub = subscribers
                    .emplace_back(std::make_unique<RowPoller>(
                        hydra.host(client_hosts[static_cast<std::size_t>(c) %
                                                client_hosts.size()]),
                        http_for(static_cast<std::size_t>(c)),
                        network.consumer_service(c).endpoint(), 800000 + c,
                        std::move(query), config.poll_period, on_row))
                    .get();
    if (config.fleet.recovery && config.consumer_retry > 0) {
      sub->enable_retry(config.consumer_retry);
    }
    if (config.replay.enabled) sub->enable_replay();
    hydra.sim().schedule_at(Harness::kStartTime / 2, [sub] { sub->start(); });
  }

  // Producer fleet on the paper's 1 s creation stagger.
  std::vector<std::unique_ptr<RgmaGenerator>> fleet;
  fleet.reserve(static_cast<std::size_t>(config.fleet.generators));
  for (int g = 0; g < config.fleet.generators; ++g) {
    const std::size_t client = static_cast<std::size_t>(g) % client_hosts.size();
    fleet.push_back(std::make_unique<RgmaGenerator>(
        harness, in_flight, client_hosts[client], http_for(client),
        network.assign_producer_service(), config, g));
    hydra.sim().schedule_at(Harness::kStartTime +
                                config.fleet.creation_interval * g,
                            [gen = fleet.back().get()] { gen->start(); });
  }

  // vmstat on every server host.
  std::vector<int> server_hosts = net_config.producer_hosts;
  for (int h : net_config.consumer_hosts) {
    bool seen = false;
    for (int s : server_hosts) seen |= (s == h);
    if (!seen) server_hosts.push_back(h);
  }

  // Fault hooks beyond the LAN ones the harness wires: the R-GMA service
  // containers.
  FaultHooks hooks;
  hooks.set_registry_down = [&network](bool down) {
    if (down) {
      network.registry().crash();
    } else {
      network.registry().restart();
    }
  };
  hooks.set_producer_servlet_down = [&network](int i, bool down) {
    if (i < 0 || i >= network.producer_service_count()) return;
    if (down) {
      network.producer_service(i).crash();
    } else {
      network.producer_service(i).restart();
    }
  };
  hooks.set_consumer_servlet_down = [&network](int i, bool down) {
    if (i < 0 || i >= network.consumer_service_count()) return;
    if (down) {
      network.consumer_service(i).crash();
    } else {
      network.consumer_service(i).restart();
    }
  };
  hooks.expire_registrations = [&network] { network.registry().expire_now(); };
  hooks.set_registry_half_open = [&network](bool half_open) {
    network.registry().set_half_open(half_open);
  };

  const SimTime drain = units::seconds(30) + config.secondary_delay +
                        (config.via_secondary_producer ? units::seconds(30)
                                                       : SimTime{0});
  Results results = harness.run(
      config.faults, std::move(hooks), server_hosts,
      {Harness::steady_begin(config.fleet), config.duration, drain});

  results.availability.reregistrations =
      network.registry().reregistrations();
  for (const auto& gen : fleet) {
    results.availability.reregistrations += gen->redeclares();
  }
  for (const auto& sub : subscribers) {
    results.availability.resubscribes += sub->recreates();
    results.availability.backfill_msgs += sub->backfill_tuples();
    results.availability.backfill_bytes += sub->backfill_bytes();
  }
  return results;
}

}  // namespace gridmon::core
