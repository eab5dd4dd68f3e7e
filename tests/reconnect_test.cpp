// Client reconnect behaviour, pinned end to end for both stream clients:
// the capped exponential backoff schedule after a broker crash, the
// deterministic jitter bounds, fail-over rehoming to fallback brokers, and
// a graceful MQTT DISCONNECT that is never retried.
//
// A probe samples each client every millisecond, so a reconnect time is
// known to within one probe step. The pinned values are virtual times and
// counts; any change to the backoff arithmetic, the jitter stream or the
// order of the reconnect steps moves them.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/hydra.hpp"
#include "mqtt/broker.hpp"
#include "mqtt/client.hpp"
#include "narada/client.hpp"
#include "narada/dbn.hpp"
#include "net/client_link.hpp"

namespace gridmon {
namespace {

constexpr SimTime kCrashAt = units::seconds(5);
constexpr SimTime kRestartAt = units::seconds(30);
constexpr SimTime kHorizon = units::seconds(60);
constexpr SimTime kProbeStep = units::milliseconds(1);

/// Every-millisecond samples of one client: the probe time at which each
/// reconnect was first seen, and the first time the link was ready again
/// after the broker restart.
template <typename Client>
struct Probe {
  Probe(sim::Simulation& sim, std::shared_ptr<Client> client)
      : sim(sim), client(std::move(client)) {
    sim.schedule_after(kProbeStep, [this] { tick(); });
  }

  void tick() {
    while (reconnect_seen.size() < client->reconnects()) {
      reconnect_seen.push_back(sim.now());
    }
    if (ready_again < 0 && sim.now() > kRestartAt && client->ready()) {
      ready_again = sim.now();
    }
    if (sim.now() < kHorizon) {
      sim.schedule_after(kProbeStep, [this] { tick(); });
    }
  }

  sim::Simulation& sim;
  std::shared_ptr<Client> client;
  std::vector<SimTime> reconnect_seen;
  SimTime ready_again = -1;
};

/// reconnects() read at fixed virtual times.
constexpr SimTime kSampleAt[] = {
    units::milliseconds(5250), units::seconds(6),  units::seconds(7),
    units::seconds(10),        units::seconds(15), units::seconds(25),
    units::seconds(30),        units::seconds(40)};

template <typename Client>
std::vector<std::uint64_t> sample_reconnects(
    sim::Simulation& sim, const std::shared_ptr<Client>& client) {
  auto samples = std::make_shared<std::vector<std::uint64_t>>();
  for (const SimTime at : kSampleAt) {
    sim.schedule_at(at, [samples, client] {
      samples->push_back(client->reconnects());
    });
  }
  sim.run_until(kHorizon);
  return *samples;
}

/// When each reconnect is first seen with jitter 0: the lost link at
/// 5.001 s, then one refused attempt per backoff step.
const std::vector<SimTime> kUnjitteredSchedule = {
    units::milliseconds(5001),  units::milliseconds(5501),
    units::milliseconds(6501),  units::milliseconds(8501),
    units::milliseconds(12501), units::milliseconds(20502),
    units::milliseconds(28502)};

/// The un-jittered delay before reconnect attempt `n` (1-based).
SimTime backoff(int n) {
  SimTime delay = units::milliseconds(500);
  for (int i = 1; i < n && delay < units::seconds(8); ++i) delay *= 2;
  return std::min(delay, units::seconds(8));
}

/// Each gap between consecutive reconnects is the backoff delay plus a
/// sub-millisecond refused handshake, seen on a 1 ms probe grid.
void expect_gaps_within(const std::vector<SimTime>& seen, double jitter) {
  ASSERT_GE(seen.size(), 2u);
  bool stretched = false;
  for (std::size_t k = 1; k < seen.size(); ++k) {
    const SimTime d = backoff(static_cast<int>(k));
    const SimTime gap = seen[k] - seen[k - 1];
    EXPECT_GE(gap, d - kProbeStep) << "gap " << k;
    EXPECT_LE(gap, static_cast<SimTime>(static_cast<double>(d) *
                                        (1.0 + jitter)) +
                       2 * kProbeStep)
        << "gap " << k;
    if (gap > d + 2 * kProbeStep) stretched = true;
  }
  EXPECT_EQ(stretched, jitter > 0.0);
}

// The shared capped doubling matches both loops it replaced: the clients'
// double arithmetic and the R-GMA producer's integer redeclare delay.
TEST(CappedBackoff, MatchesTheClientAndRedeclareLoops) {
  const SimTime initials[] = {0, 1, units::milliseconds(500),
                              units::seconds(1), units::seconds(3),
                              units::seconds(9)};
  const SimTime maxima[] = {units::milliseconds(500), units::seconds(8),
                            units::seconds(10)};
  for (const SimTime initial : initials) {
    for (const SimTime max : maxima) {
      for (int doublings = 0; doublings < 40; ++doublings) {
        double client = static_cast<double>(initial);
        for (int i = 0; i < doublings; ++i) {
          client *= 2.0;
          if (client >= static_cast<double>(max)) break;
        }
        client = std::min(client, static_cast<double>(max));
        SimTime redeclare = initial;
        for (int i = 0; i < doublings && redeclare < max; ++i) redeclare *= 2;
        if (redeclare > max) redeclare = max;

        const double shared = net::capped_backoff(initial, max, doublings);
        EXPECT_EQ(shared, client) << initial << " " << max << " " << doublings;
        EXPECT_EQ(static_cast<SimTime>(shared), redeclare)
            << initial << " " << max << " " << doublings;
      }
    }
  }
}

struct NaradaReconnect : ::testing::Test {
  cluster::Hydra hydra{cluster::HydraConfig{.seed = 21}};

  std::unique_ptr<narada::Dbn> start_dbn(std::vector<int> hosts) {
    narada::DbnConfig config;
    config.broker_hosts = std::move(hosts);
    auto dbn = std::make_unique<narada::Dbn>(hydra, config);
    dbn->start();
    return dbn;
  }

  std::shared_ptr<narada::NaradaClient> make_client(
      net::Endpoint broker, net::ReconnectPolicy policy) {
    auto client = narada::NaradaClient::create(
        hydra.host(1), hydra.lan(), hydra.streams(), broker,
        net::Endpoint{1, 9000}, narada::TransportKind::kTcp);
    client->set_reconnect_policy(std::move(policy));
    client->connect(nullptr);
    return client;
  }

  /// One broker, crashed at kCrashAt and restarted empty at kRestartAt.
  std::unique_ptr<narada::Dbn> crash_and_restart() {
    auto dbn = start_dbn({0});
    narada::Broker& broker = dbn->broker(0);
    hydra.sim().schedule_at(kCrashAt, [&broker] { broker.crash(); });
    hydra.sim().schedule_at(kRestartAt, [&broker] { broker.restart(); });
    return dbn;
  }
};

net::ReconnectPolicy narada_policy(double jitter) {
  net::ReconnectPolicy policy;
  policy.backoff_initial = units::milliseconds(500);
  policy.backoff_max = units::seconds(8);
  policy.jitter = jitter;
  return policy;
}

TEST_F(NaradaReconnect, BackoffScheduleAfterBrokerCrash) {
  auto dbn = crash_and_restart();
  auto client = make_client(dbn->broker_endpoint(0), narada_policy(0.0));
  Probe<narada::NaradaClient> probe(hydra.sim(), client);
  const auto samples = sample_reconnects(hydra.sim(), client);

  // Attempts at crash + 0.5, 1.5, 3.5, 7.5, 15.5, 23.5 s fail; the one at
  // crash + 31.5 s finds the restarted broker.
  const std::vector<std::uint64_t> expected = {1, 2, 3, 4, 5, 6, 7, 7};
  EXPECT_EQ(samples, expected);
  EXPECT_EQ(client->reconnects(), 7u);
  EXPECT_EQ(client->rehomes(), 0u);
  EXPECT_TRUE(client->ready());
  EXPECT_EQ(probe.reconnect_seen, kUnjitteredSchedule);
  EXPECT_EQ(probe.ready_again, units::milliseconds(36502));
  expect_gaps_within(probe.reconnect_seen, 0.0);
}

TEST_F(NaradaReconnect, JitterStretchesEachGapByAtMostItsShare) {
  auto dbn = crash_and_restart();
  auto client = make_client(dbn->broker_endpoint(0), narada_policy(0.2));
  Probe<narada::NaradaClient> probe(hydra.sim(), client);
  hydra.sim().run_until(kHorizon);

  EXPECT_TRUE(client->ready());
  expect_gaps_within(probe.reconnect_seen, 0.2);
  // The draws come from the "narada.reconnect" stream keyed by endpoint.
  EXPECT_EQ(probe.ready_again, units::milliseconds(31804));
}

TEST_F(NaradaReconnect, RehomesToTheFirstFallbackOnTheSecondAttempt) {
  auto dbn = start_dbn({0, 2, 3});
  net::ReconnectPolicy policy = narada_policy(0.0);
  policy.fallbacks = {dbn->broker_endpoint(1), dbn->broker_endpoint(2)};
  auto client = make_client(dbn->broker_endpoint(0), std::move(policy));
  std::uint64_t accepted_before = 0;
  std::vector<std::uint64_t> rehomes;
  hydra.sim().schedule_at(kCrashAt, [&] {
    accepted_before = dbn->broker(1).stats().connections_accepted;
    dbn->broker(0).crash();
  });
  // The lost link schedules attempt 1 on the crashed broker; its refusal
  // schedules attempt 2, which re-homes to fallback 0 and succeeds.
  for (const SimTime at : {units::milliseconds(5250), units::seconds(6)}) {
    hydra.sim().schedule_at(at, [&] { rehomes.push_back(client->rehomes()); });
  }
  hydra.sim().run_until(kHorizon);

  EXPECT_EQ(rehomes, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(client->rehomes(), 1u);
  EXPECT_EQ(client->reconnects(), 2u);
  EXPECT_TRUE(client->ready());
  EXPECT_EQ(dbn->broker(1).stats().connections_accepted, accepted_before + 1);
}

TEST_F(NaradaReconnect, RehomingWalksTheFallbacksRoundRobin) {
  auto dbn = start_dbn({0, 2, 3});
  net::ReconnectPolicy policy = narada_policy(0.0);
  policy.fallbacks = {dbn->broker_endpoint(1), dbn->broker_endpoint(2)};
  auto client = make_client(dbn->broker_endpoint(0), std::move(policy));
  std::uint64_t accepted_before = 0;
  hydra.sim().schedule_at(kCrashAt, [&] {
    accepted_before = dbn->broker(2).stats().connections_accepted;
    dbn->broker(0).crash();
    dbn->broker(1).crash();
  });
  hydra.sim().run_until(kHorizon);

  // Attempts 2 and 3 hit the crashed fallback 0; attempt 4 re-homes on to
  // fallback 1.
  EXPECT_EQ(client->rehomes(), 2u);
  EXPECT_EQ(client->reconnects(), 4u);
  EXPECT_TRUE(client->ready());
  EXPECT_EQ(dbn->broker(2).stats().connections_accepted, accepted_before + 1);
}

struct MqttReconnect : ::testing::Test {
  cluster::Hydra hydra{cluster::HydraConfig{.seed = 21}};
  net::Endpoint broker_ep{0, 1883};
  std::unique_ptr<mqtt::MqttBroker> broker;

  void SetUp() override {
    mqtt::MqttBrokerConfig config;
    config.endpoint = broker_ep;
    broker = std::make_unique<mqtt::MqttBroker>(hydra.host(0), hydra.lan(),
                                                hydra.streams(), config);
    broker->start();
  }

  std::shared_ptr<mqtt::MqttClient> make_client(double jitter) {
    auto client = mqtt::MqttClient::create(hydra.host(1), hydra.lan(),
                                           hydra.streams(), broker_ep,
                                           net::Endpoint{1, 9000},
                                           {.client_id = "gen-1"});
    net::ReconnectPolicy policy;
    policy.backoff_initial = units::milliseconds(500);
    policy.backoff_max = units::seconds(8);
    policy.jitter = jitter;
    client->set_reconnect_policy(policy);
    client->connect(nullptr);
    return client;
  }

  void crash_and_restart() {
    hydra.sim().schedule_at(kCrashAt, [this] { broker->crash(); });
    hydra.sim().schedule_at(kRestartAt, [this] { broker->restart(); });
  }
};

TEST_F(MqttReconnect, BackoffScheduleAfterBrokerCrash) {
  crash_and_restart();
  auto client = make_client(0.0);
  Probe<mqtt::MqttClient> probe(hydra.sim(), client);
  const auto samples = sample_reconnects(hydra.sim(), client);

  const std::vector<std::uint64_t> expected = {1, 2, 3, 4, 5, 6, 7, 7};
  EXPECT_EQ(samples, expected);
  EXPECT_EQ(client->reconnects(), 7u);
  EXPECT_TRUE(client->ready());
  EXPECT_EQ(probe.reconnect_seen, kUnjitteredSchedule);
  EXPECT_EQ(probe.ready_again, units::milliseconds(36502));
  expect_gaps_within(probe.reconnect_seen, 0.0);
}

TEST_F(MqttReconnect, JitterStretchesEachGapByAtMostItsShare) {
  crash_and_restart();
  auto client = make_client(0.2);
  Probe<mqtt::MqttClient> probe(hydra.sim(), client);
  hydra.sim().run_until(kHorizon);

  EXPECT_TRUE(client->ready());
  expect_gaps_within(probe.reconnect_seen, 0.2);
  // The draws come from the "mqtt.reconnect" stream keyed by endpoint.
  EXPECT_EQ(probe.ready_again, units::milliseconds(31265));
}

TEST_F(MqttReconnect, GracefulDisconnectIsNeverRetried) {
  auto client = make_client(0.0);
  hydra.sim().schedule_at(units::seconds(2), [&client] {
    ASSERT_TRUE(client->ready());
    client->disconnect();
  });
  // A later crash finds no link to lose.
  crash_and_restart();
  hydra.sim().run_until(kHorizon);

  EXPECT_FALSE(client->ready());
  EXPECT_FALSE(client->refused());
  EXPECT_EQ(client->reconnects(), 0u);
  EXPECT_EQ(broker->stats().connections_accepted, 1u);
}

}  // namespace
}  // namespace gridmon
