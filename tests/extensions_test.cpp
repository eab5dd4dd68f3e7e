// Tests for the extension features: JMS PTP queues, R-GMA one-time
// (latest/history) queries, and failure injection.
#include <gtest/gtest.h>

#include "cluster/hydra.hpp"
#include "core/payloads.hpp"
#include "narada/client.hpp"
#include "narada/dbn.hpp"
#include "rgma/network.hpp"

namespace gridmon {
namespace {

struct ExtensionFixture : ::testing::Test {
  cluster::Hydra hydra{cluster::HydraConfig{.seed = 77}};

  std::unique_ptr<narada::Dbn> start_broker() {
    narada::DbnConfig config;
    config.broker_hosts = {0};
    auto dbn = std::make_unique<narada::Dbn>(hydra, config);
    dbn->start();
    return dbn;
  }

  std::shared_ptr<narada::NaradaClient> client(int host, std::uint16_t port,
                                               net::Endpoint broker) {
    return narada::NaradaClient::create(hydra.host(host), hydra.lan(),
                                        hydra.streams(), broker,
                                        net::Endpoint{host, port},
                                        narada::TransportKind::kTcp);
  }
};

// --- JMS PTP queues ---

TEST_F(ExtensionFixture, QueueDeliversEachMessageToExactlyOneReceiver) {
  auto dbn = start_broker();
  std::vector<int> counts(3, 0);
  std::vector<std::shared_ptr<narada::NaradaClient>> receivers;
  for (int i = 0; i < 3; ++i) {
    auto receiver = client(1, static_cast<std::uint16_t>(9100 + i),
                           dbn->broker_endpoint(0));
    receiver->connect([&, receiver, i](bool) {
      receiver->receive_from_queue(
          "jobs", "", jms::AcknowledgeMode::kAutoAcknowledge,
          [&counts, i](const jms::MessagePtr&, SimTime) { ++counts[i]; });
    });
    receivers.push_back(std::move(receiver));
  }
  auto sender = client(2, 9001, dbn->broker_endpoint(0));
  sender->connect([&](bool) {
    for (int i = 0; i < 9; ++i) {
      sender->publish_to_queue(jms::make_text_message("jobs", "job"));
    }
  });
  hydra.sim().run_until(units::seconds(10));
  // Every message delivered exactly once, spread round-robin.
  EXPECT_EQ(counts[0] + counts[1] + counts[2], 9);
  EXPECT_EQ(counts[0], 3);
  EXPECT_EQ(counts[1], 3);
  EXPECT_EQ(counts[2], 3);
  EXPECT_EQ(dbn->broker(0).stats().events_delivered, 9u);
}

TEST_F(ExtensionFixture, QueueAndTopicNamespacesAreSeparate) {
  auto dbn = start_broker();
  int topic_got = 0;
  int queue_got = 0;
  auto topic_sub = client(1, 9000, dbn->broker_endpoint(0));
  topic_sub->connect([&](bool) {
    topic_sub->subscribe("dest", "", jms::AcknowledgeMode::kAutoAcknowledge,
                         [&](const jms::MessagePtr&, SimTime) { ++topic_got; });
  });
  auto queue_recv = client(1, 9002, dbn->broker_endpoint(0));
  queue_recv->connect([&](bool) {
    queue_recv->receive_from_queue(
        "dest", "", jms::AcknowledgeMode::kAutoAcknowledge,
        [&](const jms::MessagePtr&, SimTime) { ++queue_got; });
  });
  auto pub = client(2, 9001, dbn->broker_endpoint(0));
  pub->connect([&](bool) {
    pub->publish(jms::make_text_message("dest", "t"));        // topic
    pub->publish_to_queue(jms::make_text_message("dest", "q"));  // queue
  });
  hydra.sim().run_until(units::seconds(10));
  EXPECT_EQ(topic_got, 1);
  EXPECT_EQ(queue_got, 1);
}

TEST_F(ExtensionFixture, QueueWithoutReceiversDropsMessages) {
  auto dbn = start_broker();
  auto pub = client(2, 9001, dbn->broker_endpoint(0));
  pub->connect([&](bool) {
    pub->publish_to_queue(jms::make_text_message("empty", "x"));
  });
  hydra.sim().run_until(units::seconds(5));
  EXPECT_EQ(dbn->broker(0).stats().events_delivered, 0u);
}

TEST_F(ExtensionFixture, QueueSelectorsStillApply) {
  auto dbn = start_broker();
  int got = 0;
  auto receiver = client(1, 9000, dbn->broker_endpoint(0));
  receiver->connect([&](bool) {
    receiver->receive_from_queue("jobs", "priority > 5",
                                 jms::AcknowledgeMode::kAutoAcknowledge,
                                 [&](const jms::MessagePtr&, SimTime) {
                                   ++got;
                                 });
  });
  auto sender = client(2, 9001, dbn->broker_endpoint(0));
  sender->connect([&](bool) {
    for (int p = 0; p < 10; ++p) {
      jms::Message msg = jms::make_text_message("jobs", "x");
      msg.set_property("priority", static_cast<std::int32_t>(p));
      sender->publish_to_queue(std::move(msg));
    }
  });
  hydra.sim().run_until(units::seconds(10));
  EXPECT_EQ(got, 4);  // priorities 6..9
}

// --- aggregation timer flush ---

TEST_F(ExtensionFixture, AggregationTimerFlushesPartialBatches) {
  auto dbn = start_broker();
  int received = 0;
  auto sub = client(1, 9000, dbn->broker_endpoint(0));
  sub->connect([&](bool) {
    sub->subscribe("t", "", jms::AcknowledgeMode::kAutoAcknowledge,
                   [&](const jms::MessagePtr&, SimTime) { ++received; });
  });
  auto pub = client(2, 9001, dbn->broker_endpoint(0));
  pub->enable_aggregation(100, units::milliseconds(50));
  pub->connect([&](bool) {
    pub->publish(jms::make_text_message("t", "only-one"));
  });
  hydra.sim().run_until(units::seconds(5));
  EXPECT_EQ(received, 1);  // flushed by the timer, not batch fill
}

// --- R-GMA one-time queries ---

struct RgmaQueryFixture : ::testing::Test {
  cluster::Hydra hydra{cluster::HydraConfig{.seed = 78}};
  rgma::RgmaNetwork network{hydra, rgma::RgmaNetworkConfig{}};
  net::HttpClient http{hydra.streams(), net::Endpoint{4, 20000}};
  util::Rng rng = hydra.sim().rng_stream("test");

  void SetUp() override {
    network.create_table(core::generator_table("generators"));
  }

  std::unique_ptr<rgma::PrimaryProducer> producer(int id) {
    auto p = std::make_unique<rgma::PrimaryProducer>(
        hydra.host(4), http, network.assign_producer_service(), id,
        "generators");
    p->declare(nullptr);
    return p;
  }
};

TEST_F(RgmaQueryFixture, LatestQueryReturnsNewestPerGenerator) {
  auto p1 = producer(1);
  auto p2 = producer(2);
  hydra.sim().schedule_at(units::seconds(2), [&] {
    p1->insert(core::make_generator_row(1, 0, hydra.sim().now(), rng));
    p2->insert(core::make_generator_row(2, 0, hydra.sim().now(), rng));
  });
  hydra.sim().schedule_at(units::seconds(4), [&] {
    p1->insert(core::make_generator_row(1, 1, hydra.sim().now(), rng));
  });

  rgma::Consumer consumer(hydra.host(4), http,
                          network.assign_consumer_service(), 100,
                          "SELECT * FROM generators");
  std::vector<rgma::Tuple> latest;
  hydra.sim().schedule_at(units::seconds(8), [&] {
    consumer.query_latest([&](std::vector<rgma::Tuple> tuples, SimTime) {
      latest = std::move(tuples);
    });
  });
  hydra.sim().run_until(units::seconds(12));
  // One current tuple per generator id; generator 1's is seq=1.
  ASSERT_EQ(latest.size(), 2u);
  for (const auto& tuple : latest) {
    const auto id = std::get<std::int64_t>(tuple.values[core::kRowIdColumn]);
    const auto seq = std::get<std::int64_t>(tuple.values[core::kRowSeqColumn]);
    EXPECT_EQ(seq, id == 1 ? 1 : 0);
  }
}

TEST_F(RgmaQueryFixture, HistoryQueryReturnsEverythingInTheWindow) {
  auto p1 = producer(1);
  hydra.sim().schedule_at(units::seconds(2), [&] {
    for (int i = 0; i < 3; ++i) {
      p1->insert(core::make_generator_row(1, i, hydra.sim().now(), rng));
    }
  });
  rgma::Consumer consumer(hydra.host(4), http,
                          network.assign_consumer_service(), 100,
                          "SELECT * FROM generators");
  std::size_t history = 0;
  hydra.sim().schedule_at(units::seconds(6), [&] {
    consumer.query_history([&](std::vector<rgma::Tuple> tuples, SimTime) {
      history = tuples.size();
    });
  });
  hydra.sim().run_until(units::seconds(10));
  EXPECT_EQ(history, 3u);
}

TEST_F(RgmaQueryFixture, OneTimeQueryAppliesPredicatePushDown) {
  auto p1 = producer(1);
  auto p2 = producer(2);
  hydra.sim().schedule_at(units::seconds(2), [&] {
    p1->insert(core::make_generator_row(1, 0, hydra.sim().now(), rng));
    p2->insert(core::make_generator_row(2, 0, hydra.sim().now(), rng));
  });
  rgma::Consumer consumer(hydra.host(4), http,
                          network.assign_consumer_service(), 100,
                          "SELECT * FROM generators WHERE id = 2");
  std::vector<rgma::Tuple> result;
  hydra.sim().schedule_at(units::seconds(6), [&] {
    consumer.query_latest([&](std::vector<rgma::Tuple> tuples, SimTime) {
      result = std::move(tuples);
    });
  });
  hydra.sim().run_until(units::seconds(10));
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(result[0].values[core::kRowIdColumn]), 2);
}

TEST_F(RgmaQueryFixture, OneTimeQueryOnEmptyTableReturnsNothing) {
  rgma::Consumer consumer(hydra.host(4), http,
                          network.assign_consumer_service(), 100,
                          "SELECT * FROM generators");
  bool answered = false;
  std::size_t count = 99;
  hydra.sim().schedule_at(units::seconds(2), [&] {
    consumer.query_latest([&](std::vector<rgma::Tuple> tuples, SimTime) {
      answered = true;
      count = tuples.size();
    });
  });
  hydra.sim().run_until(units::seconds(5));
  EXPECT_TRUE(answered);
  EXPECT_EQ(count, 0u);
}

// --- failure injection ---

TEST_F(ExtensionFixture, DownedSubscriberNodeLosesTraffic) {
  auto dbn = start_broker();
  int received = 0;
  auto sub = client(1, 9000, dbn->broker_endpoint(0));
  sub->connect([&](bool) {
    sub->subscribe("t", "", jms::AcknowledgeMode::kAutoAcknowledge,
                   [&](const jms::MessagePtr&, SimTime) { ++received; });
  });
  auto pub = client(2, 9001, dbn->broker_endpoint(0));
  pub->connect([&](bool) {
    for (int i = 0; i < 10; ++i) {
      hydra.sim().schedule_after(units::seconds(1 + i), [&] {
        pub->publish(jms::make_text_message("t", "x"));
      });
    }
  });
  // Node 1 goes dark for seconds 4-8.
  hydra.sim().schedule_at(units::seconds(4) + units::milliseconds(500),
                          [&] { hydra.lan().set_node_down(1, true); });
  hydra.sim().schedule_at(units::seconds(8) + units::milliseconds(500),
                          [&] { hydra.lan().set_node_down(1, false); });
  hydra.sim().run_until(units::seconds(20));
  // Messages published at t=5..8 were lost; the rest delivered.
  EXPECT_EQ(received, 6);
  EXPECT_EQ(dbn->broker(0).stats().events_received, 10u);
}

TEST_F(ExtensionFixture, DownedPublisherNodeStopsPublishing) {
  auto dbn = start_broker();
  int received = 0;
  auto sub = client(1, 9000, dbn->broker_endpoint(0));
  sub->connect([&](bool) {
    sub->subscribe("t", "", jms::AcknowledgeMode::kAutoAcknowledge,
                   [&](const jms::MessagePtr&, SimTime) { ++received; });
  });
  auto pub = client(2, 9001, dbn->broker_endpoint(0));
  pub->connect([&](bool) {
    for (int i = 0; i < 4; ++i) {
      hydra.sim().schedule_after(units::seconds(1 + i), [&] {
        pub->publish(jms::make_text_message("t", "x"));
      });
    }
  });
  hydra.sim().schedule_at(units::seconds(2) + units::milliseconds(500),
                          [&] { hydra.lan().set_node_down(2, true); });
  hydra.sim().run_until(units::seconds(20));
  EXPECT_EQ(received, 2);  // t=1, t=2 only
  EXPECT_EQ(pub->published(), 4u);  // the client kept "sending"
}

TEST_F(ExtensionFixture, NodeDownValidation) {
  EXPECT_THROW(hydra.lan().set_node_down(99, true), std::out_of_range);
  EXPECT_FALSE(hydra.lan().node_down(0));
  hydra.lan().set_node_down(0, true);
  EXPECT_TRUE(hydra.lan().node_down(0));
}

}  // namespace
}  // namespace gridmon
