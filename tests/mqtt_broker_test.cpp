// The MQTT broker model: QoS state machines, retained messages, last
// wills, keep-alive expiry, and persistent-session resumption.
#include "mqtt/broker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cluster/hydra.hpp"
#include "mqtt/client.hpp"

namespace gridmon::mqtt {
namespace {

struct MqttFixture : ::testing::Test {
  cluster::Hydra hydra{cluster::HydraConfig{.seed = 3}};
  net::Endpoint broker_ep{0, 1883};

  std::unique_ptr<MqttBroker> start_broker() {
    MqttBrokerConfig config;
    config.endpoint = broker_ep;
    auto broker = std::make_unique<MqttBroker>(hydra.host(0), hydra.lan(),
                                               hydra.streams(), config);
    broker->start();
    return broker;
  }

  std::shared_ptr<MqttClient> make_client(int host, std::uint16_t port,
                                          MqttClientOptions options) {
    return MqttClient::create(hydra.host(host), hydra.lan(), hydra.streams(),
                              broker_ep, net::Endpoint{host, port},
                              std::move(options));
  }
};

TEST_F(MqttFixture, Qos0PublishSubscribeRoundTrip) {
  auto broker = start_broker();
  auto sub = make_client(1, 9000, {.client_id = "sub"});
  auto pub = make_client(2, 9001, {.client_id = "pub"});

  std::vector<std::string> received;
  sub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    sub->subscribe("powergrid/#", 0,
                   [&](const PacketPtr& packet, SimTime) {
                     received.push_back(packet->message_id);
                   });
  });
  pub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    for (int i = 0; i < 5; ++i) {
      pub->publish("powergrid/feeder1/gen0", 128, /*qos=*/0,
                   /*retain=*/false, "m" + std::to_string(i));
    }
  });
  hydra.sim().run_until(units::seconds(10));
  ASSERT_EQ(received.size(), 5u);
  EXPECT_EQ(received.front(), "m0");
  EXPECT_EQ(received.back(), "m4");
  EXPECT_EQ(broker->stats().publishes_received, 5u);
  EXPECT_EQ(broker->stats().publishes_delivered, 5u);
  EXPECT_EQ(broker->session_count(), 2);
  EXPECT_EQ(broker->subscription_count(), 1);
}

TEST_F(MqttFixture, Qos1RedeliversAcrossSubscriberNicFlap) {
  // At-least-once under loss: the subscriber's NIC goes down mid-stream
  // (in-flight frames to it vanish); every delivery sits in the broker's
  // in-flight window until PUBACKed, so the DUP retransmission sweep
  // redelivers the eaten ones once the NIC is back.
  auto broker = start_broker();
  auto sub = make_client(1, 9000, {.client_id = "sub"});
  auto pub = make_client(2, 9001, {.client_id = "pub"});

  std::vector<std::string> received;
  sub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    sub->subscribe("powergrid/#", 1,
                   [&](const PacketPtr& packet, SimTime) {
                     received.push_back(packet->message_id);
                   });
  });
  pub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    for (int i = 0; i < 10; ++i) {
      hydra.sim().schedule_at(
          units::seconds(2) + units::milliseconds(100) * i, [this, &pub, i] {
            pub->publish("powergrid/feeder1/gen0", 128, /*qos=*/1,
                         /*retain=*/false, "m" + std::to_string(i));
          });
    }
  });
  // The flap covers publishes m3..m7; short enough that the broker's
  // keep-alive grace (45 s) never trips.
  hydra.sim().schedule_at(units::milliseconds(2250), [this] {
    hydra.lan().set_node_down(1, true);
  });
  hydra.sim().schedule_at(units::milliseconds(2850), [this] {
    hydra.lan().set_node_down(1, false);
  });
  hydra.sim().run_until(units::seconds(30));

  // Every message arrives at least once (duplicates allowed at QoS 1).
  EXPECT_GE(received.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    const std::string id = "m" + std::to_string(i);
    EXPECT_NE(std::find(received.begin(), received.end(), id),
              received.end())
        << "lost " << id;
  }
  EXPECT_GT(broker->stats().retransmissions, 0u);
}

TEST_F(MqttFixture, Qos2DeliversExactlyOnceUnderDuplicatePublish) {
  // Exactly-once under a lost PUBREC: the publisher's NIC drops right
  // after the PUBLISH leaves, so the broker's PUBREC is eaten and the
  // client's retransmission timer re-sends a DUP PUBLISH. The broker has
  // the packet id parked and must not ingest the duplicate.
  auto broker = start_broker();
  auto sub = make_client(1, 9000, {.client_id = "sub"});
  auto pub = make_client(2, 9001, {.client_id = "pub"});

  int received = 0;
  sub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    sub->subscribe("powergrid/#", 2,
                   [&](const PacketPtr&, SimTime) { ++received; });
  });
  pub->connect([&](bool ok) { ASSERT_TRUE(ok); });
  hydra.sim().schedule_at(units::seconds(2), [this, &pub] {
    // The flap is anchored off the exact send instant: the 156-byte
    // PUBLISH needs ~90 us to reach the broker, the 4-byte PUBREC ~70 us
    // to come back — dropping the NIC 120 us after the send lets the
    // PUBLISH through and eats the PUBREC.
    pub->publish("powergrid/feeder1/gen0", 128, /*qos=*/2,
                 /*retain=*/false, "m0", [this](SimTime after) {
                   hydra.sim().schedule_at(
                       after + units::microseconds(120),
                       [this] { hydra.lan().set_node_down(2, true); });
                   hydra.sim().schedule_at(
                       after + units::seconds(1),
                       [this] { hydra.lan().set_node_down(2, false); });
                 });
  });
  hydra.sim().run_until(units::seconds(30));

  EXPECT_EQ(received, 1);
  EXPECT_GE(pub->retransmissions(), 1u);
  EXPECT_GE(broker->stats().qos2_duplicates_parked, 1u);
  EXPECT_EQ(broker->stats().publishes_delivered, 1u);
}

TEST_F(MqttFixture, RetainedMessageReplayedToLateSubscriber) {
  auto broker = start_broker();
  auto pub = make_client(2, 9001, {.client_id = "pub"});
  pub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    pub->publish("powergrid/feeder1/gen0", 64, /*qos=*/0, /*retain=*/true,
                 "state");
  });
  hydra.sim().run_until(units::seconds(5));
  EXPECT_EQ(broker->retained_count(), 1);

  // A subscriber arriving after the fact still gets the retained state.
  auto late = make_client(1, 9000, {.client_id = "late"});
  std::vector<std::string> received;
  late->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    late->subscribe("powergrid/+/gen0", 0,
                    [&](const PacketPtr& packet, SimTime) {
                      received.push_back(packet->message_id);
                    });
  });
  hydra.sim().run_until(units::seconds(10));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received.front(), "state");
  EXPECT_EQ(broker->stats().retained_replayed, 1u);

  // A zero-byte retained publish clears the slot: the next subscriber
  // sees nothing.
  pub->publish("powergrid/feeder1/gen0", 0, /*qos=*/0, /*retain=*/true,
               "clear");
  hydra.sim().run_until(units::seconds(15));
  EXPECT_EQ(broker->retained_count(), 0);
}

TEST_F(MqttFixture, KeepAliveExpiryPublishesLastWill) {
  // A client that goes silent past 1.5x its keep-alive is expired and its
  // last will goes out to matching subscribers.
  auto broker = start_broker();
  auto sub = make_client(1, 9000, {.client_id = "sub"});
  auto pub = make_client(2, 9001,
                         {.client_id = "pub",
                          .keep_alive = units::seconds(2),
                          .will_topic = "powergrid/status/gen0",
                          .will_bytes = 24});

  std::vector<std::string> topics;
  sub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    sub->subscribe("powergrid/status/+", 0,
                   [&](const PacketPtr& packet, SimTime) {
                     topics.push_back(packet->topic);
                   });
  });
  pub->connect([&](bool ok) { ASSERT_TRUE(ok); });
  // Yank the publisher's cable for good: pings stop, the broker expires
  // the session at ~3 s of silence and publishes the will.
  hydra.sim().schedule_at(units::seconds(2),
                          [this] { hydra.lan().set_node_down(2, true); });
  hydra.sim().run_until(units::seconds(30));

  ASSERT_EQ(topics.size(), 1u);
  EXPECT_EQ(topics.front(), "powergrid/status/gen0");
  EXPECT_EQ(broker->stats().sessions_expired, 1u);
  EXPECT_EQ(broker->stats().wills_published, 1u);
}

TEST_F(MqttFixture, PersistentSessionResumesWithoutResubscribe) {
  // A persistent (clean_session=false) subscriber that drops out keeps
  // its subscription and gets offline traffic queued; on reconnect the
  // CONNACK reports session_present, so no resubscribe happens and the
  // queue drains.
  auto broker = start_broker();
  auto sub = make_client(1, 9000,
                         {.client_id = "sub",
                          .clean_session = false,
                          .keep_alive = units::seconds(2)});
  ReconnectPolicy policy;
  policy.enabled = true;
  policy.backoff_initial = units::milliseconds(500);
  sub->set_reconnect_policy(policy);
  auto pub = make_client(2, 9001, {.client_id = "pub"});

  std::vector<std::string> received;
  sub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    sub->subscribe("powergrid/#", 1,
                   [&](const PacketPtr& packet, SimTime) {
                     received.push_back(packet->message_id);
                   });
  });
  pub->connect([&](bool ok) { ASSERT_TRUE(ok); });
  for (int i = 0; i < 10; ++i) {
    hydra.sim().schedule_at(units::seconds(2) + units::seconds(1) * i,
                            [&pub, i] {
                              pub->publish("powergrid/feeder1/gen0", 128,
                                           /*qos=*/1, /*retain=*/false,
                                           "m" + std::to_string(i));
                            });
  }
  // A 5 s outage: long enough for the broker to expire the connection
  // (grace 3 s), short enough that the reconnect lands mid-stream.
  hydra.sim().schedule_at(units::milliseconds(2500),
                          [this] { hydra.lan().set_node_down(1, true); });
  hydra.sim().schedule_at(units::milliseconds(7500),
                          [this] { hydra.lan().set_node_down(1, false); });
  hydra.sim().run_until(units::seconds(60));

  EXPECT_GE(sub->reconnects(), 1u);
  EXPECT_EQ(sub->resubscribes(), 0u);  // session held the subscription
  EXPECT_GE(broker->stats().sessions_resumed, 1u);
  for (int i = 0; i < 10; ++i) {
    const std::string id = "m" + std::to_string(i);
    EXPECT_NE(std::find(received.begin(), received.end(), id),
              received.end())
        << "lost " << id;
  }
}

TEST_F(MqttFixture, OfflineQueueBoundedByRetentionPolicy) {
  // The offline queue used to grow without bound while a persistent
  // session was parked. It is now a HistoryBuffer under the broker's
  // retention policy: drop-oldest eviction counted in queue_dropped, and
  // the resumed drain counted as backfill.
  MqttBrokerConfig config;
  config.endpoint = broker_ep;
  config.retention.max_entries = 4;
  auto broker = std::make_unique<MqttBroker>(hydra.host(0), hydra.lan(),
                                             hydra.streams(), config);
  broker->start();

  auto sub = make_client(1, 9000,
                         {.client_id = "sub",
                          .clean_session = false,
                          .keep_alive = units::seconds(2)});
  ReconnectPolicy policy;
  policy.enabled = true;
  policy.backoff_initial = units::milliseconds(500);
  sub->set_reconnect_policy(policy);
  auto pub = make_client(2, 9001, {.client_id = "pub"});

  std::vector<std::string> received;
  sub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    sub->subscribe("powergrid/#", 1,
                   [&](const PacketPtr& packet, SimTime) {
                     received.push_back(packet->message_id);
                   });
  });
  pub->connect([&](bool ok) { ASSERT_TRUE(ok); });

  // Subscriber NIC down from 2.5 s; the broker parks the session once the
  // keep-alive grace expires. Ten QoS 1 publishes land from t=8 s — all
  // while the session is parked — but only the newest 4 fit the policy.
  hydra.sim().schedule_at(units::milliseconds(2500),
                          [this] { hydra.lan().set_node_down(1, true); });
  for (int i = 0; i < 10; ++i) {
    hydra.sim().schedule_at(
        units::seconds(8) + units::milliseconds(500) * i, [&pub, i] {
          pub->publish("powergrid/feeder1/gen0", 128, /*qos=*/1,
                       /*retain=*/false, "m" + std::to_string(i));
        });
  }
  hydra.sim().schedule_at(units::seconds(16),
                          [this] { hydra.lan().set_node_down(1, false); });
  hydra.sim().run_until(units::seconds(60));

  EXPECT_EQ(broker->stats().queue_dropped, 6u);
  EXPECT_EQ(broker->stats().backfill_msgs, 4u);
  // Exactly the retained tail arrives after resumption — the evicted
  // oldest six are honestly gone, not silently redelivered.
  const std::vector<std::string> expected = {"m6", "m7", "m8", "m9"};
  EXPECT_EQ(received, expected);
}

TEST_F(MqttFixture, BrokerCrashLosesStateAndClientsRecover) {
  // crash() models a process kill: sessions, retained store and in-flight
  // windows are gone. A client with a reconnect policy comes back, finds
  // session_present=0 and resubscribes.
  auto broker = start_broker();
  auto sub = make_client(1, 9000,
                         {.client_id = "sub", .clean_session = false});
  ReconnectPolicy policy;
  policy.enabled = true;
  policy.backoff_initial = units::milliseconds(500);
  sub->set_reconnect_policy(policy);

  int received = 0;
  sub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    sub->subscribe("powergrid/#", 1,
                   [&](const PacketPtr&, SimTime) { ++received; });
  });
  hydra.sim().schedule_at(units::seconds(5), [&broker] { broker->crash(); });
  hydra.sim().schedule_at(units::seconds(8), [&broker] { broker->restart(); });

  auto pub = make_client(2, 9001, {.client_id = "pub"});
  hydra.sim().schedule_at(units::seconds(15), [&pub] {
    pub->connect([&pub](bool ok) {
      ASSERT_TRUE(ok);
      pub->publish("powergrid/feeder1/gen0", 128, /*qos=*/1,
                   /*retain=*/false, "after-crash");
    });
  });
  hydra.sim().run_until(units::seconds(60));

  EXPECT_EQ(broker->stats().crashes, 1u);
  EXPECT_GE(sub->reconnects(), 1u);
  EXPECT_GE(sub->resubscribes(), 1u);  // broker came back empty
  EXPECT_EQ(received, 1);              // post-crash traffic flows again
}

TEST_F(MqttFixture, OverlappingFiltersDeliverOnceAtBestGrant) {
  // A session holding several filters that all match one topic gets the
  // publish exactly once, at the maximum matching grant. The old publish
  // path delivered at whichever filter the session walk hit first (here
  // the broad QoS 0 one, subscribed first).
  auto broker = start_broker();
  auto sub = make_client(1, 9000, {.client_id = "sub"});
  auto pub = make_client(2, 9001, {.client_id = "pub"});

  std::vector<int> delivered_qos;
  sub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    sub->subscribe("powergrid/#", 0, [](const PacketPtr&, SimTime) {});
    sub->subscribe("powergrid/feeder1/+", 1,
                   [&](const PacketPtr& packet, SimTime) {
                     delivered_qos.push_back(packet->qos);
                   });
  });
  pub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    hydra.sim().schedule_at(units::seconds(2), [&pub] {
      pub->publish("powergrid/feeder1/gen0", 128, /*qos=*/1,
                   /*retain=*/false, "m0");
    });
  });
  hydra.sim().run_until(units::seconds(10));

  EXPECT_EQ(broker->subscription_count(), 2);
  ASSERT_EQ(delivered_qos.size(), 1u);  // once, not once per filter
  EXPECT_EQ(delivered_qos.front(), 1);  // at the best grant, not the first
  EXPECT_EQ(broker->stats().publishes_delivered, 1u);
}

/// The header fields a subscriber sees, for the copy-rule tests.
struct Header {
  int qos = -1;
  bool retain = false;
  bool duplicate = false;
  std::uint16_t packet_id = 0;
  const Packet* object = nullptr;  ///< identity: shared or copied

  explicit Header(const Packet& packet)
      : qos(packet.qos),
        retain(packet.retain),
        duplicate(packet.duplicate),
        packet_id(packet.packet_id),
        object(&packet) {}
};

TEST_F(MqttFixture, LiveQos0FanOutSharesThePublishedPacket) {
  // A live QoS 0 delivery arrives as a plain header (retain 0, no DUP,
  // packet id 0). When that equals the published header the broker
  // forwards the publisher's immutable packet itself, so two subscribers
  // see one object; a retained publish needs retain cleared for live
  // subscribers, so each gets its own copy.
  auto broker = start_broker();
  auto sub_a = make_client(1, 9000, {.client_id = "sub-a"});
  auto sub_b = make_client(3, 9002, {.client_id = "sub-b"});
  auto pub = make_client(2, 9001, {.client_id = "pub"});

  std::vector<Header> got_a;
  std::vector<Header> got_b;
  sub_a->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    sub_a->subscribe("powergrid/#", 0, [&](const PacketPtr& packet, SimTime) {
      got_a.emplace_back(*packet);
    });
  });
  sub_b->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    sub_b->subscribe("powergrid/#", 1, [&](const PacketPtr& packet, SimTime) {
      got_b.emplace_back(*packet);
    });
  });
  pub->connect([&](bool ok) { ASSERT_TRUE(ok); });
  hydra.sim().schedule_at(units::seconds(2), [&pub] {
    pub->publish("powergrid/feeder1/gen0", 128, /*qos=*/0, /*retain=*/false,
                 "plain");
    pub->publish("powergrid/feeder1/gen0", 128, /*qos=*/0, /*retain=*/true,
                 "retained");
  });
  hydra.sim().run_until(units::seconds(10));

  ASSERT_EQ(got_a.size(), 2u);
  ASSERT_EQ(got_b.size(), 2u);
  for (const auto* got : {&got_a, &got_b}) {
    for (const Header& header : *got) {
      EXPECT_EQ(header.qos, 0);
      EXPECT_FALSE(header.retain);
      EXPECT_FALSE(header.duplicate);
      EXPECT_EQ(header.packet_id, 0);
    }
  }
  EXPECT_EQ(got_a[0].object, got_b[0].object);  // shared as published
  EXPECT_NE(got_a[1].object, got_b[1].object);  // retain cleared: copies
  EXPECT_EQ(broker->stats().publishes_delivered, 4u);
}

TEST_F(MqttFixture, RetainedQos0ReplayArrivesRetained) {
  auto broker = start_broker();
  auto pub = make_client(2, 9001, {.client_id = "pub"});
  pub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    pub->publish("powergrid/feeder1/gen0", 64, /*qos=*/0, /*retain=*/true,
                 "state");
  });
  hydra.sim().run_until(units::seconds(5));

  auto late = make_client(1, 9000, {.client_id = "late"});
  std::vector<Header> got;
  late->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    late->subscribe("powergrid/#", 0, [&](const PacketPtr& packet, SimTime) {
      got.emplace_back(*packet);
    });
  });
  hydra.sim().run_until(units::seconds(10));

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].qos, 0);
  EXPECT_TRUE(got[0].retain);
  EXPECT_FALSE(got[0].duplicate);
  EXPECT_EQ(got[0].packet_id, 0);
  EXPECT_EQ(broker->stats().retained_replayed, 1u);
}

TEST_F(MqttFixture, Qos2PublishToQos0SubscriberIsDowngraded) {
  // The publisher's packet carries qos 2 and a packet id; a QoS 0 grant
  // gets a copy downgraded to qos 0 with no packet id, exactly once.
  auto broker = start_broker();
  auto sub = make_client(1, 9000, {.client_id = "sub"});
  auto pub = make_client(2, 9001, {.client_id = "pub"});

  std::vector<Header> got;
  sub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    sub->subscribe("powergrid/#", 0, [&](const PacketPtr& packet, SimTime) {
      got.emplace_back(*packet);
    });
  });
  pub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    hydra.sim().schedule_at(units::seconds(2), [&pub] {
      pub->publish("powergrid/feeder1/gen0", 128, /*qos=*/2,
                   /*retain=*/false, "m0");
    });
  });
  hydra.sim().run_until(units::seconds(10));

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].qos, 0);
  EXPECT_EQ(got[0].packet_id, 0);
  EXPECT_FALSE(got[0].retain);
  EXPECT_FALSE(got[0].duplicate);
}

TEST_F(MqttFixture, TakeoverRoutesPacketsToTheNewSessionOnly) {
  // A second CONNECT under a live client id supersedes the first
  // connection and, being clean, erases the old session. The broker
  // resolves a connection's session once, at CONNECT, so whatever the old
  // connection still has in flight must die with it: it may neither touch
  // the erased session (a use-after-free under the mqtt_asan entry) nor
  // land on the new one.
  auto broker = start_broker();
  auto old_client = make_client(1, 9000, {.client_id = "gen"});
  auto new_client = make_client(3, 9002, {.client_id = "gen"});
  auto pub = make_client(2, 9001, {.client_id = "pub"});

  std::vector<std::string> old_got;
  std::vector<std::string> new_got;
  const auto record = [](std::vector<std::string>& into) {
    return [&into](const PacketPtr& packet, SimTime) {
      into.push_back(packet->topic);
    };
  };
  old_client->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    old_client->subscribe("old/#", 0, record(old_got));
  });
  pub->connect([&](bool ok) { ASSERT_TRUE(ok); });
  // From 2 s the old connection subscribes every 20 us for 20 ms, so some
  // of its packets are on the wire when the takeover lands at ~2.005 s.
  for (int i = 0; i < 1000; ++i) {
    hydra.sim().schedule_at(
        units::seconds(2) + units::microseconds(20) * i, [&, i] {
          old_client->subscribe("stale/" + std::to_string(i) + "/#", 0,
                                record(old_got));
        });
  }
  hydra.sim().schedule_at(units::milliseconds(2005), [&] {
    new_client->connect([&](bool ok) {
      ASSERT_TRUE(ok);
      new_client->subscribe("new/#", 0, record(new_got));
    });
  });
  hydra.sim().schedule_at(units::seconds(3), [&pub] {
    for (const char* topic :
         {"old/x", "stale/500/x", "stale/999/x", "new/x"}) {
      pub->publish(topic, 64, /*qos=*/0, /*retain=*/false, topic);
    }
  });
  hydra.sim().run_until(units::seconds(10));

  EXPECT_EQ(broker->session_count(), 2);       // gen (new) and pub
  EXPECT_EQ(broker->subscription_count(), 1);  // new/# alone
  EXPECT_TRUE(old_got.empty());
  EXPECT_EQ(new_got, std::vector<std::string>{"new/x"});
}

TEST_F(MqttFixture, CleanReconnectStartsAFreshSession) {
  // DISCONNECT erases a clean session from inside its own packet handler;
  // the next CONNECT under that id gets a new session, and its packets are
  // processed against that session alone.
  auto broker = start_broker();
  auto first = make_client(1, 9000, {.client_id = "gen"});
  auto second = make_client(1, 9003, {.client_id = "gen"});
  auto pub = make_client(2, 9001, {.client_id = "pub"});

  std::vector<std::string> first_got;
  std::vector<std::string> second_got;
  first->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    first->subscribe("a/#", 0, [&](const PacketPtr& packet, SimTime) {
      first_got.push_back(packet->topic);
    });
  });
  pub->connect([&](bool ok) { ASSERT_TRUE(ok); });
  hydra.sim().schedule_at(units::seconds(2), [&] { first->disconnect(); });
  hydra.sim().schedule_at(units::seconds(3), [&] {
    second->connect([&](bool ok) {
      ASSERT_TRUE(ok);
      second->subscribe("b/#", 0, [&](const PacketPtr& packet, SimTime) {
        second_got.push_back(packet->topic);
      });
    });
  });
  hydra.sim().schedule_at(units::seconds(4), [&pub] {
    pub->publish("a/x", 64, /*qos=*/0, /*retain=*/false, "a");
    pub->publish("b/x", 64, /*qos=*/0, /*retain=*/false, "b");
  });
  hydra.sim().run_until(units::seconds(10));

  EXPECT_EQ(broker->session_count(), 2);
  EXPECT_EQ(broker->subscription_count(), 1);
  EXPECT_TRUE(first_got.empty());
  EXPECT_EQ(second_got, std::vector<std::string>{"b/x"});
}

}  // namespace
}  // namespace gridmon::mqtt
