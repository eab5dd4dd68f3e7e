// MQTT-style message broker.
//
// One MqttBroker runs on one Host as a single-process event loop (no
// thread per connection — sessions cost heap, not stacks, so the broker's
// admission wall sits far beyond Narada's ~4000-thread OOM). It speaks a
// minimal deterministic MQTT 3.1.1 subset:
//
//  - CONNECT / CONNACK with deterministic client ids, clean and persistent
//    sessions (a persistent session keeps its subscriptions, queued
//    messages and in-flight QoS state across disconnects; CONNACK reports
//    session_present so the client knows whether to resubscribe);
//  - keep-alive: a session silent for 1.5 × its keep-alive interval is
//    expired — its last-will message (registered at CONNECT) is published;
//  - SUBSCRIBE with topic filters ('+' one level, '#' trailing levels);
//  - PUBLISH at QoS 0 (fire-and-forget), QoS 1 (PUBACK, at-least-once:
//    DUP redeliveries are re-ingested), QoS 2 (PUBREC/PUBREL/PUBCOMP,
//    exactly-once: duplicates parked by packet id until released);
//  - retained messages: the latest retained publish per topic is replayed
//    to new matching subscribers (zero-byte retained publish clears it);
//  - unacknowledged QoS 1/2 deliveries are re-sent with DUP on a periodic
//    retransmission sweep.
//
// crash() models a broker-process kill: every connection is torn down and
// all in-memory state — sessions, retained store, in-flight windows — is
// lost; restart() comes back empty, so recovery depends on the clients
// (reconnect, resubscribe, redeliver their own in-flight QoS 1/2 windows).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/host.hpp"
#include "core/history.hpp"
#include "mqtt/packets.hpp"
#include "mqtt/sub_index.hpp"
#include "net/lan.hpp"
#include "net/stream.hpp"

namespace gridmon::mqtt {

struct MqttBrokerConfig {
  net::Endpoint endpoint;
  int broker_id = 0;
  /// Unacknowledged QoS 1/2 deliveries are re-sent (DUP) once they are
  /// older than `retransmit_timeout`, checked every `retransmit_sweep`.
  SimTime retransmit_timeout = units::seconds(4);
  SimTime retransmit_sweep = units::seconds(1);
  /// Keep-alive sessions expire after `keep_alive_grace` × keep-alive of
  /// silence (1.5 per the MQTT specification).
  double keep_alive_grace = 1.5;
  /// Retention policy bounding each persistent session's offline queue
  /// (QoS 1/2 messages parked while the client is away). Drop-oldest
  /// evictions are counted in `queue_dropped` — the fix for the formerly
  /// unbounded clean_session=false queue growth.
  core::RetentionConfig retention;
};

struct MqttBrokerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_refused = 0;
  std::uint64_t sessions_resumed = 0;     ///< CONNACK session_present=1
  std::uint64_t publishes_received = 0;   ///< PUBLISH packets from clients
  std::uint64_t publishes_delivered = 0;  ///< deliveries to subscribers
  std::uint64_t qos2_duplicates_parked = 0;  ///< exactly-once dedup hits
  std::uint64_t retained_replayed = 0;    ///< retained sends on subscribe
  std::uint64_t wills_published = 0;      ///< keep-alive expiry last-wills
  std::uint64_t sessions_expired = 0;
  std::uint64_t retransmissions = 0;      ///< broker-side DUP re-sends
  std::uint64_t crashes = 0;
  std::uint64_t queue_dropped = 0;   ///< offline-queue retention evictions
  std::uint64_t backfill_msgs = 0;   ///< offline-queue drains at resumption
  std::int64_t backfill_bytes = 0;   ///< bytes of those drained deliveries
};

class MqttBroker {
 public:
  MqttBroker(cluster::Host& host, net::Lan& lan,
             net::StreamTransport& streams, MqttBrokerConfig config);
  ~MqttBroker();

  MqttBroker(const MqttBroker&) = delete;
  MqttBroker& operator=(const MqttBroker&) = delete;

  /// Begin listening and start the retransmission / keep-alive sweeps.
  void start();

  /// Fault injection: kill the broker process. Every client connection is
  /// torn down and all soft state (sessions, retained messages, in-flight
  /// QoS windows) is lost.
  void crash();
  /// Bring a crashed broker back up, empty: clients must reconnect,
  /// resubscribe and redeliver their own in-flight messages.
  void restart();
  [[nodiscard]] bool crashed() const { return crashed_; }

  [[nodiscard]] const MqttBrokerStats& stats() const { return stats_; }
  [[nodiscard]] cluster::Host& host() { return host_; }
  [[nodiscard]] net::Endpoint endpoint() const { return config_.endpoint; }
  [[nodiscard]] int session_count() const {
    return static_cast<int>(sessions_.size());
  }
  [[nodiscard]] int retained_count() const {
    return static_cast<int>(retained_.size());
  }
  [[nodiscard]] int subscription_count() const;

 private:
  /// Broker→subscriber QoS 1/2 delivery awaiting its acknowledgement.
  struct InFlightOut {
    PacketPtr publish;       ///< the kPublish packet (packet_id assigned)
    bool awaiting_comp = false;  ///< QoS 2: PUBREC seen, waiting on PUBCOMP
    SimTime last_sent = 0;
  };

  struct Session {
    std::string client_id;
    bool clean = true;
    bool connected = false;
    net::StreamConnectionPtr conn;
    SimTime keep_alive = 0;
    SimTime last_seen = 0;
    // Last will, registered at CONNECT, published on ungraceful loss.
    std::string will_topic;
    std::int64_t will_bytes = 0;
    int will_qos = 0;
    bool will_retain = false;
    /// (filter, granted max QoS), replace-on-resubscribe.
    std::vector<std::pair<std::string, int>> subscriptions;
    /// Outbound QoS 1/2 window, keyed by broker-assigned packet id.
    std::map<std::uint16_t, InFlightOut> in_flight;
    /// QoS 1/2 messages queued while a persistent session is offline,
    /// bounded by the broker's retention policy (kHistory-accounted;
    /// evictions count into stats_.queue_dropped).
    core::HistoryBuffer offline_queue;
    /// Inbound QoS 2 messages parked until PUBREL (exactly-once dedup).
    std::map<std::uint16_t, PacketPtr> inbound_qos2;
    std::uint16_t next_packet_id = 1;
  };

  void on_stream_accept(net::StreamConnectionPtr conn);
  void handle_connect(const net::StreamConnectionPtr& conn,
                      const PacketPtr& packet);
  void on_session_packet(Session& session, const net::Datagram& datagram);
  void handle_publish(Session& session, const PacketPtr& packet);
  /// Route a publish to matching subscribers (after CPU service time).
  void ingest_publish(const PacketPtr& packet);
  void deliver(Session& session, int granted_qos, const PacketPtr& publish,
               bool retained_replay);
  void send_to(Session& session, const PacketPtr& packet);
  void reply(Session& session, PacketType type, std::uint16_t packet_id);
  /// Publish the session's last will (keep-alive expiry / ungraceful drop).
  void publish_will(Session& session);
  /// Detach the connection. Graceful (DISCONNECT / broker-initiated) drops
  /// skip the will; a clean session is erased entirely.
  void drop_connection(const std::string& client_id, bool graceful);
  void retransmit_packets();
  void expire_sessions();
  void store_retained(const PacketPtr& packet);
  void replay_retained(Session& session, const std::string& filter,
                       int granted_qos);
  void erase_session(const std::string& client_id);

  [[nodiscard]] SimTime packet_service_demand(std::int64_t bytes,
                                              int fanout) const;

  cluster::Host& host_;
  net::Lan& lan_;
  net::StreamTransport& streams_;
  MqttBrokerConfig config_;

  /// Sessions keyed by client id (ordered, so sweeps and fan-out walk the
  /// table deterministically). Map nodes are stable across other inserts.
  ///
  /// Invariant: a session is erased only after its connection is closed,
  /// and a closed StreamConnection delivers nothing (in-flight packets are
  /// dropped on arrival). Each connection's packet handler therefore holds
  /// its Session* for the connection's life instead of looking the client
  /// id up per packet; every path that clears `connected` (takeover,
  /// drop_connection, crash) also closes the connection.
  std::map<std::string, Session> sessions_;
  /// Topic trie over every session's filters: one walk per publish instead
  /// of a filter scan per session. Kept in lockstep with the
  /// session subscription lists (subscribe / erase_session / crash).
  SubscriptionIndex sub_index_;
  /// Match-result scratch, reused across publishes.
  std::vector<SubscriptionIndex::Match> match_scratch_;
  /// Latest retained message per topic.
  std::map<std::string, PacketPtr> retained_;

  sim::PeriodicTimer retransmit_timer_;
  sim::PeriodicTimer keep_alive_timer_;
  bool started_ = false;
  bool crashed_ = false;

  MqttBrokerStats stats_;
};

}  // namespace gridmon::mqtt
