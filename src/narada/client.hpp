// Narada client link: the JMS provider endpoint an application holds.
//
// Each simulated power generator owns one client (one "concurrent
// connection" in the paper's terminology). A client connects to one broker
// over TCP, NIO or UDP, then publishes and/or subscribes. Client-library
// CPU costs (message assembly, serialisation, listener dispatch) are charged
// to the host the client runs on.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/host.hpp"
#include "jms/destination.hpp"
#include "narada/frames.hpp"
#include "narada/transport.hpp"
#include "net/stream.hpp"
#include "util/rng.hpp"

namespace gridmon::narada {

/// Client-side recovery knob: when an established broker link drops, retry
/// the connection with capped exponential backoff. Jitter is deterministic —
/// drawn from a named kernel RNG stream keyed by the client's endpoint — so
/// chaos runs stay a pure function of (scenario, duration, seed).
struct ReconnectPolicy {
  bool enabled = false;
  SimTime backoff_initial = units::milliseconds(500);
  SimTime backoff_max = units::seconds(8);
  double multiplier = 2.0;
  /// Each delay is stretched by uniform[0, jitter] of itself.
  double jitter = 0.2;
  int max_attempts = 0;  ///< 0 = keep trying until the run ends
  /// Fail-over: after every `rehome_after` consecutive failed attempts the
  /// client re-homes to the next fallback broker (round-robin through
  /// `fallbacks`). Empty keeps hammering the original broker — the classic
  /// single-broker recovery behaviour.
  std::vector<net::Endpoint> fallbacks;
  int rehome_after = 2;
};

class NaradaClient : public std::enable_shared_from_this<NaradaClient> {
 public:
  /// ok=false means the broker refused the connection (its OOM wall).
  using ReadyHandler = std::function<void(bool ok)>;
  /// `arrived_at` is when the frame reached this host (before_receiving in
  /// the paper's RTT decomposition); the callback itself runs at
  /// after_receiving.
  using DeliveryListener =
      std::function<void(const jms::MessagePtr&, SimTime arrived_at)>;
  /// `after_sending` is when the synchronous publish call returned.
  using SendCallback = std::function<void(SimTime after_sending)>;

  static std::shared_ptr<NaradaClient> create(cluster::Host& host,
                                              net::Lan& lan,
                                              net::StreamTransport& streams,
                                              net::Endpoint broker,
                                              net::Endpoint local,
                                              TransportKind transport);
  ~NaradaClient();

  /// Establish the link. Frames issued before readiness are queued.
  void connect(ReadyHandler on_ready);

  /// Register a topic subscription with a JMS selector.
  void subscribe(const std::string& topic, const std::string& selector,
                 jms::AcknowledgeMode ack_mode, DeliveryListener listener);

  /// Register as a PTP queue receiver: each message on the queue goes to
  /// exactly one receiver (round-robin among competing receivers).
  void receive_from_queue(const std::string& queue, const std::string& selector,
                          jms::AcknowledgeMode ack_mode,
                          DeliveryListener listener);

  /// Publish to a PTP queue instead of a topic.
  void publish_to_queue(jms::Message message, SendCallback on_sent = nullptr);

  /// Publish to a topic. Headers (JMSMessageID, JMSTimestamp) are stamped
  /// here, as the JMS provider does on send.
  void publish(jms::Message message, SendCallback on_sent = nullptr);

  /// CLIENT_ACKNOWLEDGE: acknowledge everything received so far.
  void acknowledge();

  /// Enable sender-side message aggregation (the RMM technique from the
  /// paper's related work): up to `batch_size` publishes are combined into
  /// one wire frame, flushed early after `max_delay`. batch_size <= 1
  /// disables aggregation (the default).
  void enable_aggregation(int batch_size,
                          SimTime max_delay = units::milliseconds(100));

  /// Install the recovery policy (call before or after connect). Without a
  /// policy a lost link is permanent: sends are silently dropped, the
  /// paper-faithful no-recovery baseline.
  void set_reconnect_policy(ReconnectPolicy policy);

  /// Enable reconnect gap replay. After a reconnect resubscribe (or a gap
  /// detected in the live delivery chain) the client waits `settle`, then
  /// asks its broker to backfill everything past its per-origin cursors.
  /// `max_retries` bounds follow-up rounds when a reply leaves gaps open.
  void set_replay(SimTime settle, int max_retries);

  [[nodiscard]] bool ready() const { return ready_; }
  [[nodiscard]] bool refused() const { return refused_; }
  [[nodiscard]] std::uint64_t published() const { return published_; }
  [[nodiscard]] std::uint64_t received() const { return received_; }
  [[nodiscard]] std::uint64_t reconnects() const { return reconnects_; }
  [[nodiscard]] std::uint64_t resubscribes() const { return resubscribes_; }
  [[nodiscard]] std::uint64_t rehomes() const { return rehomes_; }
  [[nodiscard]] std::uint64_t backfill_received() const {
    return backfill_received_;
  }
  [[nodiscard]] std::int64_t backfill_bytes() const { return backfill_bytes_; }
  [[nodiscard]] net::Endpoint local() const { return local_; }

 private:
  NaradaClient(cluster::Host& host, net::Lan& lan,
               net::StreamTransport& streams, net::Endpoint broker,
               net::Endpoint local, TransportKind transport);

  void send_frame(FramePtr frame);
  /// The JMSMessageID the next send stamps: "ID:<node>-<port>-<n>", n
  /// counting from 1 (core::MessageId's text form).
  std::string next_message_id();
  void on_frame(const net::Datagram& datagram);
  void handle_deliver(const FramePtr& frame, SimTime arrived_at);
  /// Invoke and clear the ready handler. One-shot semantics: keeping the
  /// handler alive held whatever the caller captured (typically its own
  /// shared_ptr to this client) for the client's whole lifetime — a
  /// reference cycle that leaked every client under ASan.
  void notify_ready(bool ok);
  void adopt_connection(net::StreamConnectionPtr conn);
  void schedule_reconnect();
  void attempt_reconnect();
  void resubscribe();
  /// Returns false when the stamped frame duplicates a sequence already
  /// delivered (the caller must drop it); otherwise records the delivery,
  /// advances the per-origin cursor and schedules a backfill on gaps.
  bool track_replay_delivery(const FramePtr& frame);
  void on_backfill_reply(const FramePtr& frame);
  void schedule_backfill();
  void request_backfill();

  cluster::Host& host_;
  net::Lan& lan_;
  net::StreamTransport& streams_;
  net::Endpoint broker_;
  net::Endpoint local_;
  TransportKind transport_;

  net::StreamConnectionPtr conn_;
  bool ready_ = false;
  bool refused_ = false;
  bool udp_bound_ = false;
  ReadyHandler on_ready_;
  std::deque<FramePtr> backlog_;

  std::string subscribed_topic_;
  std::string subscribed_selector_;
  bool subscribed_is_queue_ = false;
  bool has_subscription_ = false;
  jms::AcknowledgeMode ack_mode_ = jms::AcknowledgeMode::kAutoAcknowledge;
  DeliveryListener listener_;

  // Recovery state.
  ReconnectPolicy reconnect_;
  util::Rng reconnect_rng_;
  int reconnect_attempt_ = 0;
  bool reconnecting_ = false;
  std::uint64_t reconnects_ = 0;
  std::uint64_t resubscribes_ = 0;
  std::size_t fallback_index_ = 0;
  std::uint64_t rehomes_ = 0;

  // Replay (reconnect backfill) state.
  struct OriginCursor {
    std::uint64_t last = 0;         ///< newest contiguously-seen sequence
    std::set<std::uint64_t> ahead;  ///< delivered sequences beyond a gap
  };
  bool replay_enabled_ = false;
  SimTime replay_settle_ = 0;
  int replay_max_retries_ = 0;
  std::map<int, OriginCursor> cursors_;  ///< keyed by origin broker id
  bool backfill_pending_ = false;
  int backfill_round_ = 0;
  std::uint64_t backfill_received_ = 0;
  std::int64_t backfill_bytes_ = 0;

  std::uint64_t next_message_seq_ = 1;
  std::uint64_t published_ = 0;
  std::uint64_t received_ = 0;

  // Aggregation state.
  int aggregation_size_ = 1;
  SimTime aggregation_delay_ = 0;
  std::vector<std::pair<jms::MessagePtr, SendCallback>> aggregation_buffer_;
  sim::ScheduledEvent aggregation_flush_;

  void flush_aggregation();
};

}  // namespace gridmon::narada
