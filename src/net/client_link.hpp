// A stream client's link to its broker: connect, refusal, loss and
// reconnect, written once for the Narada and MQTT clients.
//
// The broker may refuse a connection (the paper's OOM wall, §III.E) or
// lose it later (a chaos crash, a NIC failure). A close before the
// client's handshake completes is a refusal, or one more failed attempt
// while reconnecting; a close after it is a lost link, permanent unless a
// ReconnectPolicy is installed. The client, as the link's Owner, installs
// its own handlers on each connection (the data path stays its own lambda)
// and runs its handshake. The link's kernel closures hold the weak owner
// plus a raw link pointer: they fit EventFn's inline buffer, and a
// destroyed client's pending steps do nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "net/stream.hpp"
#include "util/rng.hpp"

namespace gridmon::net {

/// Client-side recovery: when an established broker link drops, retry with
/// a delay doubling from `backoff_initial` up to `backoff_max`. Installing
/// a policy enables it. Jitter draws from a named kernel RNG stream keyed
/// by the client's endpoint, so chaos runs stay deterministic.
struct ReconnectPolicy {
  SimTime backoff_initial = units::milliseconds(500);
  SimTime backoff_max = units::seconds(8);
  /// Each delay is stretched by uniform[0, jitter] of itself.
  double jitter = 0.2;
  /// Fail-over: every second consecutive failed attempt re-homes the
  /// client to the next fallback broker, round-robin. Empty keeps retrying
  /// the original broker, the classic single-broker recovery.
  std::vector<Endpoint> fallbacks;
};

/// `initial` doubled `doublings` times, capped at `max`.
[[nodiscard]] double capped_backoff(SimTime initial, SimTime max,
                                    int doublings);

class ClientLink {
 public:
  /// ok=false means the broker refused the connection.
  using ReadyHandler = std::function<void(bool ok)>;

  /// The client holding a link.
  class Owner {
   public:
    /// Install the client's handlers on a fresh connection and start its
    /// handshake.
    virtual void adopt_connection(const StreamConnectionPtr& conn) = 0;

   protected:
    ~Owner() = default;
  };

  ClientLink(StreamTransport& streams, Endpoint broker, Endpoint local)
      : streams_(streams), broker_(broker), local_(local) {}

  /// Install the recovery policy (before or after connect). `rng_label`
  /// names the kernel RNG stream the jitter draws from.
  void set_policy(ReconnectPolicy policy, std::string_view rng_label);

  /// Open the connection. The link's pending steps hold `owner` weakly.
  /// `on_ready` fires once: at the first established(), or with false on
  /// refusal.
  void connect(std::weak_ptr<Owner> owner, ReadyHandler on_ready);

  /// The client's handshake completed (a welcome frame, a CONNACK, a bound
  /// UDP port): the link is ready, the backoff starts over and the ready
  /// handler fires. Returns true when this ends a reconnect, so the client
  /// restores its broker-side state.
  bool established();

  /// The client is leaving (a graceful DISCONNECT): the link stops being
  /// ready, and the close that follows is neither a refusal nor a loss.
  void hang_up() {
    hung_up_ = true;
    ready_ = false;
  }

  /// The connection closed. Before the handshake this is a refusal, or one
  /// more failed attempt while reconnecting. After it the link is lost:
  /// `teardown` runs the client's own clean-up, then a reconnect is
  /// scheduled if a policy is installed.
  template <typename Teardown>
  void closed(Teardown&& teardown) {
    if (hung_up_) {
      conn_.reset();
      return;
    }
    if (!ready_) return failed();
    ready_ = false;
    conn_.reset();
    teardown();
    if (recovers_) schedule_reconnect();
  }

  [[nodiscard]] bool ready() const { return ready_; }
  [[nodiscard]] bool refused() const { return refused_; }
  [[nodiscard]] const StreamConnectionPtr& conn() const { return conn_; }
  [[nodiscard]] Endpoint broker() const { return broker_; }
  [[nodiscard]] Endpoint local() const { return local_; }
  [[nodiscard]] std::uint64_t reconnects() const { return reconnects_; }
  [[nodiscard]] std::uint64_t rehomes() const { return rehomes_; }

 private:
  /// Re-home every this many consecutive failed attempts.
  static constexpr int kRehomeAfter = 2;

  [[nodiscard]] sim::Simulation& sim() { return streams_.lan().simulation(); }
  void dial();
  /// The connection failed before the handshake: refused, or retry.
  void failed();
  void schedule_reconnect();
  /// Invoke and clear the ready handler. One-shot: keeping the handler
  /// would hold whatever the caller captured (typically its own shared_ptr
  /// to the client) for the client's whole lifetime, a reference cycle
  /// that leaked every client under ASan.
  void notify_ready(bool ok);

  StreamTransport& streams_;
  Endpoint broker_;
  Endpoint local_;
  std::weak_ptr<Owner> owner_;
  ReadyHandler on_ready_;
  StreamConnectionPtr conn_;

  bool ready_ = false;
  bool refused_ = false;
  bool hung_up_ = false;
  bool recovers_ = false;
  /// Reconnect attempts since the link was last ready; > 0 while
  /// reconnecting.
  int attempt_ = 0;
  ReconnectPolicy policy_;
  util::Rng rng_;
  std::uint64_t reconnects_ = 0;
  std::uint64_t rehomes_ = 0;
};

}  // namespace gridmon::net
