#include "net/client_link.hpp"

#include <algorithm>
#include <utility>

namespace gridmon::net {

double capped_backoff(SimTime initial, SimTime max, int doublings) {
  double delay = static_cast<double>(initial);
  for (int i = 0; i < doublings; ++i) {
    delay *= 2.0;
    if (delay >= static_cast<double>(max)) break;
  }
  return std::min(delay, static_cast<double>(max));
}

void ClientLink::set_policy(ReconnectPolicy policy,
                            std::string_view rng_label) {
  policy_ = std::move(policy);
  recovers_ = true;
  // Deterministic jitter: a named kernel stream keyed by the client's
  // endpoint, independent of event-arrival order.
  rng_ = sim().rng_stream(rng_label).stream(
      (static_cast<std::uint64_t>(local_.node) << 16) | local_.port);
}

void ClientLink::connect(std::weak_ptr<Owner> owner, ReadyHandler on_ready) {
  owner_ = std::move(owner);
  on_ready_ = std::move(on_ready);
  dial();
}

void ClientLink::dial() {
  streams_.connect(local_, broker_, [owner = owner_, link = this](
                                        StreamConnectionPtr conn) {
    const auto client = owner.lock();
    if (!client) return;
    if (!conn) return link->failed();
    link->conn_ = std::move(conn);
    client->adopt_connection(link->conn_);
  });
}

bool ClientLink::established() {
  ready_ = true;
  const bool was_reconnect = attempt_ > 0;
  attempt_ = 0;
  notify_ready(true);
  return was_reconnect;
}

void ClientLink::failed() {
  if (attempt_ > 0) {
    // The broker is still down (or down again): back off and retry.
    schedule_reconnect();
    return;
  }
  // The first connection never completed its handshake: the broker
  // refused us (out of memory for the connection, or admission).
  refused_ = true;
  notify_ready(false);
}

void ClientLink::schedule_reconnect() {
  ++attempt_;
  ++reconnects_;
  if (!policy_.fallbacks.empty() && attempt_ % kRehomeAfter == 0) {
    // Persistent failures: fail over to the next surviving broker instead
    // of waiting out the crashed one.
    broker_ = policy_.fallbacks[rehomes_ % policy_.fallbacks.size()];
    ++rehomes_;
  }
  double delay = capped_backoff(policy_.backoff_initial, policy_.backoff_max,
                                attempt_ - 1);
  if (policy_.jitter > 0.0) delay *= 1.0 + rng_.uniform(0.0, policy_.jitter);
  sim().schedule_after(static_cast<SimTime>(delay),
                       [owner = owner_, link = this] {
                         if (const auto client = owner.lock()) link->dial();
                       });
}

void ClientLink::notify_ready(bool ok) {
  auto callback = std::move(on_ready_);
  on_ready_ = nullptr;
  if (callback) callback(ok);
}

}  // namespace gridmon::net
