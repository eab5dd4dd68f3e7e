// MQTT control packets exchanged on client↔broker links.
//
// Carried as shared_ptr payloads through the simulated stream transport;
// the fields below are what the real 3.1.1 wire format would serialise.
// Payloads are modelled by size only (the grid samples are opaque binary
// blobs), plus model-level metadata (message_id, published_at) that the
// metrics and obs layers key on — the moral equivalent of the JMS headers
// the Narada model carries.
//
// A packet is immutable once sent (PacketPtr points to const). The broker
// relies on it: a live QoS 0 fan-out forwards the publisher's packet itself
// to every subscriber whose outbound header would equal it (qos 0, same
// retain, no DUP, packet_id 0), and copies only for QoS 1/2 windows,
// retained replays and downgrades. Anything that needs a changed header
// (a DUP re-send, say) copies the packet and changes the copy.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "util/units.hpp"

namespace gridmon::mqtt {

enum class PacketType {
  kConnect,
  kConnAck,
  kSubscribe,
  kSubAck,
  kPublish,
  kPubAck,   ///< QoS 1 acknowledgement
  kPubRec,   ///< QoS 2 step 1: receiver stored the message
  kPubRel,   ///< QoS 2 step 2: sender releases it for delivery
  kPubComp,  ///< QoS 2 step 3: handshake complete
  kPingReq,
  kPingResp,
  kDisconnect,
};

struct Packet {
  PacketType type = PacketType::kPublish;

  // kConnect
  std::string client_id;
  bool clean_session = true;
  SimTime keep_alive = 0;        ///< 0 = no keep-alive contract
  std::string will_topic;        ///< empty = no last-will registered
  std::int64_t will_bytes = 0;
  int will_qos = 0;
  bool will_retain = false;

  // kConnAck
  bool session_present = false;

  // kSubscribe (topic = filter, qos = requested max) / kSubAck (granted)
  // kPublish (topic = name, qos/retain/duplicate = header flags)
  std::string topic;
  int qos = 0;
  bool retain = false;
  bool duplicate = false;        ///< DUP: this is a redelivery
  std::uint16_t packet_id = 0;   ///< QoS > 0 flows and SUBSCRIBE
  std::int64_t payload_bytes = 0;

  // Model metadata (not wire fields). message_id identifies the sample end
  // to end ("ID:node-port-seq"); published_at is the publisher's stamp.
  std::string message_id;
  SimTime published_at = 0;
};

using PacketPtr = std::shared_ptr<const Packet>;

/// Fixed header (control type + remaining length).
constexpr std::int64_t kFixedHeaderBytes = 2;
/// PUBACK/PUBREC/PUBREL/PUBCOMP/PINGREQ/PINGRESP/DISCONNECT/CONNACK.
constexpr std::int64_t kControlPacketBytes = 4;
/// CONNECT variable header: protocol name + level + flags + keep-alive.
constexpr std::int64_t kConnectOverheadBytes = 12;

[[nodiscard]] inline std::int64_t packet_wire_size(const Packet& packet) {
  switch (packet.type) {
    case PacketType::kPublish:
      return kFixedHeaderBytes + 2 +
             static_cast<std::int64_t>(packet.topic.size()) +
             (packet.qos > 0 ? 2 : 0) + packet.payload_bytes;
    case PacketType::kConnect: {
      std::int64_t size = kFixedHeaderBytes + kConnectOverheadBytes +
                          static_cast<std::int64_t>(packet.client_id.size());
      if (!packet.will_topic.empty()) {
        size += 2 + static_cast<std::int64_t>(packet.will_topic.size()) +
                packet.will_bytes;
      }
      return size;
    }
    case PacketType::kSubscribe:
    case PacketType::kSubAck:
      return kFixedHeaderBytes + 2 +
             static_cast<std::int64_t>(packet.topic.size()) + 1;
    default:
      return kControlPacketBytes;
  }
}

}  // namespace gridmon::mqtt
