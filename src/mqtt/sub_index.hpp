// Subscription index: a topic trie over the broker's filter table.
//
// The broker's publish path used to walk every session's filter list and
// run topic_matches() per filter — twice per publish (once to count the
// fan-out for the service-demand model, once to deliver). That scan is
// O(sessions × filters) per publish, and at 4000 sessions it dominates
// the event loop. The index stores each filter once along its '/'-split
// level path, with dedicated '+' and '#' edges, so one walk of the topic's
// levels finds every matching subscription.
//
// Semantics contract: match() returns exactly the sessions for which
// topic_matches(filter, topic) holds for at least one of the session's
// filters — including the '$'-topic rule (root-level wildcards never match
// broker-internal topics), "sport/#" matching "sport" itself, and the
// tolerated-but-invalid mid-filter '#' ("a/#/b"), which topic_matches
// treats as matching any non-empty remainder but not exhaustion. Results
// are deduplicated to one entry per session at its best (maximum) granted
// QoS, ordered by client id — the same order the broker's session-map walk
// produced.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/intern.hpp"

namespace gridmon::mqtt {

class SubscriptionIndex {
 public:
  /// One matched session: its best-matching grant and the opaque handle
  /// registered at subscribe time (the broker's Session*).
  struct Match {
    const std::string* client = nullptr;
    void* handle = nullptr;
    int qos = 0;
  };

  SubscriptionIndex() = default;
  ~SubscriptionIndex();
  SubscriptionIndex(const SubscriptionIndex&) = delete;
  SubscriptionIndex& operator=(const SubscriptionIndex&) = delete;

  /// Register `filter` for the session identified by `handle`. A repeat
  /// subscribe for the same (filter, handle) updates the granted QoS in
  /// place (MQTT replace-on-resubscribe). `client` must outlive the entry
  /// (the broker's session map has stable nodes).
  void subscribe(std::string_view filter, const std::string& client,
                 void* handle, int qos);

  /// Remove one (filter, handle) registration; no-op if absent.
  void remove(std::string_view filter, void* handle);

  /// Drop everything (broker crash).
  void clear();

  /// All sessions with at least one filter matching `topic`, one entry per
  /// session at its maximum granted QoS, ordered by client id. Reuses
  /// `out`'s capacity, and the index's own walk scratch, so a publish
  /// allocates nothing here once the buffers have grown.
  void match(std::string_view topic, std::vector<Match>& out) const;

  [[nodiscard]] std::size_t entry_count() const { return entry_count_; }
  /// Bytes held live (nodes + entries + interned level strings), mirrored
  /// into the mem_sub_index profile category by the update methods.
  [[nodiscard]] std::int64_t footprint_bytes() const { return footprint_; }

 private:
  struct Entry {
    const std::string* client;
    void* handle;
    int qos;
  };

  struct Node {
    /// Literal children, keyed by interned level id (small: linear scan).
    std::vector<std::pair<std::uint32_t, std::unique_ptr<Node>>> children;
    std::unique_ptr<Node> plus;      ///< '+' edge (any single level)
    std::vector<Entry> entries;      ///< filters ending at this node
    std::vector<Entry> hash_strict;  ///< "<prefix>/#" — also matches prefix
    std::vector<Entry> hash_loose;   ///< mid-filter '#' — remainder only
  };

  /// A pending trie position: `node` with `idx` topic levels consumed.
  struct Frame {
    const Node* node;
    std::size_t idx;
  };

  /// Which terminal list a filter lands in, resolved by walking (and
  /// optionally creating) its level path. Null when absent and !create.
  std::vector<Entry>* terminal(std::string_view filter, bool create);

  [[nodiscard]] std::uint32_t intern(std::string_view level);
  [[nodiscard]] const Node* literal_child(const Node& node,
                                          std::string_view level) const;

  void account(std::int64_t delta);

  Node root_;
  /// Level string → id. Ids index nothing outside children keys; the
  /// table's contiguous arena owns the interned storage.
  util::StringTable intern_;
  std::size_t entry_count_ = 0;
  std::int64_t footprint_ = 0;
  /// match()'s topic levels and walk stack, kept for their capacity (the
  /// contents are dead between calls; match() calls out to nothing). So
  /// one index must not be matched from two threads at once; a broker and
  /// its index live on one campaign worker.
  mutable std::vector<std::string_view> levels_;
  mutable std::vector<Frame> stack_;
};

}  // namespace gridmon::mqtt
