#include "mqtt/sub_index.hpp"

#include <algorithm>

#include "obs/memprof.hpp"

namespace gridmon::mqtt {

SubscriptionIndex::~SubscriptionIndex() {
  if (footprint_ != 0) {
    obs::mem_sub(obs::MemCategory::kMqttSubIndex, footprint_);
  }
}

void SubscriptionIndex::account(std::int64_t delta) {
  footprint_ += delta;
  obs::mem_add(obs::MemCategory::kMqttSubIndex, delta);
}

std::uint32_t SubscriptionIndex::intern(std::string_view level) {
  const std::int64_t before = intern_.bytes();
  const util::StringTable::Id id = intern_.intern(level);
  account(intern_.bytes() - before);  // zero when already interned
  return id;
}

const SubscriptionIndex::Node* SubscriptionIndex::literal_child(
    const Node& node, std::string_view level) const {
  const util::StringTable::Id want = intern_.find(level);
  if (want == util::StringTable::kInvalidId) return nullptr;
  for (const auto& [id, child] : node.children) {
    if (id == want) return child.get();
  }
  return nullptr;
}

std::vector<SubscriptionIndex::Entry>* SubscriptionIndex::terminal(
    std::string_view filter, bool create) {
  // topic_matches() never matches an empty filter; store nothing.
  if (filter.empty()) return nullptr;
  Node* node = &root_;
  std::string_view rest = filter;
  bool more = true;
  while (more) {
    std::string_view level;
    const auto slash = rest.find('/');
    if (slash == std::string_view::npos) {
      level = rest;
      more = false;
    } else {
      level = rest.substr(0, slash);
      rest = rest.substr(slash + 1);
    }
    if (level == "#") {
      // '#' consumes everything that follows. A trailing '#' also matches
      // the parent topic itself; a (tolerated-but-invalid) mid-filter '#'
      // matches only a non-empty remainder — see topic_matches().
      return more ? &node->hash_loose : &node->hash_strict;
    }
    if (level == "+") {
      if (node->plus == nullptr) {
        if (!create) return nullptr;
        node->plus = std::make_unique<Node>();
        account(static_cast<std::int64_t>(sizeof(Node)));
      }
      node = node->plus.get();
      continue;
    }
    if (!create) {
      Node* next = nullptr;
      const util::StringTable::Id want = intern_.find(level);
      if (want != util::StringTable::kInvalidId) {
        for (auto& [id, child] : node->children) {
          if (id == want) {
            next = child.get();
            break;
          }
        }
      }
      if (next == nullptr) return nullptr;
      node = next;
      continue;
    }
    const std::uint32_t id = intern(level);
    Node* next = nullptr;
    for (auto& [cid, child] : node->children) {
      if (cid == id) {
        next = child.get();
        break;
      }
    }
    if (next == nullptr) {
      node->children.emplace_back(id, std::make_unique<Node>());
      next = node->children.back().second.get();
      account(static_cast<std::int64_t>(sizeof(Node) +
                                        sizeof(node->children.back())));
    }
    node = next;
  }
  return &node->entries;
}

void SubscriptionIndex::subscribe(std::string_view filter,
                                  const std::string& client, void* handle,
                                  int qos) {
  std::vector<Entry>* list = terminal(filter, /*create=*/true);
  if (list == nullptr) return;
  for (Entry& entry : *list) {
    if (entry.handle == handle) {
      entry.qos = qos;  // replace-on-resubscribe
      return;
    }
  }
  // Keep each list sorted by client id so match() can emit session-map
  // order without sorting the (possibly fleet-sized) result.
  const auto at = std::upper_bound(
      list->begin(), list->end(), client,
      [](const std::string& c, const Entry& e) { return c < *e.client; });
  list->insert(at, Entry{&client, handle, qos});
  ++entry_count_;
  account(static_cast<std::int64_t>(sizeof(Entry)));
}

void SubscriptionIndex::remove(std::string_view filter, void* handle) {
  std::vector<Entry>* list = terminal(filter, /*create=*/false);
  if (list == nullptr) return;
  for (auto it = list->begin(); it != list->end(); ++it) {
    if (it->handle == handle) {
      list->erase(it);
      --entry_count_;
      account(-static_cast<std::int64_t>(sizeof(Entry)));
      return;
    }
  }
}

void SubscriptionIndex::clear() {
  root_ = Node{};
  intern_ = util::StringTable{};
  entry_count_ = 0;
  if (footprint_ != 0) {
    obs::mem_sub(obs::MemCategory::kMqttSubIndex, footprint_);
    footprint_ = 0;
  }
}

void SubscriptionIndex::match(std::string_view topic,
                              std::vector<Match>& out) const {
  out.clear();
  if (topic.empty()) return;
  // Root-level wildcard edges never match broker-internal topics.
  const bool internal = topic.front() == '$';

  // Split the topic into levels once (same tokenization as topic.cpp:
  // "a//b" has an empty middle level, "a/" a trailing one).
  std::vector<std::string_view>& levels = levels_;
  levels.clear();
  std::string_view rest = topic;
  for (;;) {
    const auto slash = rest.find('/');
    if (slash == std::string_view::npos) {
      levels.push_back(rest);
      break;
    }
    levels.push_back(rest.substr(0, slash));
    rest = rest.substr(slash + 1);
  }

  // Entry lists are individually sorted by client id; count the lists that
  // contribute so the common single-list publish (e.g. a whole fleet on
  // 'powergrid/#') skips the final sort.
  std::size_t lists_collected = 0;
  const auto collect = [&out, &lists_collected](const std::vector<Entry>& list) {
    if (list.empty()) return;
    ++lists_collected;
    for (const Entry& e : list) out.push_back(Match{e.client, e.handle, e.qos});
  };

  std::vector<Frame>& stack = stack_;
  stack.clear();
  stack.push_back(Frame{&root_, 0});
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const Node& node = *frame.node;
    const bool wildcards_hidden = internal && frame.node == &root_;
    if (frame.idx == levels.size()) {
      // Topic exhausted here: filters ending at this node match, and so
      // does a trailing '#' one level below ("sport/#" matches "sport").
      collect(node.entries);
      if (!wildcards_hidden) collect(node.hash_strict);
      continue;
    }
    // At least one level remains: any '#' filter at this node matches,
    // including the mid-filter form.
    if (!wildcards_hidden) {
      collect(node.hash_strict);
      collect(node.hash_loose);
    }
    if (const Node* lit = literal_child(node, levels[frame.idx])) {
      stack.push_back(Frame{lit, frame.idx + 1});
    }
    if (node.plus != nullptr && !wildcards_hidden) {
      stack.push_back(Frame{node.plus.get(), frame.idx + 1});
    }
  }

  // One entry per session at its best grant, ordered by client id — the
  // order the broker's session-map walk used to produce. A single
  // contributing list is already in that order.
  if (lists_collected > 1) {
    std::sort(out.begin(), out.end(), [](const Match& a, const Match& b) {
      return *a.client < *b.client;
    });
  }
  std::size_t w = 0;
  for (std::size_t r = 0; r < out.size(); ++r) {
    if (w > 0 && out[w - 1].handle == out[r].handle) {
      if (out[r].qos > out[w - 1].qos) out[w - 1].qos = out[r].qos;
    } else {
      out[w++] = out[r];
    }
  }
  out.resize(w);
}

}  // namespace gridmon::mqtt
