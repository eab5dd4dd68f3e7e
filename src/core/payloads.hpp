// The paper's exact monitoring payloads.
//
// NaradaBrokering tests: a JMS MapMessage with two int, five float, two
// long, three double and four string values (§III.E).
// R-GMA tests: four integer, eight double and four char(20) values wrapped
// in an SQL INSERT statement (§III.F).
//
// Both carry the generator id (used by the paper's "id<10000" selector) and
// the send timestamp the receiving program logs for RTT computation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "jms/message.hpp"
#include "rgma/api.hpp"
#include "rgma/schema.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace gridmon::core {

/// Build the Narada monitoring MapMessage for one reading.
/// `origin_node` is stamped as a property so DBN subscribers can partition
/// deliveries by origin (the paper received data on the node that sent it).
/// `pad_bytes` > 0 appends filler to model the Triple-payload test.
[[nodiscard]] jms::Message make_generator_message(
    const std::string& topic, std::int64_t generator_id, std::int64_t sequence,
    int origin_node, util::Rng& rng, std::int64_t pad_bytes = 0);

/// The R-GMA monitoring table: 4 INTEGER + 8 DOUBLE + 4 CHAR(20).
/// Columns: id, seq, sent_us (send time, µs), status; power, voltage,
/// current, frequency, temperature, pressure, efficiency, loadpct;
/// name, site, model, state.
[[nodiscard]] rgma::TableDef generator_table(const std::string& name);

/// Build one R-GMA row for the table above.
[[nodiscard]] std::vector<rgma::SqlValue> make_generator_row(
    std::int64_t generator_id, std::int64_t sequence, SimTime sent_at,
    util::Rng& rng);

/// Column indices the experiment harness reads back.
inline constexpr std::size_t kRowIdColumn = 0;
inline constexpr std::size_t kRowSeqColumn = 1;
inline constexpr std::size_t kRowSentColumn = 2;

/// A row's in-flight identity: generator id and sequence packed into one
/// integer (sequences stay below kRowKeySpan).
inline constexpr std::int64_t kRowKeySpan = 1'000'000'000;
[[nodiscard]] constexpr std::int64_t row_key(std::int64_t id,
                                             std::int64_t seq) {
  return id * kRowKeySpan + seq;
}

/// The R-GMA subscriber program: creates a continuous query, polls the
/// Consumer every `period` (skipping a tick while a poll is outstanding —
/// the paper notes this quantises receive times to the period) and hands
/// back the row_key of every generator row it receives.
class RowPoller {
 public:
  /// `backfill` marks rows from a reconnect history query, not a poll.
  using OnRow = std::function<void(std::int64_t row, SimTime before_receiving,
                                   bool backfill)>;

  RowPoller(cluster::Host& host, net::HttpClient& http, net::Endpoint service,
            int consumer_id, std::string query, SimTime period, OnRow on_row);

  /// Retry a refused create after `delay`, and re-create the query after
  /// a failed poll (the recovery policy).
  void enable_retry(SimTime delay);
  /// After each re-create, replay the poll gap from producer history
  /// retention. Rows delivered twice are dropped by the caller's in-flight
  /// map, so only genuinely missed rows count.
  void enable_replay();

  void start();

  [[nodiscard]] std::uint64_t recreates() const {
    return consumer_.recreates();
  }
  [[nodiscard]] std::uint64_t backfill_tuples() const {
    return consumer_.backfill_tuples();
  }
  [[nodiscard]] std::int64_t backfill_bytes() const {
    return consumer_.backfill_bytes();
  }

 private:
  void poll();
  void process(const std::vector<rgma::Tuple>& tuples,
               SimTime before_receiving, bool backfill);

  sim::Simulation& sim_;
  rgma::Consumer consumer_;
  SimTime period_;
  OnRow on_row_;
  SimTime retry_ = 0;
  sim::PeriodicTimer timer_;
  bool polling_ = false;
};

}  // namespace gridmon::core
