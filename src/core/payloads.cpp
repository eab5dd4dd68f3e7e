#include "core/payloads.hpp"

#include "util/log.hpp"

namespace gridmon::core {

jms::Message make_generator_message(const std::string& topic,
                                    std::int64_t generator_id,
                                    std::int64_t sequence, int origin_node,
                                    util::Rng& rng, std::int64_t pad_bytes) {
  // The body below holds 16 fields, plus the pad: one allocation for all.
  jms::Fields fields;
  fields.reserve(pad_bytes > 0 ? 17 : 16);
  jms::Message msg = jms::make_map_message(topic, std::move(fields));

  // Selector-visible properties (the paper's subscriber uses "id<10000").
  msg.reserve_properties(2);
  msg.set_property("id", static_cast<std::int32_t>(generator_id));
  msg.set_property("node", static_cast<std::int32_t>(origin_node));

  // Two int values.
  msg.map_set("gen_id", static_cast<std::int32_t>(generator_id));
  msg.map_set("status", static_cast<std::int32_t>(rng.uniform_int(0, 3)));
  // Five float values.
  msg.map_set("power_kw", static_cast<float>(rng.uniform(0.0, 500.0)));
  msg.map_set("voltage", static_cast<float>(rng.uniform(220.0, 240.0)));
  msg.map_set("current", static_cast<float>(rng.uniform(0.0, 100.0)));
  msg.map_set("frequency", static_cast<float>(rng.uniform(49.8, 50.2)));
  msg.map_set("temperature", static_cast<float>(rng.uniform(15.0, 95.0)));
  // Two long values.
  msg.map_set("seq", static_cast<std::int64_t>(sequence));
  msg.map_set("uptime_s", rng.uniform_int(0, 10'000'000));
  // Three double values.
  msg.map_set("energy_kwh", rng.uniform(0.0, 1e6));
  msg.map_set("efficiency", rng.uniform(0.2, 0.98));
  msg.map_set("load_pct", rng.uniform(0.0, 100.0));
  // Four string values.
  msg.map_set("name", std::string("generator-") + std::to_string(generator_id));
  msg.map_set("site", std::string("site-") + std::to_string(generator_id % 97));
  msg.map_set("model", std::string("WT-2000-rev") +
                           std::to_string(generator_id % 7));
  msg.map_set("state", std::string(rng.chance(0.98) ? "RUNNING" : "STARTING"));

  if (pad_bytes > 0) {
    msg.map_set("pad", std::string(static_cast<std::size_t>(pad_bytes), 'x'));
  }
  return msg;
}

rgma::TableDef generator_table(const std::string& name) {
  using rgma::Column;
  using rgma::ColumnType;
  return rgma::TableDef(
      name,
      {
          Column{"id", ColumnType::kInteger, 0},
          Column{"seq", ColumnType::kInteger, 0},
          Column{"sent_us", ColumnType::kInteger, 0},
          Column{"status", ColumnType::kInteger, 0},
          Column{"power", ColumnType::kDouble, 0},
          Column{"voltage", ColumnType::kDouble, 0},
          Column{"current", ColumnType::kDouble, 0},
          Column{"frequency", ColumnType::kDouble, 0},
          Column{"temperature", ColumnType::kDouble, 0},
          Column{"pressure", ColumnType::kDouble, 0},
          Column{"efficiency", ColumnType::kDouble, 0},
          Column{"loadpct", ColumnType::kDouble, 0},
          Column{"name", ColumnType::kChar, 20},
          Column{"site", ColumnType::kChar, 20},
          Column{"model", ColumnType::kChar, 20},
          Column{"state", ColumnType::kChar, 20},
      });
}

std::vector<rgma::SqlValue> make_generator_row(std::int64_t generator_id,
                                               std::int64_t sequence,
                                               SimTime sent_at,
                                               util::Rng& rng) {
  std::vector<rgma::SqlValue> row;
  row.reserve(16);
  row.emplace_back(generator_id);
  row.emplace_back(sequence);
  row.emplace_back(static_cast<std::int64_t>(sent_at / 1000));  // µs
  row.emplace_back(rng.uniform_int(0, 3));
  row.emplace_back(rng.uniform(0.0, 500.0));
  row.emplace_back(rng.uniform(220.0, 240.0));
  row.emplace_back(rng.uniform(0.0, 100.0));
  row.emplace_back(rng.uniform(49.8, 50.2));
  row.emplace_back(rng.uniform(15.0, 95.0));
  row.emplace_back(rng.uniform(0.9, 1.1));
  row.emplace_back(rng.uniform(0.2, 0.98));
  row.emplace_back(rng.uniform(0.0, 100.0));
  row.emplace_back("gen-" + std::to_string(generator_id % 100000));
  row.emplace_back("site-" + std::to_string(generator_id % 97));
  row.emplace_back("WT-2000-r" + std::to_string(generator_id % 7));
  row.emplace_back(std::string(rng.chance(0.98) ? "RUNNING" : "STARTING"));
  return row;
}

RowPoller::RowPoller(cluster::Host& host, net::HttpClient& http,
                     net::Endpoint service, int consumer_id, std::string query,
                     SimTime period, OnRow on_row)
    : sim_(host.sim()),
      consumer_(host, http, service, consumer_id, std::move(query)),
      period_(period),
      on_row_(std::move(on_row)) {}

void RowPoller::enable_retry(SimTime delay) {
  retry_ = delay;
  consumer_.enable_retry(delay);
}

void RowPoller::enable_replay() {
  consumer_.enable_replay(
      [this](std::vector<rgma::Tuple> tuples, SimTime issued) {
        process(tuples, issued, /*backfill=*/true);
      });
}

void RowPoller::start() {
  consumer_.create([this](bool ok) {
    if (!ok) {
      GRIDMON_WARN("rgma.subscriber") << "consumer creation refused";
      if (retry_ > 0) sim_.schedule_after(retry_, [this] { start(); });
      return;
    }
    if (!timer_.active()) {
      timer_ = sim::PeriodicTimer(sim_, sim_.now() + period_, period_,
                                  [this] { poll(); });
    }
  });
}

void RowPoller::poll() {
  if (polling_) return;  // the previous poll has not returned yet
  polling_ = true;
  consumer_.poll([this](std::vector<rgma::Tuple> tuples,
                        SimTime before_receiving) {
    polling_ = false;
    process(tuples, before_receiving, /*backfill=*/false);
  });
}

void RowPoller::process(const std::vector<rgma::Tuple>& tuples,
                        SimTime before_receiving, bool backfill) {
  for (const auto& tuple : tuples) {
    if (tuple.values.size() <= kRowSeqColumn) continue;
    const auto* id = std::get_if<std::int64_t>(&tuple.values[kRowIdColumn]);
    const auto* seq = std::get_if<std::int64_t>(&tuple.values[kRowSeqColumn]);
    if (id == nullptr || seq == nullptr) continue;
    on_row_(row_key(*id, *seq), before_receiving, backfill);
  }
}

}  // namespace gridmon::core
