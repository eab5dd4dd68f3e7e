// The observability pipeline inherits the campaign determinism contract:
// the sampled Timeline rides the same virtual-clock event loop as the
// models and the span sampler is a hash of message identity (no RNG), so
// every per-run series CSV and trace export is a pure function of
// (scenario, duration, seed) — byte-identical whether the campaign runs
// on one worker thread or four. The golden determinism gate of
// ISSUE/DESIGN: `--jobs 1` vs `--jobs 4` series CSVs must match byte for
// byte, chaos scenarios included. On top of that, one run per backend —
// obs, memprof and replay all on — is pinned with FNV-1a golden hashes of
// its series CSV and trace export, so a reordered, renamed or dropped
// gauge column (mem_*, backfill_*) cannot slip through as "still
// self-consistent".
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/registry.hpp"
#include "obs/export.hpp"
#include "golden_hash.hpp"

namespace gridmon::core {
namespace {

struct RunExports {
  std::string label;
  std::string series_csv;
  std::string trace_json;
};

using golden::fnv1a;

std::vector<RunExports> campaign_exports(const char* prefix, int jobs) {
  CampaignOptions options;
  options.jobs = jobs;
  options.seeds = 2;
  options.duration = units::minutes(1);
  options.obs.enabled = true;
  options.obs.span_sample_every = 8;
  CampaignRunner runner(options);
  EXPECT_GT(runner.add_matching(builtin_registry(), prefix), 0);
  const Campaign campaign = runner.run();

  std::vector<RunExports> out;
  for (const auto& record : campaign.runs()) {
    RunExports exports;
    exports.label =
        record.scenario_id + "#" + std::to_string(record.seed);
    if (record.results.obs) {
      exports.series_csv = obs::series_csv(*record.results.obs);
      exports.trace_json = obs::chrome_trace_json(*record.results.obs);
    }
    out.push_back(std::move(exports));
  }
  return out;
}

void expect_byte_identical(const char* prefix) {
  const auto serial = campaign_exports(prefix, 1);
  const auto parallel = campaign_exports(prefix, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].label, parallel[i].label);
    EXPECT_FALSE(serial[i].series_csv.empty()) << serial[i].label;
    EXPECT_EQ(serial[i].series_csv, parallel[i].series_csv)
        << serial[i].label;
    EXPECT_EQ(serial[i].trace_json, parallel[i].trace_json)
        << serial[i].label;
  }
}

TEST(ObsDeterminism, ChaosSeriesByteIdenticalAcrossJobs) {
  expect_byte_identical("chaos/narada/broker_crash");
}

TEST(ObsDeterminism, SteadyStateSeriesByteIdenticalAcrossJobs) {
  expect_byte_identical("narada/comparison/80");
}

TEST(ObsDeterminism, SameSeedSameSeriesAcrossCampaigns) {
  // Two independent campaigns at the same settings reproduce the exact
  // same exports (no hidden process-global state).
  const auto first = campaign_exports("chaos/rgma/servlet_restart", 2);
  const auto second = campaign_exports("chaos/rgma/servlet_restart", 3);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].series_csv, second[i].series_csv) << first[i].label;
    EXPECT_EQ(first[i].trace_json, second[i].trace_json) << first[i].label;
  }
}

struct ExportGolden {
  const char* id;
  std::uint64_t series;
  std::uint64_t trace;
};

// Golden hashes recorded at 1 virtual minute, seed 1, span_sample_every 8,
// memprof on. If a code change moves one, that backend's timeline or span
// export moved with it — rerecord only when the shift is understood and
// intended. The series hashes also pin the client record sizes that
// mem_client_records charges (sizeof(NaradaClient), sizeof(MqttClient)).
constexpr ExportGolden kExportGoldens[] = {
    {"chaos/narada/broker_crash_replay/800", 11864175124654752389ULL,
     8924731748761321837ULL},
    {"chaos/rgma/servlet_restart_replay", 1196124081461388407ULL,
     13367316993343681517ULL},
    {"chaos/mqtt/flapping_link_replay/800", 12232521547420853620ULL,
     17212919177151854631ULL},
    {"hier/narada/10k", 1805945696484999294ULL,
     18088963067110442184ULL},
};

TEST(ObsDeterminism, SeriesAndTraceExportsMatchGoldens) {
  CampaignOptions options;
  options.jobs = 1;
  options.seeds = 1;
  options.duration = units::minutes(1);
  options.obs.enabled = true;
  options.obs.span_sample_every = 8;
  options.obs.memprof = true;
  CampaignRunner runner(options);
  for (const ExportGolden& golden : kExportGoldens) {
    ASSERT_TRUE(runner.add(builtin_registry(), golden.id)) << golden.id;
  }
  const Campaign campaign = runner.run();
  ASSERT_EQ(campaign.runs().size(), std::size(kExportGoldens));
  for (std::size_t i = 0; i < campaign.runs().size(); ++i) {
    const ExportGolden& golden = kExportGoldens[i];
    const auto& record = campaign.runs()[i];
    ASSERT_EQ(record.scenario_id, golden.id);
    ASSERT_TRUE(record.results.obs) << golden.id;
    const std::string series = obs::series_csv(*record.results.obs);
    const std::string trace = obs::chrome_trace_json(*record.results.obs);
    EXPECT_NE(series.find("mem_total"), std::string::npos) << golden.id;
    EXPECT_EQ(fnv1a(series), golden.series)
        << golden.id << " actual series hash: " << fnv1a(series);
    EXPECT_EQ(fnv1a(trace), golden.trace)
        << golden.id << " actual trace hash: " << fnv1a(trace);
  }
}

}  // namespace
}  // namespace gridmon::core
