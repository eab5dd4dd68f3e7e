// MQTT campaigns are a pure function of (scenario, duration, seed): the
// full CSV export — QoS ablations and chaos availability columns alike —
// is byte-identical whether the campaign runs on one worker thread or
// four. Pinned with FNV-1a golden hashes recorded at 1 virtual minute,
// seeds {1, 2}, like the Narada/R-GMA chaos goldens.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/registry.hpp"
#include "golden_hash.hpp"

namespace gridmon::core {
namespace {

using golden::fnv1a;

std::string campaign_csv(const char* prefix, int jobs) {
  CampaignOptions options;
  options.jobs = jobs;
  options.seeds = 2;
  options.duration = units::minutes(1);
  CampaignRunner runner(options);
  EXPECT_GT(runner.add_matching(builtin_registry(), prefix), 0);
  return runner.run().csv();
}

// Golden hashes recorded from the jobs=1 run at the settings above. If a
// code change moves these, every MQTT metric moved with it — rerecord only
// when the shift is understood and intended. (Last rerecord: the CSV grew
// the `generators` fleet-size column, and the subscription index now
// interns topic levels in a util::StringTable arena, which shifts the
// mem_sub_index footprint inside peak_model_bytes; no delivery metric
// changed.)
constexpr std::uint64_t kGoldenQosAblation = 134516294299804546ULL;
constexpr std::uint64_t kGoldenBrokerCrash = 3640792209305520063ULL;

TEST(MqttDeterminism, QosAblationByteIdenticalAcrossJobs) {
  const std::string serial = campaign_csv("mqtt/qos", 1);
  const std::string parallel = campaign_csv("mqtt/qos", 4);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(fnv1a(serial), kGoldenQosAblation)
      << "actual hash: " << fnv1a(serial);
}

TEST(MqttDeterminism, ChaosBrokerCrashByteIdenticalAcrossJobs) {
  const std::string serial = campaign_csv("chaos/mqtt/broker_crash", 1);
  const std::string parallel = campaign_csv("chaos/mqtt/broker_crash", 4);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(fnv1a(serial), kGoldenBrokerCrash)
      << "actual hash: " << fnv1a(serial);
}

}  // namespace
}  // namespace gridmon::core
