// Chaos runs must be exactly as deterministic as fault-free ones: a
// FaultPlan fires at fixed virtual times off kernel timers, so a chaos
// campaign is a pure function of (scenario, duration, seed) and its full
// CSV export — availability columns included — is byte-identical whether
// the campaign runs on one worker thread or four. These tests pin that
// with an FNV-1a golden hash per scenario family (recovery + no-recovery
// baseline + the `_replay` backfill twin, which the prefix also matches),
// recorded at 1 virtual minute, seeds {1, 2}.
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
// code change moves these, every chaos metric moved with it — rerecord only
// when the shift is understood and intended. (Last rerecord: the CSV grew
// the `generators` fleet-size column for the hierarchical-tier PR; the
// pre-existing columns' values did not change.)
constexpr std::uint64_t kGoldenBrokerCrash = 11632190684287921003ULL;
constexpr std::uint64_t kGoldenServletRestart = 13983740680267815231ULL;

TEST(ChaosDeterminism, BrokerCrashByteIdenticalAcrossJobs) {
  const std::string serial = campaign_csv("chaos/narada/broker_crash", 1);
  const std::string parallel = campaign_csv("chaos/narada/broker_crash", 4);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(fnv1a(serial), kGoldenBrokerCrash)
      << "actual hash: " << fnv1a(serial);
}

TEST(ChaosDeterminism, ServletRestartByteIdenticalAcrossJobs) {
  const std::string serial = campaign_csv("chaos/rgma/servlet_restart", 1);
  const std::string parallel = campaign_csv("chaos/rgma/servlet_restart", 4);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(fnv1a(serial), kGoldenServletRestart)
      << "actual hash: " << fnv1a(serial);
}

}  // namespace
}  // namespace gridmon::core
