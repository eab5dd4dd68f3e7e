// Tests for the delivery-quality knobs the paper held fixed: persistent
// JMS delivery, R-GMA secure (HTTPS) mode, the legacy StreamProducer path,
// and the §III.D Web Services proxy cost model.
#include <gtest/gtest.h>

#include "cluster/hydra.hpp"
#include "core/experiment.hpp"
#include "core/payloads.hpp"
#include "gma/webservices.hpp"
#include "narada/client.hpp"
#include "narada/dbn.hpp"

namespace gridmon {
namespace {

core::NaradaConfig quick_narada(int generators) {
  core::NaradaConfig config;
  config.fleet.generators = generators;
  config.duration = units::minutes(2);
  return config;
}

core::RgmaConfig quick_rgma(int producers) {
  core::RgmaConfig config;
  config.fleet.generators = producers;
  config.duration = units::minutes(2);
  return config;
}

TEST(DeliveryModes, PersistentDeliveryCostsStableStorageWrites) {
  const auto baseline = core::run_narada_experiment(quick_narada(100));
  auto config = quick_narada(100);
  config.delivery_mode = jms::DeliveryMode::kPersistent;
  const auto persistent = core::run_narada_experiment(config);
  // No loss either way, but persistence pays at least the ~6 ms write.
  EXPECT_EQ(persistent.metrics.received(), persistent.metrics.sent());
  EXPECT_GT(persistent.metrics.rtt_mean_ms(),
            baseline.metrics.rtt_mean_ms() + 5.0);
}

TEST(DeliveryModes, HttpsCostsCpuButLosesNothing) {
  const auto http = core::run_rgma_experiment(quick_rgma(100));
  auto config = quick_rgma(100);
  config.secure = true;
  const auto https = core::run_rgma_experiment(config);
  EXPECT_EQ(https.metrics.received(), https.metrics.sent());
  EXPECT_GT(https.metrics.rtt_mean_ms(), http.metrics.rtt_mean_ms());
  EXPECT_LT(https.servers.cpu_idle_pct, http.servers.cpu_idle_pct);
}

TEST(DeliveryModes, LegacyStreamApiSkipsTheEvaluationCycle) {
  const auto modern = core::run_rgma_experiment(quick_rgma(100));
  auto config = quick_rgma(100);
  config.legacy_stream_api = true;
  const auto legacy = core::run_rgma_experiment(config);
  EXPECT_EQ(legacy.metrics.received(), legacy.metrics.sent());
  // The old API path is dramatically faster — the paper's §III.F.3
  // explanation for the discrepancy with related work [11].
  EXPECT_LT(legacy.metrics.rtt_mean_ms(),
            0.6 * modern.metrics.rtt_mean_ms());
}

TEST(SoapModel, EnvelopeInflatesAndCodecCosts) {
  util::Rng rng(1);
  const jms::Message msg = core::make_generator_message("t", 1, 0, 0, rng);
  gma::SoapCostModel model;
  EXPECT_GT(model.soap_wire_size(msg), 2 * msg.wire_size());
  // The paper's payload has 12 numeric map fields + 2 numeric properties.
  EXPECT_EQ(gma::SoapCostModel::numeric_fields(msg), 14);
  EXPECT_GT(model.codec_demand(msg), units::milliseconds(1));
  EXPECT_GT(model.decode_demand(msg), 0);
}

TEST(SoapModel, CodecDemandScalesWithMessageSize) {
  util::Rng rng(1);
  jms::Message small = core::make_generator_message("t", 1, 0, 0, rng);
  jms::Message big = small;
  big.map_set("blob", std::string(5000, 'x'));
  gma::SoapCostModel model;
  EXPECT_GT(model.codec_demand(big), 2 * model.codec_demand(small));
}

// The WS proxy measures the binary message, pads it with the envelope
// inflation, then publishes it; publish seals the padded size. The sizes
// below are the ones the proxy path produced before messages were sealed.
TEST(SoapModel, ProxyMeasureThenPadSizesArePinned) {
  cluster::Hydra hydra{cluster::HydraConfig{.seed = 3}};
  narada::DbnConfig config;
  config.broker_hosts = {0};
  narada::Dbn dbn(hydra, config);
  dbn.start();
  auto sub = narada::NaradaClient::create(
      hydra.host(1), hydra.lan(), hydra.streams(), dbn.broker_endpoint(0),
      net::Endpoint{1, 9000}, narada::TransportKind::kTcp);
  auto pub = narada::NaradaClient::create(
      hydra.host(2), hydra.lan(), hydra.streams(), dbn.broker_endpoint(0),
      net::Endpoint{2, 9001}, narada::TransportKind::kTcp);
  const gma::SoapCostModel model;
  gma::WsProxyPublisher proxy(hydra.host(2), pub, model);

  jms::MessagePtr delivered;
  sub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    sub->subscribe("t", "", jms::AcknowledgeMode::kAutoAcknowledge,
                   [&](const jms::MessagePtr& msg, SimTime) {
                     delivered = msg;
                   });
  });
  util::Rng rng(1);
  jms::Message msg = core::make_generator_message("t", 42, 7, 2, rng);
  EXPECT_EQ(msg.wire_size(), 376);
  EXPECT_EQ(model.soap_wire_size(msg), 1617);
  pub->connect([&](bool ok) {
    ASSERT_TRUE(ok);
    proxy.publish(std::move(msg));
  });
  hydra.sim().run_until(units::seconds(10));

  ASSERT_TRUE(delivered);
  ASSERT_TRUE(delivered->sealed());
  EXPECT_EQ(delivered->message_id, "ID:2-9001-1");
  // 1617 - 376 pad bytes under "soap_envelope", plus the stamped id.
  EXPECT_EQ(delivered->wire_size(), 1645);
  EXPECT_EQ(jms::Message(*delivered).wire_size(), delivered->wire_size());
  EXPECT_EQ(model.soap_wire_size(*delivered), 4917);
}

}  // namespace
}  // namespace gridmon
