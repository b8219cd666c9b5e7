// Tests for the web page-load and abandonment models.
#include "qoe/web_qoe.hpp"

#include <gtest/gtest.h>

namespace eona::qoe {
namespace {

PageLoadInputs base_inputs() {
  PageLoadInputs in;
  in.rtt = 0.050;
  in.bandwidth = mbps(10);
  in.page_bits = megabits(8);
  in.objects = 12;
  in.server_think = 0.05;
  return in;
}

TEST(WebQoe, TtfbFollowsHandshakeModel) {
  PageLoadResult out = evaluate_page_load(base_inputs());
  // 1.5 RTT setup + think + 0.5 RTT first byte = 2 RTT + think.
  EXPECT_NEAR(out.ttfb, 2.0 * 0.050 + 0.05, 1e-12);
}

TEST(WebQoe, PltDecomposition) {
  PageLoadInputs in = base_inputs();
  PageLoadResult out = evaluate_page_load(in);
  double transfer = in.page_bits / in.bandwidth;   // 0.8 s
  double rounds = ((in.objects + 5) / 6) * in.rtt;  // 2 rounds
  EXPECT_NEAR(out.plt, out.ttfb + transfer + rounds, 1e-12);
}

TEST(WebQoe, MoreBandwidthNeverHurts) {
  PageLoadInputs in = base_inputs();
  double prev = 1e9;
  for (double mb : {1.0, 2.0, 5.0, 20.0, 100.0}) {
    in.bandwidth = mbps(mb);
    double plt = evaluate_page_load(in).plt;
    EXPECT_LT(plt, prev);
    prev = plt;
  }
}

TEST(WebQoe, MoreRttAlwaysHurts) {
  PageLoadInputs in = base_inputs();
  double prev = 0.0;
  for (double ms : {10.0, 50.0, 100.0, 300.0}) {
    in.rtt = ms / 1000.0;
    double plt = evaluate_page_load(in).plt;
    EXPECT_GT(plt, prev);
    prev = plt;
  }
}

TEST(WebQoe, EngagementCurveShape) {
  WebEngagementModel model;
  EXPECT_DOUBLE_EQ(model.predict(0.5), 1.0);
  EXPECT_DOUBLE_EQ(model.predict(model.tolerable_plt), 1.0);
  // One halving time past tolerable: 0.5.
  EXPECT_NEAR(model.predict(model.tolerable_plt + model.halving_time), 0.5,
              1e-12);
  EXPECT_NEAR(model.predict(model.tolerable_plt + 2 * model.halving_time),
              0.25, 1e-12);
  EXPECT_THROW((void)model.predict(-1.0), ContractViolation);
}

TEST(WebQoe, SessionMetricsPacking) {
  PageLoadInputs in = base_inputs();
  PageLoadResult out = evaluate_page_load(in);
  telemetry::SessionMetrics m = to_session_metrics(in, out);
  EXPECT_DOUBLE_EQ(m.page_load_time, out.plt);
  EXPECT_DOUBLE_EQ(m.ttfb, out.ttfb);
  EXPECT_DOUBLE_EQ(m.engagement, out.engagement);
  EXPECT_DOUBLE_EQ(m.bytes_delivered, in.page_bits);
}

TEST(WebQoe, InvalidInputsAreContractViolations) {
  PageLoadInputs in = base_inputs();
  in.bandwidth = 0.0;
  EXPECT_THROW((void)evaluate_page_load(in), ContractViolation);
  in = base_inputs();
  in.objects = 0;
  EXPECT_THROW((void)evaluate_page_load(in), ContractViolation);
}

}  // namespace
}  // namespace eona::qoe
