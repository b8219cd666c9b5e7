// Tests for the JSON codec: value model, parser strictness, and report
// round trips (including a randomized sweep).
#include "eona/json.hpp"

#include <gtest/gtest.h>

#include <string>

#include "sim/rng.hpp"

namespace eona::core {
namespace {

TEST(Json, ScalarDumpAndParse) {
  EXPECT_EQ(JsonValue::number(42).dump(), "42");
  EXPECT_EQ(JsonValue::number(-3.5).dump(), "-3.5");
  EXPECT_EQ(JsonValue::boolean(true).dump(), "true");
  EXPECT_EQ(JsonValue{}.dump(), "null");
  EXPECT_EQ(JsonValue::string("hi").dump(), "\"hi\"");

  EXPECT_DOUBLE_EQ(JsonValue::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(JsonValue::parse("-3.5e2").as_number(), -350.0);
  EXPECT_TRUE(JsonValue::parse("true").as_bool());
  EXPECT_TRUE(JsonValue::parse(" null ").is_null());
}

TEST(Json, StringEscapes) {
  JsonValue v = JsonValue::string("a\"b\\c\nd\te");
  std::string dumped = v.dump();
  EXPECT_EQ(JsonValue::parse(dumped).as_string(), "a\"b\\c\nd\te");
  EXPECT_EQ(JsonValue::parse("\"\\u0041\"").as_string(), "A");
}

TEST(Json, NestedStructures) {
  JsonValue obj = JsonValue::object();
  obj.set("name", JsonValue::string("eona"));
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue::number(1));
  arr.push_back(JsonValue::number(2));
  obj.set("values", std::move(arr));

  JsonValue parsed = JsonValue::parse(obj.dump(2));
  EXPECT_EQ(parsed.at("name").as_string(), "eona");
  ASSERT_EQ(parsed.at("values").as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.at("values").as_array()[1].as_number(), 2.0);
  EXPECT_TRUE(parsed.has("name"));
  EXPECT_FALSE(parsed.has("nope"));
}

TEST(Json, MalformedInputsThrow) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2",
        "{\"a\":1,}", "[1 2]", "nul", "\"bad\\q\"", "--1", "{a:1}"}) {
    EXPECT_THROW(JsonValue::parse(bad), CodecError) << bad;
  }
}

TEST(Json, DeepNestingIsACodecErrorNamingTheOffset) {
  // 100k nested arrays used to recurse the parser off the stack.
  const std::string deep(100000, '[');
  try {
    (void)JsonValue::parse(deep);
    FAIL() << "parsed 100k nested arrays";
  } catch (const CodecError& e) {
    const std::string at =
        "at byte " + std::to_string(JsonValue::kMaxDepth);
    EXPECT_NE(std::string(e.what()).find(at), std::string::npos) << e.what();
  }
  const int over = JsonValue::kMaxDepth + 1;
  EXPECT_THROW(JsonValue::parse(std::string(over, '[') +
                                std::string(over, ']')),
               CodecError);
}

TEST(Json, NestingAtTheCapParses) {
  const int cap = JsonValue::kMaxDepth;
  JsonValue arrays =
      JsonValue::parse(std::string(cap, '[') + std::string(cap, ']'));
  int depth = 1;
  for (const JsonValue* at = &arrays; !at->as_array().empty();
       at = &at->as_array().front())
    ++depth;
  EXPECT_EQ(depth, cap);
  // Objects count toward the same cap: cap - 1 objects around one array.
  std::string objects;
  for (int i = 1; i < cap; ++i) objects += "{\"k\":";
  objects += "[]" + std::string(cap - 1, '}');
  EXPECT_NO_THROW((void)JsonValue::parse(objects));
  EXPECT_THROW(JsonValue::parse("[" + objects + "]"), CodecError);
}

TEST(Json, KindMismatchesThrow) {
  JsonValue n = JsonValue::number(1);
  EXPECT_THROW(n.as_string(), CodecError);
  EXPECT_THROW(n.as_array(), CodecError);
  EXPECT_THROW(n.at("x"), CodecError);
  JsonValue obj = JsonValue::object();
  EXPECT_THROW(obj.at("missing"), CodecError);
}

TEST(Json, NonFiniteNumbersRefuseToSerialise) {
  EXPECT_THROW(JsonValue::number(1.0 / 0.0).dump(), CodecError);
}

TEST(JsonReports, A2IRoundTrip) {
  A2IReport report;
  report.from = ProviderId(3);
  report.generated_at = 12.5;
  QoeGroupReport g;
  g.isp = IspId(1);
  g.cdn = CdnId(2);
  // server deliberately invalid: must survive as a wildcard
  g.mean_buffering_ratio = 0.0625;
  g.mean_bitrate = 2.5e6;
  g.sessions = 12345;
  report.groups.push_back(g);
  TrafficForecast f;
  f.cdn = CdnId(2);
  f.expected_rate = 1.25e8;
  report.forecasts.push_back(f);

  std::string text = to_json(report);
  A2IReport decoded = a2i_from_json(text);
  EXPECT_EQ(decoded, report);
  EXPECT_FALSE(decoded.groups[0].server.valid());
}

TEST(JsonReports, I2ARoundTripAllScopes) {
  I2AReport report;
  report.from = ProviderId(9);
  for (auto scope : {CongestionScope::kAccess, CongestionScope::kPeering,
                     CongestionScope::kBackbone}) {
    CongestionSignal c;
    c.isp = IspId(0);
    c.scope = scope;
    c.severity = 0.5;
    report.congestion.push_back(c);
  }
  PeeringStatus p;
  p.peering = PeeringId(1);
  p.congested = true;
  p.selected = true;
  report.peerings.push_back(p);
  ServerHint h;
  h.server = ServerId(4);
  h.online = false;
  report.server_hints.push_back(h);

  EXPECT_EQ(i2a_from_json(to_json(report)), report);
}

TEST(JsonReports, KindFieldIsEnforced) {
  A2IReport a2i;
  a2i.from = ProviderId(0);
  I2AReport i2a;
  i2a.from = ProviderId(0);
  EXPECT_THROW(i2a_from_json(to_json(a2i)), CodecError);
  EXPECT_THROW(a2i_from_json(to_json(i2a)), CodecError);
}

TEST(JsonReports, CompactAndIndentedAgree) {
  A2IReport report;
  report.from = ProviderId(1);
  QoeGroupReport g;
  g.sessions = 7;
  report.groups.push_back(g);
  EXPECT_EQ(a2i_from_json(to_json(report, 0)),
            a2i_from_json(to_json(report, 4)));
}

class JsonFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonFuzzTest, RandomReportsRoundTrip) {
  sim::Rng rng(GetParam());
  A2IReport report;
  report.from = ProviderId(static_cast<std::uint32_t>(rng.uniform_int(0, 50)));
  report.generated_at = rng.uniform(0, 1e5);
  auto n = static_cast<std::size_t>(rng.uniform_int(0, 12));
  for (std::size_t i = 0; i < n; ++i) {
    QoeGroupReport g;
    if (rng.bernoulli(0.8))
      g.isp = IspId(static_cast<std::uint32_t>(rng.uniform_int(0, 9)));
    g.cdn = CdnId(static_cast<std::uint32_t>(rng.uniform_int(0, 3)));
    g.mean_buffering_ratio = rng.uniform(0, 1);
    g.mean_bitrate = rng.uniform(0, 1e7);
    g.mean_engagement = rng.uniform(0, 1);
    g.sessions = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
    report.groups.push_back(g);
  }
  EXPECT_EQ(a2i_from_json(to_json(report)), report);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzzTest,
                         ::testing::Range<std::uint64_t>(0, 15));

// --- fault profiles -----------------------------------------------------------

TEST(JsonFault, FaultProfileRoundTrip) {
  FaultProfile fault;
  fault.drop_rate = 0.25;
  fault.duplicate_rate = 0.0625;
  fault.max_extra_delay = 2.5;
  fault.outages = {{30.0, 60.0}, {120.0, 180.0}};
  fault.seed = 0xFEEDull;
  EXPECT_EQ(fault_profile_from_json(to_json(fault)), fault);
}

TEST(JsonFault, IdealProfileRoundTripsToIdeal) {
  FaultProfile decoded = fault_profile_from_json(to_json(FaultProfile{}));
  EXPECT_TRUE(decoded.ideal());
  EXPECT_EQ(decoded, FaultProfile{});
}

TEST(JsonFault, GoldenDumpIsStable) {
  // The wire shape is a contract for lab configs: field names and order
  // change only deliberately.
  FaultProfile fault;
  fault.drop_rate = 0.5;
  fault.outages = {{10.0, 20.0}};
  EXPECT_EQ(to_json(fault, 0),
            "{\"drop_rate\":0.5,\"duplicate_rate\":0,"
            "\"kind\":\"fault_profile\",\"max_extra_delay\":0,"
            "\"outages\":[{\"end\":20,\"start\":10}],\"seed\":0}");
}

TEST(JsonFault, DecodingValidatesSemantics) {
  // Structurally valid JSON, semantically invalid profile -> ConfigError.
  FaultProfile negative;
  negative.drop_rate = -0.1;
  std::string negative_drop = to_json(negative);
  EXPECT_THROW(fault_profile_from_json(negative_drop), ConfigError);

  FaultProfile overlapping;
  overlapping.outages = {{10.0, 30.0}, {20.0, 40.0}};
  std::string bad_windows = to_json(overlapping);
  EXPECT_THROW(fault_profile_from_json(bad_windows), ConfigError);
}

TEST(JsonFault, StructuralGarbageIsCodecError) {
  EXPECT_THROW(fault_profile_from_json("{\"kind\":\"fault_profile\"}"),
               CodecError);  // missing fields
  EXPECT_THROW(fault_profile_from_json("{\"kind\":\"not_a_fault\"}"),
               CodecError);  // wrong kind
  EXPECT_THROW(fault_profile_from_json("[1,2,3]"), CodecError);
  EXPECT_THROW(fault_profile_from_json("{"), CodecError);
  FaultProfile fault;
  fault.seed = 1;
  std::string text = to_json(fault, 0);
  auto pos = text.find("\"seed\":1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 8, "\"seed\":-1");
  EXPECT_THROW(fault_profile_from_json(text), CodecError);  // negative seed
}

// --- delivery health ----------------------------------------------------------

TEST(JsonHealth, DeliveryHealthRoundTrip) {
  telemetry::DeliveryHealthSnapshot h;
  h.publishes = 1000;
  h.deliveries = 870;
  h.drops = 130;
  h.duplicates = 42;
  h.fetch_attempts = 512;
  h.retries = 64;
  h.fresh_hits = 400;
  h.stale_hits = 48;
  h.misses = 64;
  h.stale_serves = 17;
  h.staleness_p90 = 12.5;
  EXPECT_EQ(delivery_health_from_json(to_json(h)), h);
}

TEST(JsonHealth, EmptySnapshotRoundTrips) {
  telemetry::DeliveryHealthSnapshot empty;
  EXPECT_EQ(delivery_health_from_json(to_json(empty)), empty);
}

TEST(JsonHealth, RejectsNegativeCountsAndStaleness) {
  telemetry::DeliveryHealthSnapshot h;
  h.drops = 5;
  std::string text = to_json(h, 0);
  auto pos = text.find("\"drops\":5");
  ASSERT_NE(pos, std::string::npos);
  std::string negative_count = text;
  negative_count.replace(pos, 9, "\"drops\":-5");
  EXPECT_THROW(delivery_health_from_json(negative_count), CodecError);

  pos = text.find("\"staleness_p90\":0");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 17, "\"staleness_p90\":-1");
  EXPECT_THROW(delivery_health_from_json(text), CodecError);
}

TEST(JsonHealth, WrongKindIsRejected) {
  telemetry::DeliveryHealthSnapshot h;
  std::string as_fault = to_json(h);
  EXPECT_THROW(fault_profile_from_json(as_fault), CodecError);
  EXPECT_THROW(delivery_health_from_json(to_json(FaultProfile{})), CodecError);
}

}  // namespace
}  // namespace eona::core
