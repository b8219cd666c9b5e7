// Tests for the JSON codec: value model, parser strictness, report round
// trips (including a randomized sweep), whole-number ids and counts, and a
// seeded mutation fuzz over the three decoders.
#include "eona/json.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <exception>
#include <random>
#include <string>
#include <string_view>
#include <vector>

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
  EXPECT_THROW((void)n.as_string(), CodecError);
  EXPECT_THROW((void)n.as_array(), CodecError);
  EXPECT_THROW((void)n.at("x"), CodecError);
  JsonValue obj = JsonValue::object();
  EXPECT_THROW((void)obj.at("missing"), CodecError);
}

TEST(Json, AnOutOfRangeNumberIsACodecError) {
  // Only CodecError may leave the parser; std::stod reports these ranges
  // with std::out_of_range.
  for (const char* text : {"1e999", "-1e999", "1e-400", "[0,1e400]"})
    EXPECT_THROW(JsonValue::parse(text), CodecError) << text;
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

// --- ids and counts are whole numbers in range ---------------------------

/// `text` with the first `from` replaced by `to` (which must be present).
std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

/// The CodecError message `decode(text)` throws (empty when it does not).
template <typename Decode>
std::string codec_error_of(Decode decode, const std::string& text) {
  try {
    (void)decode(text);
  } catch (const CodecError& e) {
    return e.what();
  }
  return "";
}

std::string one_group_a2i() {
  A2IReport report;
  report.from = ProviderId(3);
  QoeGroupReport g;
  g.isp = IspId(1);
  g.cdn = CdnId(2);
  g.sessions = 7;
  report.groups.push_back(g);
  return to_json(report, 0);
}

// Every id and count must be a whole number in its type's range: a bare
// cast truncates a fraction, wraps a negative or 2^32, and is undefined
// for a value past the integer range.
TEST(JsonWholeNumbers, AFractionalFromIsRejected) {
  const std::string text =
      replaced(one_group_a2i(), "\"from\":3", "\"from\":1.5");
  EXPECT_NE(codec_error_of(a2i_from_json, text).find("from"),
            std::string::npos);
}

TEST(JsonWholeNumbers, AnIspPastThirtyTwoBitsIsRejected) {
  const std::string text =
      replaced(one_group_a2i(), "\"isp\":1", "\"isp\":4294967296");
  EXPECT_NE(codec_error_of(a2i_from_json, text).find("isp"), std::string::npos);
}

TEST(JsonWholeNumbers, AnIspOfOneE300IsRejected) {
  const std::string text =
      replaced(one_group_a2i(), "\"isp\":1", "\"isp\":1e300");
  EXPECT_NE(codec_error_of(a2i_from_json, text).find("isp"), std::string::npos);
}

TEST(JsonWholeNumbers, AFractionalSessionCountIsRejected) {
  const std::string text =
      replaced(one_group_a2i(), "\"sessions\":7", "\"sessions\":2.5");
  EXPECT_NE(codec_error_of(a2i_from_json, text).find("sessions"),
            std::string::npos);
}

TEST(JsonWholeNumbers, ANegativeSessionCountIsRejected) {
  const std::string text =
      replaced(one_group_a2i(), "\"sessions\":7", "\"sessions\":-1");
  EXPECT_NE(codec_error_of(a2i_from_json, text).find("sessions"),
            std::string::npos);
}

TEST(JsonWholeNumbers, AFractionalPublishCountIsRejected) {
  const std::string text =
      replaced(to_json(telemetry::DeliveryHealthSnapshot{}, 0),
               "\"publishes\":0", "\"publishes\":0.5");
  EXPECT_NE(codec_error_of(delivery_health_from_json, text).find("publishes"),
            std::string::npos);
}

TEST(JsonWholeNumbers, TheInvalidIdIsSpelledNull) {
  // 4294967295 is the invalid-id sentinel; only null may stand for it.
  const std::string text =
      replaced(one_group_a2i(), "\"isp\":1", "\"isp\":4294967295");
  EXPECT_THROW((void)a2i_from_json(text), CodecError);
  const std::string largest =
      replaced(one_group_a2i(), "\"isp\":1", "\"isp\":4294967294");
  EXPECT_EQ(a2i_from_json(largest).groups[0].isp, IspId(4294967294u));
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
  EXPECT_THROW((void)delivery_health_from_json(negative_count), CodecError);

  pos = text.find("\"staleness_p90\":0");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 17, "\"staleness_p90\":-1");
  EXPECT_THROW((void)delivery_health_from_json(text), CodecError);
}

TEST(JsonHealth, WrongKindIsRejected) {
  telemetry::DeliveryHealthSnapshot h;
  EXPECT_THROW((void)a2i_from_json(to_json(h)), CodecError);
  EXPECT_THROW((void)delivery_health_from_json(to_json(A2IReport{})),
               CodecError);
}

// --- mutation fuzz ---------------------------------------------------------

/// The number literals of a JSON text, as [begin, end) byte ranges.
std::vector<std::pair<std::size_t, std::size_t>> number_spans(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (std::size_t i = 0; i < text.size();) {
    const char c = text[i];
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t end = i + 1;
      while (end < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[end])) ||
              std::string_view(".eE+-").find(text[end]) !=
                  std::string_view::npos))
        ++end;
      spans.emplace_back(i, end);
      i = end;
    } else {
      ++i;
    }
  }
  return spans;
}

/// One to three stacked mutations: a bit flip, a truncation, a byte
/// inserted (JSON punctuation or any byte) or deleted, or a number literal
/// replaced by a boundary value (negative, fractional, past 32 or 64 bits,
/// out of double range, or not a number at all).
std::string mutate(const std::string& text, std::mt19937_64& rng) {
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  constexpr std::string_view kBytes = "0123456789-+.eE\"{}[],:ntfx\\ ";
  constexpr const char* kNumbers[] = {
      "-1",   "0.5",   "1.5",   "4294967294", "4294967295",
      "4294967296",    "1e30",  "1e300",      "1e999",
      "1e-400",        "-0",    "18446744073709551616",
      "null", "true",  "\"x\"", "[]",         "{}"};
  std::string out = text;
  for (std::size_t n = 1 + pick(3); n > 0; --n) {
    switch (pick(5)) {
      case 0:
        if (!out.empty())
          out[pick(out.size())] ^= static_cast<char>(1u << pick(8));
        break;
      case 1:
        out.resize(pick(out.size() + 1));
        break;
      case 2: {
        const char byte = pick(2) == 0 ? kBytes[pick(kBytes.size())]
                                       : static_cast<char>(pick(256));
        out.insert(pick(out.size() + 1), 1, byte);
        break;
      }
      case 3:
        if (!out.empty()) out.erase(pick(out.size()), 1);
        break;
      default: {
        const auto spans = number_spans(out);
        if (spans.empty()) break;
        const auto [begin, end] = spans[pick(spans.size())];
        out.replace(begin, end - begin, kNumbers[pick(std::size(kNumbers))]);
        break;
      }
    }
  }
  return out;
}

/// Decode `kMutations` mutated documents; each must decode or throw
/// CodecError or ConfigError -- no other exception, no crash, no sanitizer
/// report.
template <typename Decode>
void fuzz_decoder(const std::vector<std::string>& docs, Decode decode,
                  std::uint64_t seed) {
  constexpr std::size_t kMutations = 1'000'000;
  std::mt19937_64 rng(seed);
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kMutations; ++i) {
    const std::string text = mutate(docs[rng() % docs.size()], rng);
    try {
      (void)decode(text);
      ++decoded;
    } catch (const CodecError&) {
      ++rejected;
    } catch (const ConfigError&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "mutation " << i << " threw " << e.what() << ": " << text;
    }
  }
  EXPECT_EQ(decoded + rejected, kMutations);
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(JsonMutationFuzz, A2IReportsDecodeOrThrowTypedErrors) {
  std::vector<std::string> docs;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    sim::Rng rng(seed);
    A2IReport report;
    report.from = ProviderId(static_cast<std::uint32_t>(rng.uniform_int(0, 9)));
    report.generated_at = rng.uniform(0, 1e4);
    for (std::int64_t i = rng.uniform_int(0, 2); i > 0; --i) {
      QoeGroupReport g;
      g.isp = IspId(static_cast<std::uint32_t>(rng.uniform_int(0, 3)));
      if (rng.bernoulli(0.5))
        g.server = ServerId(static_cast<std::uint32_t>(rng.uniform_int(0, 5)));
      g.mean_bitrate = rng.uniform(0, 1e7);
      g.sessions = static_cast<std::uint64_t>(rng.uniform_int(0, 1000));
      report.groups.push_back(g);
    }
    for (std::int64_t i = rng.uniform_int(0, 2); i > 0; --i) {
      TrafficForecast f;
      f.cdn = CdnId(static_cast<std::uint32_t>(rng.uniform_int(0, 3)));
      f.expected_rate = rng.uniform(0, 1e9);
      report.forecasts.push_back(f);
    }
    docs.push_back(to_json(report, 0));
  }
  fuzz_decoder(docs, a2i_from_json, 20261020);
}

TEST(JsonMutationFuzz, I2AReportsDecodeOrThrowTypedErrors) {
  std::vector<std::string> docs;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    sim::Rng rng(seed);
    I2AReport report;
    report.from = ProviderId(static_cast<std::uint32_t>(rng.uniform_int(0, 9)));
    for (std::int64_t i = rng.uniform_int(0, 2); i > 0; --i) {
      PeeringStatus p;
      p.peering = PeeringId(static_cast<std::uint32_t>(i));
      p.capacity = rng.uniform(0, 1e9);
      p.congested = rng.bernoulli(0.5);
      report.peerings.push_back(p);
    }
    for (std::int64_t i = rng.uniform_int(0, 2); i > 0; --i) {
      ServerHint h;
      h.server = ServerId(static_cast<std::uint32_t>(i));
      h.load = rng.uniform(0, 1);
      report.server_hints.push_back(h);
    }
    for (std::int64_t i = rng.uniform_int(0, 2); i > 0; --i) {
      CongestionSignal c;
      c.scope = static_cast<CongestionScope>(rng.uniform_int(0, 2));
      c.severity = rng.uniform(0, 1);
      report.congestion.push_back(c);
    }
    docs.push_back(to_json(report, 0));
  }
  fuzz_decoder(docs, i2a_from_json, 20261021);
}

TEST(JsonMutationFuzz, DeliveryHealthDecodesOrThrowsTypedErrors) {
  telemetry::DeliveryHealthSnapshot h;
  h.publishes = 1000;
  h.deliveries = 870;
  h.drops = 130;
  h.fetch_attempts = 512;
  h.misses = 64;
  h.staleness_p90 = 12.5;
  fuzz_decoder({to_json(telemetry::DeliveryHealthSnapshot{}, 0), to_json(h, 0)},
               delivery_health_from_json, 20261023);
}

}  // namespace
}  // namespace eona::core
