// Wire-format tests: round-trip fidelity (including a randomized property
// sweep), framing validation, corruption detection, section counts checked
// against the frame, and a seeded mutation fuzz whose frames are re-sealed
// so that mutations reach the decoders' bodies.
#include "eona/wire.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <random>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace eona::core {
namespace {

/// Recompute a frame's trailing FNV-1a checksum over everything before it,
/// so a corrupted body passes the framing check and reaches the decoder.
void reseal(WireBytes& frame) {
  if (frame.size() < 8) return;
  const std::size_t body = frame.size() - 8;
  std::uint64_t hash = 1469598103934665603ull;
  for (std::size_t i = 0; i < body; ++i) {
    hash ^= frame[i];
    hash *= 1099511628211ull;
  }
  for (int i = 0; i < 8; ++i)
    frame[body + i] = static_cast<std::uint8_t>(hash >> (8 * i));
}

A2IReport sample_a2i() {
  A2IReport report;
  report.from = ProviderId(3);
  report.generated_at = 123.5;
  QoeGroupReport g;
  g.isp = IspId(1);
  g.cdn = CdnId(2);
  g.server = ServerId(4);
  g.mean_buffering_ratio = 0.05;
  g.p90_buffering_ratio = 0.20;
  g.mean_bitrate = 2.5e6;
  g.mean_join_time = 1.25;
  g.mean_engagement = 0.8;
  g.sessions = 1234;
  report.groups.push_back(g);
  TrafficForecast f;
  f.isp = IspId(1);
  f.cdn = CdnId(2);
  f.expected_rate = 1e8;
  report.forecasts.push_back(f);
  return report;
}

I2AReport sample_i2a() {
  I2AReport report;
  report.from = ProviderId(9);
  report.generated_at = 99.0;
  PeeringStatus p;
  p.peering = PeeringId(0);
  p.isp = IspId(1);
  p.cdn = CdnId(2);
  p.capacity = 4.5e7;
  p.utilization = 0.93;
  p.congested = true;
  p.selected = true;
  report.peerings.push_back(p);
  ServerHint h;
  h.cdn = CdnId(2);
  h.server = ServerId(7);
  h.load = 0.4;
  h.online = false;
  report.server_hints.push_back(h);
  CongestionSignal c;
  c.isp = IspId(1);
  c.scope = CongestionScope::kPeering;
  c.peering = PeeringId(0);
  c.severity = 0.66;
  report.congestion.push_back(c);
  return report;
}

TEST(Wire, A2IRoundTrip) {
  A2IReport report = sample_a2i();
  WireBytes bytes = encode(report);
  EXPECT_EQ(peek_kind(bytes), MessageKind::kA2I);
  EXPECT_EQ(decode_a2i(bytes), report);
}

TEST(Wire, I2ARoundTrip) {
  I2AReport report = sample_i2a();
  WireBytes bytes = encode(report);
  EXPECT_EQ(peek_kind(bytes), MessageKind::kI2A);
  EXPECT_EQ(decode_i2a(bytes), report);
}

TEST(Wire, EmptyReportsRoundTrip) {
  A2IReport a2i;
  a2i.from = ProviderId(0);
  EXPECT_EQ(decode_a2i(encode(a2i)), a2i);
  I2AReport i2a;
  i2a.from = ProviderId(0);
  EXPECT_EQ(decode_i2a(encode(i2a)), i2a);
}

TEST(Wire, InvalidIdsSurviveTheTrip) {
  A2IReport report;
  report.from = ProviderId(1);
  QoeGroupReport g;  // all ids invalid (wildcards)
  g.sessions = 5;
  report.groups.push_back(g);
  A2IReport decoded = decode_a2i(encode(report));
  EXPECT_FALSE(decoded.groups[0].isp.valid());
  EXPECT_FALSE(decoded.groups[0].server.valid());
  EXPECT_EQ(decoded, report);
}

TEST(Wire, KindMismatchIsRejected) {
  WireBytes a2i_frame = encode(sample_a2i());
  EXPECT_THROW(decode_i2a(a2i_frame), CodecError);
  WireBytes i2a_frame = encode(sample_i2a());
  EXPECT_THROW(decode_a2i(i2a_frame), CodecError);
}

TEST(Wire, TruncationIsDetected) {
  WireBytes bytes = encode(sample_a2i());
  for (std::size_t keep : {0UL, 5UL, bytes.size() / 2, bytes.size() - 1}) {
    WireBytes cut(bytes.begin(), bytes.begin() + static_cast<long>(keep));
    EXPECT_THROW(decode_a2i(cut), CodecError) << "kept " << keep;
  }
}

TEST(Wire, SingleBitCorruptionIsDetected) {
  WireBytes bytes = encode(sample_i2a());
  for (std::size_t pos = 0; pos < bytes.size(); pos += 7) {
    WireBytes corrupted = bytes;
    corrupted[pos] ^= 0x10;
    EXPECT_THROW(decode_i2a(corrupted), CodecError) << "byte " << pos;
  }
}

TEST(Wire, TrailingGarbageIsDetected) {
  WireBytes bytes = encode(sample_a2i());
  bytes.push_back(0xAB);
  EXPECT_THROW(decode_a2i(bytes), CodecError);
}

TEST(Wire, BadMagicIsRejected) {
  WireBytes bytes = encode(sample_a2i());
  bytes[0] = 0x00;
  EXPECT_THROW((void)peek_kind(bytes), CodecError);
}

// --- section counts against the frame --------------------------------------

// An empty report's frame: header (6 bytes), from (4), generated_at (8),
// then its three section counts at byte offsets 18, 22 and 26.
constexpr std::size_t kFirstCount = 18;

/// `frame` with the u32 count at `offset` set to 0xFFFFFFFF, re-sealed.
WireBytes with_huge_count(WireBytes frame, std::size_t offset) {
  for (std::size_t i = 0; i < 4; ++i) frame[offset + i] = 0xFF;
  reseal(frame);
  return frame;
}

/// The CodecError message `decode` throws (empty when it does not throw).
template <typename Decode>
std::string codec_error_of(Decode decode) {
  try {
    decode();
  } catch (const CodecError& e) {
    return e.what();
  }
  return "";
}

A2IReport empty_a2i() {
  A2IReport report;
  report.from = ProviderId(1);
  return report;
}

I2AReport empty_i2a() {
  I2AReport report;
  report.from = ProviderId(2);
  return report;
}

// A count the frame cannot hold must fail as a CodecError before anything
// is reserved for it: reserve(0xFFFFFFFF) throws std::bad_alloc, and under
// ASan the allocator aborts the process.
TEST(WireCounts, HugeA2ITupleCountIsACodecError) {
  WireBytes frame = with_huge_count(encode(empty_a2i()), kFirstCount);
  EXPECT_NE(
      codec_error_of([&] { (void)decode_a2i(frame); }).find("tuple count"),
      std::string::npos);
}

TEST(WireCounts, HugeA2IGroupCountIsACodecError) {
  WireBytes frame = with_huge_count(encode(empty_a2i()), kFirstCount + 4);
  EXPECT_NE(
      codec_error_of([&] { (void)decode_a2i(frame); }).find("group count"),
      std::string::npos);
}

TEST(WireCounts, HugeA2IForecastCountIsACodecError) {
  WireBytes frame = with_huge_count(encode(empty_a2i()), kFirstCount + 8);
  EXPECT_NE(
      codec_error_of([&] { (void)decode_a2i(frame); }).find("forecast count"),
      std::string::npos);
}

TEST(WireCounts, HugeI2APeeringCountIsACodecError) {
  WireBytes frame = with_huge_count(encode(empty_i2a()), kFirstCount);
  EXPECT_NE(
      codec_error_of([&] { (void)decode_i2a(frame); }).find("peering count"),
      std::string::npos);
}

TEST(WireCounts, HugeI2AHintCountIsACodecError) {
  WireBytes frame = with_huge_count(encode(empty_i2a()), kFirstCount + 4);
  EXPECT_NE(
      codec_error_of([&] { (void)decode_i2a(frame); }).find("hint count"),
      std::string::npos);
}

TEST(WireCounts, HugeI2ACongestionCountIsACodecError) {
  WireBytes frame = with_huge_count(encode(empty_i2a()), kFirstCount + 8);
  EXPECT_NE(
      codec_error_of([&] { (void)decode_i2a(frame); }).find("congestion count"),
      std::string::npos);
}

// --- randomized round-trip property sweep ----------------------------------

class WireFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzzTest, RandomReportsRoundTrip) {
  sim::Rng rng(GetParam());
  A2IReport a2i;
  a2i.from = ProviderId(static_cast<std::uint32_t>(rng.uniform_int(0, 100)));
  a2i.generated_at = rng.uniform(0, 1e6);
  auto groups = static_cast<std::size_t>(rng.uniform_int(0, 20));
  for (std::size_t i = 0; i < groups; ++i) {
    QoeGroupReport g;
    g.isp = IspId(static_cast<std::uint32_t>(rng.uniform_int(0, 5)));
    g.cdn = CdnId(static_cast<std::uint32_t>(rng.uniform_int(0, 5)));
    if (rng.bernoulli(0.5))
      g.server = ServerId(static_cast<std::uint32_t>(rng.uniform_int(0, 9)));
    g.mean_buffering_ratio = rng.uniform(0, 1);
    g.p90_buffering_ratio = rng.uniform(0, 1);
    g.mean_bitrate = rng.uniform(0, 1e7);
    g.mean_join_time = rng.uniform(0, 30);
    g.mean_engagement = rng.uniform(0, 1);
    g.sessions = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    a2i.groups.push_back(g);
  }
  auto forecasts = static_cast<std::size_t>(rng.uniform_int(0, 10));
  for (std::size_t i = 0; i < forecasts; ++i) {
    TrafficForecast f;
    f.isp = IspId(static_cast<std::uint32_t>(rng.uniform_int(0, 5)));
    f.cdn = CdnId(static_cast<std::uint32_t>(rng.uniform_int(0, 5)));
    f.expected_rate = rng.uniform(0, 1e9);
    a2i.forecasts.push_back(f);
  }
  EXPECT_EQ(decode_a2i(encode(a2i)), a2i);

  I2AReport i2a;
  i2a.from = ProviderId(static_cast<std::uint32_t>(rng.uniform_int(0, 100)));
  i2a.generated_at = rng.uniform(0, 1e6);
  auto peerings = static_cast<std::size_t>(rng.uniform_int(0, 8));
  for (std::size_t i = 0; i < peerings; ++i) {
    PeeringStatus p;
    p.peering = PeeringId(static_cast<std::uint32_t>(i));
    p.capacity = rng.uniform(0, 1e9);
    p.utilization = rng.uniform(0, 1.2);
    p.congested = rng.bernoulli(0.3);
    p.selected = rng.bernoulli(0.5);
    i2a.peerings.push_back(p);
  }
  auto hints = static_cast<std::size_t>(rng.uniform_int(0, 12));
  for (std::size_t i = 0; i < hints; ++i) {
    ServerHint h;
    h.cdn = CdnId(static_cast<std::uint32_t>(rng.uniform_int(0, 3)));
    h.server = ServerId(static_cast<std::uint32_t>(i));
    h.load = rng.uniform(0, 1);
    h.online = rng.bernoulli(0.9);
    i2a.server_hints.push_back(h);
  }
  auto signals = static_cast<std::size_t>(rng.uniform_int(0, 5));
  for (std::size_t i = 0; i < signals; ++i) {
    CongestionSignal c;
    c.scope = static_cast<CongestionScope>(rng.uniform_int(0, 2));
    c.severity = rng.uniform(0, 1);
    i2a.congestion.push_back(c);
  }
  EXPECT_EQ(decode_i2a(encode(i2a)), i2a);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest,
                         ::testing::Range<std::uint64_t>(0, 30));

// --- mutation fuzz ---------------------------------------------------------

/// Random reports of every section size up to a few elements, encoded.
template <typename Report, typename Make>
std::vector<WireBytes> seed_frames(Make make) {
  std::vector<WireBytes> frames;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    sim::Rng rng(seed);
    Report report = make(rng);
    frames.push_back(encode(report));
  }
  return frames;
}

A2IReport random_a2i(sim::Rng& rng) {
  A2IReport report;
  report.from = ProviderId(static_cast<std::uint32_t>(rng.uniform_int(0, 9)));
  report.generated_at = rng.uniform(0, 1e4);
  const auto groups = rng.uniform_int(0, 4);
  for (std::int64_t i = 0; i < groups; ++i) {
    QoeGroupReport g;
    g.isp = IspId(static_cast<std::uint32_t>(rng.uniform_int(0, 3)));
    g.cdn = CdnId(static_cast<std::uint32_t>(rng.uniform_int(0, 3)));
    if (rng.bernoulli(0.5))
      g.server = ServerId(static_cast<std::uint32_t>(rng.uniform_int(0, 5)));
    g.mean_buffering_ratio = rng.uniform(0, 1);
    g.sessions = static_cast<std::uint64_t>(rng.uniform_int(0, 1000));
    report.groups.push_back(g);
  }
  const auto forecasts = rng.uniform_int(0, 3);
  for (std::int64_t i = 0; i < forecasts; ++i) {
    TrafficForecast f;
    f.isp = IspId(static_cast<std::uint32_t>(rng.uniform_int(0, 3)));
    f.cdn = CdnId(static_cast<std::uint32_t>(rng.uniform_int(0, 3)));
    f.expected_rate = rng.uniform(0, 1e9);
    report.forecasts.push_back(f);
  }
  return report;
}

I2AReport random_i2a(sim::Rng& rng) {
  I2AReport report;
  report.from = ProviderId(static_cast<std::uint32_t>(rng.uniform_int(0, 9)));
  report.generated_at = rng.uniform(0, 1e4);
  const auto peerings = rng.uniform_int(0, 3);
  for (std::int64_t i = 0; i < peerings; ++i) {
    PeeringStatus p;
    p.peering = PeeringId(static_cast<std::uint32_t>(i));
    p.capacity = rng.uniform(0, 1e9);
    p.congested = rng.bernoulli(0.5);
    report.peerings.push_back(p);
  }
  const auto hints = rng.uniform_int(0, 3);
  for (std::int64_t i = 0; i < hints; ++i) {
    ServerHint h;
    h.server = ServerId(static_cast<std::uint32_t>(i));
    h.load = rng.uniform(0, 1);
    report.server_hints.push_back(h);
  }
  const auto signals = rng.uniform_int(0, 3);
  for (std::int64_t i = 0; i < signals; ++i) {
    CongestionSignal c;
    c.scope = static_cast<CongestionScope>(rng.uniform_int(0, 2));
    c.severity = rng.uniform(0, 1);
    report.congestion.push_back(c);
  }
  return report;
}

/// One to three stacked mutations of a frame's body (bit flip, truncation,
/// byte insertion or deletion, or a 32-bit word overwritten with a boundary
/// value so counts and indexes go out of range), then -- for all but one
/// frame in sixteen -- a fresh checksum so the body reaches the decoder.
WireBytes mutate(const WireBytes& frame, std::mt19937_64& rng) {
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  WireBytes out(frame.begin(), frame.end() - 8);
  constexpr std::uint32_t kWords[] = {0xFFFFFFFFu, 0xFFFFFFFEu, 0x80000000u,
                                      0x7FFFFFFFu, 0x00010000u, 0, 1, 2};
  for (std::size_t n = 1 + pick(3); n > 0; --n) {
    switch (pick(5)) {
      case 0:
        if (!out.empty())
          out[pick(out.size())] ^= static_cast<std::uint8_t>(1u << pick(8));
        break;
      case 1:
        out.resize(pick(out.size() + 1));
        break;
      case 2:
        out.insert(out.begin() + static_cast<long>(pick(out.size() + 1)),
                   static_cast<std::uint8_t>(pick(256)));
        break;
      case 3:
        if (!out.empty())
          out.erase(out.begin() + static_cast<long>(pick(out.size())));
        break;
      default: {
        if (out.size() < 4) break;
        const std::uint32_t word = kWords[pick(std::size(kWords))];
        const std::size_t at = pick(out.size() - 3);
        for (std::size_t i = 0; i < 4; ++i)
          out[at + i] = static_cast<std::uint8_t>(word >> (8 * i));
        break;
      }
    }
  }
  out.resize(out.size() + 8);
  if (pick(16) != 0) reseal(out);
  return out;
}

/// Decode `kMutations` mutated frames; each must decode or throw
/// CodecError -- no other exception, no crash, no sanitizer report.
template <typename Decode>
void fuzz_decoder(const std::vector<WireBytes>& frames, Decode decode,
                  std::uint64_t seed) {
  constexpr std::size_t kMutations = 1'000'000;
  std::mt19937_64 rng(seed);
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kMutations; ++i) {
    const WireBytes frame = mutate(frames[rng() % frames.size()], rng);
    try {
      decode(frame);
      ++decoded;
    } catch (const CodecError&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "mutation " << i << " threw " << e.what();
    }
  }
  EXPECT_EQ(decoded + rejected, kMutations);
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(WireMutationFuzz, A2IFramesDecodeOrThrowCodecError) {
  fuzz_decoder(seed_frames<A2IReport>(random_a2i),
               [](const WireBytes& f) { (void)decode_a2i(f); }, 20261018);
}

TEST(WireMutationFuzz, I2AFramesDecodeOrThrowCodecError) {
  fuzz_decoder(seed_frames<I2AReport>(random_i2a),
               [](const WireBytes& f) { (void)decode_i2a(f); }, 20261019);
}

}  // namespace
}  // namespace eona::core
