// Footprint pin for the telemetry aggregators: the live heap a
// WindowedAggregator holds follows the groups it has seen, not a preset
// fan-out. An AppP owns two 6-bucket aggregators over two to four
// (ISP, CDN) groups, once per sector, so at `scale` a fixed per-table
// overhead is paid thousands of times. A replacement of the global
// operator new that records each block's size sees every byte the process
// holds, so this test is its own binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "telemetry/aggregator.hpp"

namespace {
std::atomic<std::int64_t> g_live_bytes{0};
// Each block carries its size in a header one maximal alignment wide, so
// the pointer handed out keeps malloc's alignment.
constexpr std::size_t kHeader = alignof(std::max_align_t);
}  // namespace

// Out of line, so the compiler never pairs an inlined free() with a visible
// operator new call (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  void* base = std::malloc(size + kHeader);
  if (base == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(base) = size;
  g_live_bytes.fetch_add(static_cast<std::int64_t>(size),
                         std::memory_order_relaxed);
  return static_cast<std::byte*>(base) + kHeader;
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* base = static_cast<std::byte*>(p) - kHeader;
  g_live_bytes.fetch_sub(
      static_cast<std::int64_t>(*static_cast<std::size_t*>(base)),
      std::memory_order_relaxed);
  std::free(base);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept {
  ::operator delete(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  ::operator delete(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace eona::telemetry {
namespace {

constexpr Dim kMask = Dim::kIsp | Dim::kCdn;
constexpr std::size_t kBuckets = 6;  // the AppP's window ring
constexpr Duration kWindow = 60.0;

std::int64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

SessionRecord beacon(IspId isp, TimePoint t) {
  SessionRecord record;
  record.dims.isp = isp;
  record.dims.cdn = CdnId(0);
  record.metrics.buffering_ratio = 0.01;
  record.metrics.avg_bitrate = 1.5e6;
  record.timestamp = t;
  return record;
}

// Bytes requested by live blocks, the aggregator object itself not
// counted. The flat tables hold 528 B after construction and 9,848 B once
// three groups fill the ring and a snapshot is taken; the 16-way sharded
// layout they replaced held 6,240 B and 17,664 B. The bounds sit between.
constexpr std::int64_t kConstructedBound = 2'048;
constexpr std::int64_t kFilledBound = 12'288;

TEST(TelemetryFootprint, AWindowedAggregatorHoldsLittleBeforeItsFirstBeacon) {
  const std::int64_t before = live_bytes();
  WindowedAggregator agg(kMask, kWindow, kBuckets);
  const std::int64_t constructed = live_bytes() - before;
  EXPECT_LE(constructed, kConstructedBound) << "bytes after construction";
}

TEST(TelemetryFootprint, ThreeGroupsOverSixBucketsPlusASnapshotStaySmall) {
  const std::int64_t before = live_bytes();
  std::int64_t filled = 0;
  {
    WindowedAggregator agg(kMask, kWindow, kBuckets);
    const Duration span = kWindow / static_cast<double>(kBuckets);
    for (std::size_t b = 0; b < kBuckets; ++b)
      for (IspId::rep_type g = 0; g < 3; ++g)
        agg.ingest(beacon(IspId(g), (static_cast<double>(b) + 0.5) * span));
    const TimePoint now = (static_cast<double>(kBuckets) - 0.5) * span;
    ASSERT_EQ(agg.snapshot(now).size(), 3u);
    EXPECT_EQ(agg.query(beacon(IspId(1), now).dims, now).records, kBuckets);
    filled = live_bytes() - before;
  }
  // Read before any expectation: a failed one allocates its message.
  const std::int64_t kept = live_bytes() - before;
  EXPECT_LE(filled, kFilledBound) << "bytes after 3 groups x 6 buckets";
  EXPECT_EQ(kept, 0) << "bytes still held after the aggregator died";
}

TEST(TelemetryFootprint, TheCounterSeesLiveBytes) {
  // Guards the pins above against a replacement that counts nothing.
  const std::int64_t before = live_bytes();
  auto* volatile block = new std::uint64_t[40];  // kept: volatile
  const std::int64_t held = live_bytes() - before;
  delete[] block;
  EXPECT_EQ(held, 40 * 8);
  EXPECT_EQ(live_bytes(), before);
}

}  // namespace
}  // namespace eona::telemetry
