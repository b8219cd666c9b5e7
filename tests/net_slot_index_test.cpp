// Differential tests of the flat id -> slot index (net/slot_index.hpp)
// against a std::unordered_map oracle: a seeded churn of over a million
// operations shaped like the data plane's (sequential ids, random erases of
// live ids, lookups of erased and never-issued ids, growth through many
// capacity doublings), and clustered erases whose backward shift crosses
// the end of the table.
#include "net/slot_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "sim/rng.hpp"

namespace eona::net {
namespace {

using Index = SlotIndex<FlowId>;
using Oracle = std::unordered_map<FlowId::rep_type, std::uint32_t>;

void expect_same(const Index& index, const Oracle& oracle) {
  ASSERT_EQ(index.size(), oracle.size());
  for (const auto& [id, slot] : oracle) {
    const std::optional<std::uint32_t> found = index.find(FlowId(id));
    ASSERT_TRUE(found.has_value()) << "id " << id;
    ASSERT_EQ(*found, slot) << "id " << id;
  }
  EXPECT_LE(2 * index.size(), index.capacity());  // load at most one half
}

TEST(SlotIndex, EmptyIndexHoldsNothing) {
  Index index;
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.capacity(), 0u);
  EXPECT_FALSE(index.find(FlowId(0)).has_value());
  EXPECT_FALSE(index.find(FlowId{}).has_value());
  EXPECT_FALSE(index.erase(FlowId(3)));
  index.insert(FlowId(0), 9);
  EXPECT_FALSE(index.contains(FlowId{}));  // the empty marker is no id
  EXPECT_FALSE(index.erase(FlowId{}));
  EXPECT_EQ(index.size(), 1u);
}

TEST(SlotIndex, ChurnMatchesUnorderedMapOracle) {
  sim::Rng rng(24);
  Index index;
  Oracle oracle;
  std::vector<FlowId::rep_type> live;
  std::vector<FlowId::rep_type> erased;  // the most recent erases, a ring
  std::size_t erased_next = 0;
  FlowId::rep_type next_id = 0;
  std::size_t doublings = 0;
  std::size_t peak_live = 0;
  std::size_t operations = 0;
  std::size_t last_capacity = 0;

  auto track = [&] {
    if (index.capacity() != last_capacity) {
      if (last_capacity != 0) {
        EXPECT_EQ(index.capacity(), 2 * last_capacity);
        ++doublings;
      }
      last_capacity = index.capacity();
    }
    peak_live = std::max(peak_live, live.size());
  };
  auto insert = [&] {
    const FlowId::rep_type id = next_id++;
    const auto slot = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30));
    index.insert(FlowId(id), slot);
    oracle.emplace(id, slot);
    live.push_back(id);
    ++operations;
    track();
  };
  auto erase_random = [&] {
    ++operations;
    if (live.empty()) return;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
    const FlowId::rep_type id = live[pos];
    live[pos] = live.back();
    live.pop_back();
    ASSERT_TRUE(index.erase(FlowId(id))) << "id " << id;
    oracle.erase(id);
    if (erased.size() < 1024)
      erased.push_back(id);
    else
      erased[erased_next++ % erased.size()] = id;
  };

  // Growth: sequential ids, as Network and TransferManager issue them, up
  // to 5,000 live entries (16 -> 16,384 buckets), then random erases down
  // to a few hundred.
  for (int i = 0; i < 5000; ++i) insert();
  expect_same(index, oracle);
  EXPECT_GE(doublings, 5u);
  while (live.size() > 300) erase_random();
  expect_same(index, oracle);

  // Churn: phases of net growth and net shrinkage, with lookups of live,
  // erased and never-issued ids in between.
  for (std::size_t op = 0; op < 1'200'000; ++op) {
    const bool growing = (op / 100'000) % 2 == 0;
    const std::int64_t r = rng.uniform_int(0, 99);
    if (r < (growing ? 30 : 20)) {
      insert();
    } else if (r < 50) {
      erase_random();
    } else if (r < 75) {
      ++operations;
      if (live.empty()) continue;
      const FlowId::rep_type id = live[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];
      const std::optional<std::uint32_t> found = index.find(FlowId(id));
      ASSERT_TRUE(found.has_value()) << "id " << id;
      ASSERT_EQ(*found, oracle.at(id));
    } else if (r < 88) {
      ++operations;
      if (erased.empty()) continue;
      const FlowId::rep_type id = erased[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(erased.size()) - 1))];
      ASSERT_FALSE(index.find(FlowId(id)).has_value()) << "id " << id;
      ASSERT_FALSE(index.erase(FlowId(id))) << "id " << id;
    } else {
      ++operations;
      // Never issued: just past the counter, or far beyond it.
      const FlowId::rep_type id =
          r < 94 ? next_id + static_cast<FlowId::rep_type>(
                                 rng.uniform_int(0, 1'000'000))
                 : (FlowId::rep_type{1} << 62) +
                       static_cast<FlowId::rep_type>(
                           rng.uniform_int(0, 1'000'000));
      ASSERT_FALSE(index.contains(FlowId(id))) << "id " << id;
    }
    if (op % 50'000 == 0) expect_same(index, oracle);
  }
  expect_same(index, oracle);
  EXPECT_GE(operations, 1'000'000u);

  // Sized by live entries, never by ids issued.
  EXPECT_GT(next_id, 4u * index.capacity());
  EXPECT_LE(index.capacity(), std::max<std::size_t>(16, 4 * peak_live));

  // Draining leaves an empty, still usable index.
  while (!live.empty()) erase_random();
  expect_same(index, oracle);
  insert();
  expect_same(index, oracle);
}

/// Ids whose home bucket in a 16-bucket table is `home`, found by placing
/// each candidate alone (where it sits at its home).
std::vector<FlowId::rep_type> ids_homed_at(std::size_t home, std::size_t n,
                                           FlowId::rep_type& candidate) {
  std::vector<FlowId::rep_type> ids;
  while (ids.size() < n) {
    Index probe;
    probe.insert(FlowId(candidate), 0);
    EXPECT_EQ(probe.capacity(), 16u);
    if (probe.bucket(FlowId(candidate)) == home) ids.push_back(candidate);
    ++candidate;
  }
  return ids;
}

TEST(SlotIndex, BackwardShiftCrossesTheWrap) {
  FlowId::rep_type candidate = 0;
  const auto at14 = ids_homed_at(14, 1, candidate);
  const auto at15 = ids_homed_at(15, 3, candidate);
  const auto at0 = ids_homed_at(0, 1, candidate);
  Index index;
  index.insert(FlowId(at14[0]), 14);
  for (FlowId::rep_type id : at15) index.insert(FlowId(id), 15);
  index.insert(FlowId(at0[0]), 0);
  ASSERT_EQ(index.capacity(), 16u);
  // The run 14..2 wraps: three ids homed at 15 spill into 0 and 1, which
  // pushes the id homed at 0 to 2.
  EXPECT_EQ(index.bucket(FlowId(at14[0])), 14u);
  EXPECT_EQ(index.bucket(FlowId(at15[0])), 15u);
  EXPECT_EQ(index.bucket(FlowId(at15[1])), 0u);
  EXPECT_EQ(index.bucket(FlowId(at15[2])), 1u);
  EXPECT_EQ(index.bucket(FlowId(at0[0])), 2u);

  // Erasing at 15 pulls the whole tail of the run back across the wrap.
  ASSERT_TRUE(index.erase(FlowId(at15[0])));
  EXPECT_EQ(index.bucket(FlowId(at15[1])), 15u);
  EXPECT_EQ(index.bucket(FlowId(at15[2])), 0u);
  EXPECT_EQ(index.bucket(FlowId(at0[0])), 1u);
  // Erasing at 14 moves nothing: every later entry sits past its home.
  ASSERT_TRUE(index.erase(FlowId(at14[0])));
  EXPECT_EQ(index.bucket(FlowId(at15[1])), 15u);
  EXPECT_EQ(index.bucket(FlowId(at15[2])), 0u);
  EXPECT_EQ(index.bucket(FlowId(at0[0])), 1u);
  EXPECT_EQ(*index.find(FlowId(at15[2])), 15u);
  EXPECT_EQ(*index.find(FlowId(at0[0])), 0u);
  EXPECT_FALSE(index.contains(FlowId(at15[0])));
  EXPECT_EQ(index.size(), 3u);
}

TEST(SlotIndex, ClusteredErasesAroundTheWrapMatchTheOracle) {
  // Fill a 16-bucket table with eight ids homed at 13..15 and 0..1 (one
  // wrapping cluster), erase them in a random order checking every lookup
  // after each erase, and count the entries moved from the front of the
  // table to its back.
  FlowId::rep_type candidate = 0;
  std::vector<FlowId::rep_type> pool;
  for (std::size_t home : {13u, 14u, 15u, 0u, 1u}) {
    auto ids = ids_homed_at(home, 6, candidate);
    pool.insert(pool.end(), ids.begin(), ids.end());
  }
  sim::Rng rng(7);
  std::size_t wrap_moves = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<FlowId::rep_type> chosen = pool;
    for (std::size_t i = chosen.size(); i > 1; --i)
      std::swap(chosen[i - 1], chosen[static_cast<std::size_t>(rng.uniform_int(
                                   0, static_cast<std::int64_t>(i) - 1))]);
    chosen.resize(8);
    Index index;
    Oracle oracle;
    for (std::uint32_t k = 0; k < chosen.size(); ++k) {
      index.insert(FlowId(chosen[k]), k);
      oracle.emplace(chosen[k], k);
    }
    ASSERT_EQ(index.capacity(), 16u);
    std::vector<FlowId::rep_type> order = chosen;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[static_cast<std::size_t>(rng.uniform_int(
                                  0, static_cast<std::int64_t>(i) - 1))]);
    for (FlowId::rep_type victim : order) {
      std::vector<std::size_t> before;
      for (FlowId::rep_type id : chosen) before.push_back(index.bucket(FlowId(id)));
      ASSERT_TRUE(index.erase(FlowId(victim)));
      oracle.erase(victim);
      ASSERT_EQ(index.bucket(FlowId(victim)), Index::npos);
      for (std::size_t k = 0; k < chosen.size(); ++k) {
        const std::size_t after = index.bucket(FlowId(chosen[k]));
        if (before[k] <= 2 && after != Index::npos && after >= 13) ++wrap_moves;
      }
      expect_same(index, oracle);
    }
  }
  EXPECT_GT(wrap_moves, 100u);
}

}  // namespace
}  // namespace eona::net
