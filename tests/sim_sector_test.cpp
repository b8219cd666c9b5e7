// Tests for the persistent barrier-round pool under sector-parallel
// execution: full coverage of each round, reuse across many rounds,
// deterministic error selection, and serial/parallel equivalence on a
// sharded counter workload.
#include "sim/sector.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

namespace eona::sim {
namespace {

TEST(SectorRunner, RunsEveryJobExactlyOncePerRound) {
  SectorRunner runner(4);
  std::vector<std::atomic<int>> hits(64);
  runner.run_round(hits.size(), [&](std::size_t i) { ++hits[i]; });
  runner.run_round(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 2);
  EXPECT_EQ(runner.rounds(), 2u);
}

TEST(SectorRunner, ZeroThreadsMeansHardwareDefault) {
  EXPECT_GE(SectorRunner(0).threads(), 1u);
  EXPECT_EQ(SectorRunner(3).threads(), 3u);
}

TEST(SectorRunner, SerialWhenSingleThreaded) {
  SectorRunner runner(1);
  EXPECT_EQ(runner.threads(), 1u);
  // Single-threaded rounds run inline: jobs may freely touch shared state
  // in index order.
  std::vector<int> order;
  runner.run_round(8, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  std::vector<int> expect(8);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
}

TEST(SectorRunner, PersistentWorkersSurviveManyRounds) {
  // A barrier loop issues thousands of rounds; the pool must not leak or
  // wedge across them.
  SectorRunner runner(3);
  std::atomic<long> total{0};
  for (int round = 0; round < 500; ++round)
    runner.run_round(7, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 500 * 7);
  EXPECT_EQ(runner.rounds(), 500u);
}

TEST(SectorRunner, LowestIndexErrorWinsDeterministically) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SectorRunner runner(threads);
    try {
      runner.run_round(16, [&](std::size_t i) {
        if (i % 5 == 2) throw std::runtime_error("job " + std::to_string(i));
      });
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& e) {
      // Serial hits job 2 first; parallel must report the same one.
      EXPECT_STREQ(e.what(), "job 2");
    }
    // The pool stays usable after a failed round.
    std::atomic<int> ok{0};
    runner.run_round(4, [&](std::size_t) { ++ok; });
    EXPECT_EQ(ok.load(), 4);
  }
}

TEST(SectorRunner, ShardedWorkMatchesSerialResult) {
  // The sector contract in miniature: jobs own disjoint state, rounds
  // alternate with serial coordination, results must not depend on the
  // thread count.
  auto run = [](std::size_t threads) {
    SectorRunner runner(threads);
    std::vector<long> shard(32, 0);
    long coordinated = 0;
    for (int round = 1; round <= 20; ++round) {
      runner.run_round(shard.size(), [&](std::size_t i) {
        shard[i] += static_cast<long>(i) * round;
      });
      for (long s : shard) coordinated += s;  // serial barrier step
    }
    return coordinated;
  };
  long serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(8), serial);
}

TEST(SectorRunner, ZeroAndSingleJobRoundsAreFine) {
  SectorRunner runner(4);
  runner.run_round(0, [](std::size_t) { FAIL() << "no jobs to run"; });
  int ran = 0;
  runner.run_round(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++ran;
  });
  EXPECT_EQ(ran, 1);
}

TEST(SectorRunner, SparseRoundDispatchesOnlyListedIndices) {
  // The quiescence-aware barrier loop hands run_round the active subset;
  // fn must see exactly the listed sector indices, nothing else.
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SectorRunner runner(threads);
    std::vector<std::atomic<int>> hits(16);

    std::vector<std::size_t> none;
    runner.run_round(std::span<const std::size_t>(none),
                     [](std::size_t) { FAIL() << "empty round ran a job"; });

    std::vector<std::size_t> one{5};
    runner.run_round(std::span<const std::size_t>(one),
                     [&](std::size_t i) { ++hits[i]; });

    std::vector<std::size_t> sparse{1, 5, 9, 13};
    runner.run_round(std::span<const std::size_t>(sparse),
                     [&](std::size_t i) { ++hits[i]; });

    std::vector<std::size_t> all(hits.size());
    std::iota(all.begin(), all.end(), 0);
    runner.run_round(std::span<const std::size_t>(all),
                     [&](std::size_t i) { ++hits[i]; });

    for (std::size_t i = 0; i < hits.size(); ++i) {
      int expect = 1;                 // the full round
      if (i % 4 == 1) ++expect;       // the sparse round
      if (i == 5) ++expect;           // the single-index round
      EXPECT_EQ(hits[i].load(), expect) << "threads " << threads << " i " << i;
    }
    EXPECT_EQ(runner.rounds(), 4u);
  }
}

TEST(SectorRunner, SparseLowestPositionErrorWinsDeterministically) {
  // Among failures in a sparse set, the rethrown one must be the failure a
  // serial walk of the index list would hit first -- regardless of which
  // worker hit which index.
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SectorRunner runner(threads);
    std::vector<std::size_t> sparse{3, 7, 11, 15};
    try {
      runner.run_round(std::span<const std::size_t>(sparse),
                       [](std::size_t i) {
                         if (i == 7 || i == 15)
                           throw std::runtime_error("sector " +
                                                    std::to_string(i));
                       });
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "sector 7") << "threads " << threads;
    }
    // The pool stays usable after a failed sparse round.
    std::atomic<int> ok{0};
    runner.run_round(std::span<const std::size_t>(sparse),
                     [&](std::size_t) { ++ok; });
    EXPECT_EQ(ok.load(), 4);
  }
}

TEST(SectorRunner, SmallRoundsWakeOnlyAsManyWorkersAsJobs) {
  // Thundering-herd pin: a round of j jobs on t workers admits exactly
  // min(j, t) participants -- the rest are never woken (or bounce off the
  // entered cap without claiming), so a mostly-quiescent round does not
  // pay t wakeups to run two sectors.
  SectorRunner runner(8);
  std::atomic<int> hits{0};
  runner.run_round(64, [&](std::size_t) { ++hits; });  // full: all 8 join
  EXPECT_EQ(runner.participations(), 8u);
  runner.run_round(3, [&](std::size_t) { ++hits; });   // sparse: only 3
  EXPECT_EQ(runner.participations(), 11u);
  std::vector<std::size_t> two{4, 9};
  runner.run_round(std::span<const std::size_t>(two),
                   [&](std::size_t) { ++hits; });      // sparse list: only 2
  EXPECT_EQ(runner.participations(), 13u);
  runner.run_round(1, [&](std::size_t) { ++hits; });   // inline: none
  EXPECT_EQ(runner.participations(), 13u);
  EXPECT_EQ(hits.load(), 64 + 3 + 2 + 1);
  EXPECT_EQ(runner.rounds(), 4u);
  EXPECT_EQ(runner.threads(), 8u);
}

}  // namespace
}  // namespace eona::sim
