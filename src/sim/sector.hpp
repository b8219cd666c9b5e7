// Barrier-round execution of sector-partitioned simulations.
//
// A million-session world is split into sectors (ISP x CDN-region cells in
// the scale scenario), each a complete, self-contained mini sim::World with
// its own Scheduler, Rng and Network. Between coupling points the sectors
// share no mutable state, so their event streams can run on worker threads
// concurrently; at each barrier tick a serial coordinator reads every
// sector in index order and applies cross-sector mutations (backbone
// headroom reallocation) before the next round starts.
//
// SectorRunner is the pool that executes one such round: run_round(jobs,
// fn) invokes fn(i) for every i in [0, jobs) and returns when all are done.
// The sparse overload run_round(indices, fn) dispatches only the listed
// sector indices -- the quiescence-aware barrier loop in scenarios/scale
// hands it the active subset and skips idle sectors entirely. The workers
// persist across rounds -- a barrier loop calls run_round thousands of
// times and must not pay thread creation per tick. A scenario sweep
// (scenarios/sweep.hpp) is one round of independent runs. With threads <= 1
// the round runs inline on the caller's thread; because sectors are
// independent between barriers, the simulation output is byte-identical at
// ANY thread count (pinned by tests/scenario_scale_test.cpp).
//
// Rounds smaller than the pool wake only min(jobs, threads) workers
// (notify_one per needed worker, not notify_all), so a mostly-quiescent
// round does not pay a thundering herd of wakeups that immediately find
// next_ exhausted. participations() counts workers that actually joined a
// pooled round, which is what tests pin.
//
// Exceptions thrown by jobs are captured per-index; after the round drains,
// the error with the lowest job index is rethrown on the caller's thread
// (deterministic regardless of worker interleaving).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/contracts.hpp"

namespace eona::sim {

class SectorRunner {
 public:
  /// `threads` worker count; 0 means one per hardware thread. Workers are
  /// spawned lazily on the first parallel round.
  explicit SectorRunner(std::size_t threads = 0)
      : threads_(threads != 0 ? threads : default_threads()) {}

  SectorRunner(const SectorRunner&) = delete;
  SectorRunner& operator=(const SectorRunner&) = delete;

  ~SectorRunner() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_ready_.notify_all();
    for (std::thread& worker : pool_) worker.join();
  }

  [[nodiscard]] std::size_t threads() const { return threads_; }

  /// Total rounds executed (observability for tests and benchmarks).
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }

  /// Total (worker, round) participations on the pooled path: how many
  /// workers actually woke and claimed jobs, summed over all rounds. A
  /// round of j jobs on t workers adds exactly min(j, t) -- the thundering
  /// herd fix's observable contract. Inline rounds add nothing.
  [[nodiscard]] std::uint64_t participations() const { return participations_; }

  /// Run `fn(i)` for every i in [0, jobs) and block until all complete.
  /// Inline (no pool) when one worker suffices. Must be called from the
  /// owning thread only; rounds never overlap.
  void run_round(std::size_t jobs, const std::function<void(std::size_t)>& fn) {
    dispatch(nullptr, jobs, fn);
  }

  /// Sparse round: run `fn(indices[k])` for every k in [0, indices.size())
  /// and block until all complete. The caller keeps `indices` alive and
  /// unchanged for the duration of the round. Error selection is by claim
  /// position, so the failure rethrown is the one a serial walk of
  /// `indices` would have hit first.
  void run_round(std::span<const std::size_t> indices,
                 const std::function<void(std::size_t)>& fn) {
    dispatch(indices.data(), indices.size(), fn);
  }

 private:
  void dispatch(const std::size_t* indices, std::size_t jobs,
                const std::function<void(std::size_t)>& fn) {
    ++rounds_;
    if (threads_ <= 1 || jobs <= 1) {
      for (std::size_t i = 0; i < jobs; ++i)
        fn(indices != nullptr ? indices[i] : i);
      return;
    }
    if (pool_.empty()) start_workers();
    std::size_t participants = std::min(jobs, pool_.size());
    {
      std::lock_guard<std::mutex> lock(mutex_);
      fn_ = &fn;
      indices_ = indices;
      jobs_ = jobs;
      next_ = 0;
      participants_ = participants;
      entered_ = 0;
      busy_ = participants;
      ++round_;
    }
    // Wake only as many workers as can possibly claim a job. Workers that
    // wake anyway (spurious or late from a prior round) bounce off the
    // entered_ cap without touching busy_.
    if (participants == pool_.size()) {
      work_ready_.notify_all();
    } else {
      for (std::size_t t = 0; t < participants; ++t) work_ready_.notify_one();
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      round_done_.wait(lock, [this] { return busy_ == 0; });
      fn_ = nullptr;
      indices_ = nullptr;
    }
    rethrow_first_error();
  }

 private:
  static std::size_t default_threads() {
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

  void start_workers() {
    pool_.reserve(threads_);
    for (std::size_t t = 0; t < threads_; ++t)
      pool_.emplace_back([this] { worker_loop(); });
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(std::size_t)>* fn = nullptr;
      const std::size_t* indices = nullptr;
      std::size_t jobs = 0;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_ready_.wait(lock, [&] { return stop_ || round_ != seen; });
        if (stop_) return;
        seen = round_;
        // Participation cap: exactly participants_ workers join a round
        // (busy_ expects exactly that many decrements). A worker waking
        // beyond the cap -- spurious wakeup, or late enough that the round
        // already drained -- goes back to sleep without claiming anything.
        if (entered_ >= participants_) continue;
        ++entered_;
        ++participations_;
        fn = fn_;
        indices = indices_;
        jobs = jobs_;
      }
      for (;;) {
        std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= jobs) break;
        try {
          (*fn)(indices != nullptr ? indices[i] : i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex_);
          errors_.emplace_back(i, std::current_exception());
        }
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--busy_ == 0) round_done_.notify_all();
      }
    }
  }

  /// Rethrow the failure with the lowest claim position -- the same error a
  /// serial round (a serial walk of the sparse index list) would hit first.
  void rethrow_first_error() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (errors_.empty()) return;
    auto first = std::min_element(
        errors_.begin(), errors_.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::exception_ptr error = first->second;
    errors_.clear();
    std::rethrow_exception(error);
  }

  std::size_t threads_;
  std::vector<std::thread> pool_;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable round_done_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  const std::size_t* indices_ = nullptr;  ///< sparse round map; null = dense
  std::size_t jobs_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t participants_ = 0;  ///< workers this round needs, = min(jobs, threads)
  std::size_t entered_ = 0;       ///< workers that joined so far (capped)
  std::size_t busy_ = 0;
  std::uint64_t round_ = 0;
  bool stop_ = false;
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors_;

  std::uint64_t rounds_ = 0;
  std::uint64_t participations_ = 0;  ///< see participations()
};

}  // namespace eona::sim
