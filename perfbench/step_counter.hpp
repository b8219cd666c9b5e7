// Outside-in scheduler counter: drives a sim::Scheduler one event at a time
// through its public API and derives the heap traffic the scheduler does
// not report itself (pushes, stale pops, peak depth).
//
// The trick: next_event_time_or() drops every stale (cancelled or
// gate-closed) entry off the top of the heap, so the step() that follows
// pops exactly one entry and fires it. Around that step the queue size
// moves by (pushes - 1), which gives the push count; the size drop inside
// the next next_event_time_or() is the stale-pop count. Heap size only
// grows inside an action, so its value right after a step is the peak for
// that step. Pushes made between steps by the caller (quota top-ups,
// abort_all) go through outside(), and entries already queued when the
// counter attaches count as pushes made during set-up.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <utility>

#include "sim/scheduler.hpp"

namespace perfbench {

struct SchedCounts {
  std::uint64_t fired = 0;
  std::uint64_t pushed = 0;
  std::uint64_t stale = 0;
  std::size_t peak = 0;
};

class StepCounter {
 public:
  explicit StepCounter(eona::sim::Scheduler& sched) : sched_(sched) {
    counts_.pushed = sched.pending_events();
    counts_.peak = sched.pending_events();
  }

  /// Fire every event due at or before `deadline` one step at a time, then
  /// park the clock at `deadline` exactly as Scheduler::run_until does.
  /// `on_step(ns)` receives each step's host time in nanoseconds.
  template <typename OnStep>
  void run_until(eona::TimePoint deadline, OnStep&& on_step) {
    using Clock = std::chrono::steady_clock;
    constexpr eona::TimePoint kNever =
        std::numeric_limits<eona::TimePoint>::infinity();
    for (;;) {
      const std::size_t before_drop = sched_.pending_events();
      const eona::TimePoint next = sched_.next_event_time_or(kNever);
      const std::size_t live_top = sched_.pending_events();
      counts_.stale += before_drop - live_top;
      if (next > deadline) break;
      const Clock::time_point t0 = Clock::now();
      sched_.step();
      const Clock::time_point t1 = Clock::now();
      const std::size_t after = sched_.pending_events();
      counts_.pushed += after + 1 - live_top;
      ++counts_.fired;
      counts_.peak = std::max(counts_.peak, after);
      on_step(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
    }
    sched_.run_until(deadline);
  }

  void run_until(eona::TimePoint deadline) {
    run_until(deadline, [](std::uint64_t) {});
  }

  /// Run caller code between steps, counting the events it posts. Nothing
  /// outside step() pops, so the queue can only grow here.
  template <typename Fn>
  void outside(Fn&& fn) {
    const std::size_t before = sched_.pending_events();
    std::forward<Fn>(fn)();
    const std::size_t after = sched_.pending_events();
    counts_.pushed += after - before;
    counts_.peak = std::max(counts_.peak, after);
  }

  [[nodiscard]] const SchedCounts& counts() const { return counts_; }

 private:
  eona::sim::Scheduler& sched_;
  SchedCounts counts_;
};

}  // namespace perfbench
