// Unit tests for the discrete-event kernel: ordering, determinism,
// cancellation, in-place re-keying (against cancel + schedule_at as a
// differential oracle), periodic tasks, and the runaway guard.
#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace eona::sim {
namespace {

TEST(Scheduler, StartsAtTimeZeroWithNoEvents) {
  Scheduler sched;
  EXPECT_EQ(sched.now(), 0.0);
  EXPECT_TRUE(sched.empty());
  EXPECT_FALSE(sched.step());
  EXPECT_EQ(sched.events_fired(), 0u);
}

TEST(Scheduler, FiresEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(3.0, [&] { order.push_back(3); });
  sched.schedule_at(1.0, [&] { order.push_back(1); });
  sched.schedule_at(2.0, [&] { order.push_back(2); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 3.0);
}

TEST(Scheduler, SimultaneousEventsFireInScheduleOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sched.schedule_at(5.0, [&order, i] { order.push_back(i); });
  sched.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, ClockAdvancesToEventTime) {
  Scheduler sched;
  TimePoint seen = -1.0;
  sched.schedule_after(7.5, [&] { seen = sched.now(); });
  sched.run_all();
  EXPECT_DOUBLE_EQ(seen, 7.5);
}

TEST(Scheduler, SchedulingInThePastIsAContractViolation) {
  Scheduler sched;
  sched.schedule_at(10.0, [] {});
  sched.run_all();
  EXPECT_THROW(sched.schedule_at(5.0, [] {}), ContractViolation);
}

TEST(Scheduler, NullActionIsAContractViolation) {
  Scheduler sched;
  EXPECT_THROW(sched.schedule_at(1.0, Scheduler::Action{}),
               ContractViolation);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  EventHandle handle = sched.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  sched.cancel(handle);
  EXPECT_FALSE(handle.pending());
  sched.run_all();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelIsIdempotentAndSafeAfterFiring) {
  Scheduler sched;
  int fires = 0;
  EventHandle handle = sched.schedule_at(1.0, [&] { ++fires; });
  sched.run_all();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(handle.pending());
  sched.cancel(handle);  // no-op
  sched.cancel(handle);  // still a no-op
  EXPECT_EQ(fires, 1);
}

TEST(Scheduler, DefaultConstructedHandleIsNotPending) {
  EventHandle handle;
  EXPECT_FALSE(handle.pending());
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler sched;
  std::vector<TimePoint> times;
  sched.schedule_at(1.0, [&] {
    times.push_back(sched.now());
    sched.schedule_after(1.0, [&] { times.push_back(sched.now()); });
  });
  sched.run_all();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(Scheduler, RunUntilStopsAtDeadlineAndSetsClock) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(1.0, [&] { ++fired; });
  sched.schedule_at(5.0, [&] { ++fired; });
  sched.schedule_at(10.0, [&] { ++fired; });
  sched.run_until(5.0);
  EXPECT_EQ(fired, 2);  // events at exactly the deadline fire
  EXPECT_DOUBLE_EQ(sched.now(), 5.0);
  sched.run_until(20.0);
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(sched.now(), 20.0);
}

TEST(Scheduler, RunUntilWithOnlyCancelledEventsAdvancesClock) {
  Scheduler sched;
  EventHandle handle = sched.schedule_at(3.0, [] {});
  sched.cancel(handle);
  sched.run_until(10.0);
  EXPECT_DOUBLE_EQ(sched.now(), 10.0);
}

TEST(Scheduler, RunAllGuardsAgainstRunawayLoops) {
  Scheduler sched;
  std::function<void()> rearm = [&] { sched.schedule_after(0.001, rearm); };
  sched.schedule_after(0.001, rearm);
  EXPECT_THROW(sched.run_all(/*max_events=*/1000), Error);
}

TEST(Scheduler, NextEventTimeSkipsCancelled) {
  Scheduler sched;
  EventHandle first = sched.schedule_at(1.0, [] {});
  sched.schedule_at(2.0, [] {});
  sched.cancel(first);
  EXPECT_DOUBLE_EQ(sched.next_event_time(), 2.0);
}

TEST(Scheduler, NextEventTimeOrFallsBackWhenEmpty) {
  Scheduler sched;
  EXPECT_DOUBLE_EQ(sched.next_event_time_or(99.0), 99.0);
  EventHandle pending = sched.schedule_at(3.0, [] {});
  EXPECT_DOUBLE_EQ(sched.next_event_time_or(99.0), 3.0);
  sched.cancel(pending);
  EXPECT_DOUBLE_EQ(sched.next_event_time_or(99.0), 99.0);
}

TEST(PeriodicTask, TicksAtFixedPeriod) {
  Scheduler sched;
  std::vector<TimePoint> ticks;
  PeriodicTask task(sched, 2.0, [&] { ticks.push_back(sched.now()); });
  sched.run_until(7.0);
  ASSERT_EQ(ticks.size(), 3u);
  EXPECT_DOUBLE_EQ(ticks[0], 2.0);
  EXPECT_DOUBLE_EQ(ticks[1], 4.0);
  EXPECT_DOUBLE_EQ(ticks[2], 6.0);
  EXPECT_EQ(task.ticks(), 3u);
}

TEST(PeriodicTask, FireImmediatelyStartsAtOffset) {
  Scheduler sched;
  std::vector<TimePoint> ticks;
  PeriodicTask task(sched, 5.0, [&] { ticks.push_back(sched.now()); },
                    /*start_offset=*/1.0, /*fire_immediately=*/true);
  sched.run_until(12.0);
  ASSERT_EQ(ticks.size(), 3u);
  EXPECT_DOUBLE_EQ(ticks[0], 1.0);
  EXPECT_DOUBLE_EQ(ticks[1], 6.0);
  EXPECT_DOUBLE_EQ(ticks[2], 11.0);
}

TEST(PeriodicTask, StopIsIdempotentAndHalting) {
  Scheduler sched;
  int ticks = 0;
  PeriodicTask task(sched, 1.0, [&] {
    ++ticks;
    if (ticks == 3) task.stop();
  });
  sched.run_until(10.0);
  EXPECT_EQ(ticks, 3);
  task.stop();
  sched.run_until(20.0);
  EXPECT_EQ(ticks, 3);
}

TEST(PeriodicTask, SetPeriodAffectsSubsequentTicks) {
  Scheduler sched;
  std::vector<TimePoint> ticks;
  PeriodicTask task(sched, 1.0, [&] {
    ticks.push_back(sched.now());
    task.set_period(3.0);
  });
  sched.run_until(8.0);
  ASSERT_GE(ticks.size(), 3u);
  EXPECT_DOUBLE_EQ(ticks[0], 1.0);
  EXPECT_DOUBLE_EQ(ticks[1], 4.0);
  EXPECT_DOUBLE_EQ(ticks[2], 7.0);
}

TEST(PeriodicTask, DestructorStopsTicking) {
  Scheduler sched;
  int ticks = 0;
  {
    PeriodicTask task(sched, 1.0, [&] { ++ticks; });
    sched.run_until(2.5);
  }
  sched.run_until(10.0);
  EXPECT_EQ(ticks, 2);
}

TEST(PeriodicTask, ZeroPeriodIsAContractViolation) {
  Scheduler sched;
  EXPECT_THROW(PeriodicTask(sched, 0.0, [] {}), ContractViolation);
}

/// Two identical event programs must fire identically (determinism).
TEST(Scheduler, DeterministicAcrossRuns) {
  auto run = [] {
    Scheduler sched;
    std::vector<std::string> log;
    for (int i = 0; i < 50; ++i) {
      double t = (i * 37 % 10) * 0.5;
      sched.schedule_at(t, [&log, i] { log.push_back(std::to_string(i)); });
    }
    sched.run_all();
    return log;
  };
  EXPECT_EQ(run(), run());
}

// --- rekey -------------------------------------------------------------------

TEST(SchedulerRekey, MovesAPendingEventEarlier) {
  Scheduler sched;
  std::vector<std::string> order;
  EventHandle a = sched.schedule_at(5.0, [&] { order.push_back("a"); });
  sched.schedule_at(3.0, [&] { order.push_back("b"); });
  EXPECT_TRUE(sched.rekey(a, 1.0));
  EXPECT_TRUE(a.pending());
  EXPECT_DOUBLE_EQ(sched.next_event_time(), 1.0);
  sched.run_all();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b"}));
  EXPECT_FALSE(a.pending());
  EXPECT_EQ(sched.events_fired(), 2u);
}

TEST(SchedulerRekey, MovesAPendingEventLater) {
  Scheduler sched;
  std::vector<std::string> order;
  EventHandle a = sched.schedule_at(1.0, [&] { order.push_back("a"); });
  sched.schedule_at(3.0, [&] { order.push_back("b"); });
  EXPECT_TRUE(sched.rekey(a, 5.0));
  sched.run_all();
  EXPECT_EQ(order, (std::vector<std::string>{"b", "a"}));
  EXPECT_DOUBLE_EQ(sched.now(), 5.0);
}

TEST(SchedulerRekey, FiresAfterEventsAlreadyQueuedAtTheNewTime) {
  // The re-keyed event takes a fresh sequence number, exactly as cancel +
  // schedule_at would: it ties after what is already queued at that time,
  // and before what is queued there later.
  Scheduler sched;
  std::vector<std::string> order;
  EventHandle a = sched.schedule_at(1.0, [&] { order.push_back("a"); });
  sched.schedule_at(2.0, [&] { order.push_back("b"); });
  sched.post_at(2.0, [&] { order.push_back("c"); });
  EXPECT_TRUE(sched.rekey(a, 2.0));
  sched.schedule_at(2.0, [&] { order.push_back("d"); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<std::string>{"b", "c", "a", "d"}));
}

TEST(SchedulerRekey, ToItsOwnTimeStillRequeuesBehindTies) {
  Scheduler sched;
  std::vector<std::string> order;
  EventHandle a = sched.schedule_at(2.0, [&] { order.push_back("a"); });
  sched.schedule_at(2.0, [&] { order.push_back("b"); });
  EXPECT_TRUE(sched.rekey(a, 2.0));
  sched.run_all();
  EXPECT_EQ(order, (std::vector<std::string>{"b", "a"}));
}

TEST(SchedulerRekey, KeepsOneQueueEntryPerEvent) {
  Scheduler sched;
  int fires = 0;
  EventHandle a = sched.schedule_at(1.0, [&] { ++fires; });
  for (int i = 0; i < 100; ++i)
    EXPECT_TRUE(sched.rekey(a, 1.0 + 0.5 * static_cast<double>(i % 7)));
  EXPECT_EQ(sched.pending_events(), 1u);
  sched.run_all();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(SchedulerRekey, FiredHandleReturnsFalseAndStaysFired) {
  Scheduler sched;
  int fires = 0;
  EventHandle a = sched.schedule_at(1.0, [&] { ++fires; });
  sched.run_all();
  EXPECT_FALSE(sched.rekey(a, 2.0));
  EXPECT_FALSE(a.pending());
  EXPECT_EQ(sched.pending_events(), 0u);
  sched.run_all();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sched.events_fired(), 1u);
}

TEST(SchedulerRekey, CancelledHandleReturnsFalseAndNeverResurrects) {
  Scheduler sched;
  int fires = 0;
  EventHandle a = sched.schedule_at(1.0, [&] { ++fires; });
  sched.cancel(a);
  EXPECT_FALSE(sched.rekey(a, 2.0));
  EXPECT_FALSE(a.pending());
  // The slot is recycled by a new event; the old handle must not reach it.
  int other_fires = 0;
  EventHandle b = sched.schedule_at(3.0, [&] { ++other_fires; });
  EXPECT_FALSE(sched.rekey(a, 0.5));
  EXPECT_TRUE(b.pending());
  sched.run_all();
  EXPECT_EQ(fires, 0);
  EXPECT_EQ(other_fires, 1);
  EXPECT_DOUBLE_EQ(sched.now(), 3.0);
}

TEST(SchedulerRekey, DefaultOrForeignHandleReturnsFalse) {
  Scheduler sched, other;
  EXPECT_FALSE(sched.rekey(EventHandle{}, 1.0));
  int fires = 0;
  EventHandle foreign = other.schedule_at(1.0, [&] { ++fires; });
  EXPECT_FALSE(sched.rekey(foreign, 0.5));
  EXPECT_EQ(sched.pending_events(), 0u);
  other.run_all();
  EXPECT_EQ(fires, 1);
  EXPECT_DOUBLE_EQ(other.now(), 1.0);
}

TEST(SchedulerRekey, InsideItsOwnActionTheHandleIsNotPending) {
  Scheduler sched;
  EventHandle a;
  bool rekeyed = true;
  a = sched.schedule_at(1.0, [&] { rekeyed = sched.rekey(a, 2.0); });
  sched.run_all();
  EXPECT_FALSE(rekeyed);
  EXPECT_EQ(sched.events_fired(), 1u);
}

TEST(SchedulerRekey, IntoThePastIsAContractViolation) {
  Scheduler sched;
  sched.schedule_at(5.0, [] {});
  EventHandle a = sched.schedule_at(10.0, [] {});
  sched.run_until(6.0);
  EXPECT_THROW(sched.rekey(a, 5.5), ContractViolation);
  EXPECT_TRUE(a.pending());
}

// --- taken sequence numbers ------------------------------------------------
// take_seq() reserves the number the next push would get; an event queued
// or moved under it later fires where one queued at take time would have.

TEST(SchedulerRekey, EventUnderATakenSeqFiresWhereItWasTaken) {
  Scheduler sched;
  std::vector<std::string> order;
  sched.post_at(2.0, [&] { order.push_back("a"); });
  const std::uint64_t seq = sched.take_seq();
  sched.post_at(2.0, [&] { order.push_back("b"); });
  sched.schedule_at(2.0, seq, [&] { order.push_back("taken"); });
  sched.post_at(2.0, [&] { order.push_back("c"); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "taken", "b", "c"}));
}

TEST(SchedulerRekey, RekeyUnderATakenSeqKeepsItsPlaceAmongTies) {
  // The move takes no new number: the event ties ahead of what was queued
  // at the new time after the number was taken.
  Scheduler sched;
  std::vector<std::string> order;
  EventHandle a = sched.schedule_at(1.0, [&] { order.push_back("a"); });
  const std::uint64_t seq = sched.take_seq();
  sched.post_at(3.0, [&] { order.push_back("b"); });
  EXPECT_TRUE(sched.rekey(a, 3.0, seq));
  EXPECT_EQ(sched.pending_events(), 2u);
  sched.run_all();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b"}));
  EXPECT_FALSE(sched.rekey(a, 4.0, sched.take_seq()));
}

TEST(SchedulerRekey, ASeqThatWasNeverTakenIsAContractViolation) {
  Scheduler sched;
  const std::uint64_t taken = sched.take_seq();
  EXPECT_THROW(sched.schedule_at(1.0, taken + 1, [] {}), ContractViolation);
  EventHandle a = sched.schedule_at(1.0, taken, [] {});
  EXPECT_THROW(sched.rekey(a, 2.0, taken + 5), ContractViolation);
  EXPECT_TRUE(a.pending());
  sched.run_all();
  EXPECT_EQ(sched.events_fired(), 1u);
}

/// One fired event: the script id of its action and the clock it saw.
using FireLog = std::vector<std::pair<int, TimePoint>>;

/// Runs one seeded script of schedule_at, post_at, gated posts, cancel,
/// close_gate, rekey and step on a scheduler. With `use_rekey` false every
/// rekey is expressed as cancel + schedule_at of the same action -- the
/// reference the in-place move must be indistinguishable from. Returns the
/// fire log plus, per script op, every answer the scheduler gave.
struct ScriptRun {
  FireLog fired;
  std::vector<int> answers;
  std::uint64_t moves = 0;  ///< rekeys that found their event pending
  std::uint64_t events_fired = 0;
  TimePoint end = 0.0;
};

ScriptRun run_script(std::uint64_t seed, bool use_rekey) {
  Rng rng(seed);
  Scheduler sched;
  ScriptRun run;
  std::vector<EventHandle> handles;
  std::vector<int> handle_ids;  ///< script id of each handle's action
  std::vector<Gate> gates{sched.open_gate()};
  int next_id = 0;
  auto action = [&](int id) {
    return [&run, &sched, id] { run.fired.emplace_back(id, sched.now()); };
  };
  // Coarse delays make same-time ties common.
  auto at = [&] {
    return sched.now() + 0.5 * static_cast<double>(rng.uniform_int(0, 6));
  };
  // A handle among the most recent few: those are the likeliest pending.
  auto recent = [&] {
    const auto n = static_cast<std::int64_t>(handles.size());
    return static_cast<std::size_t>(
        rng.uniform_int(std::max<std::int64_t>(0, n - 8), n - 1));
  };
  const int ops = static_cast<int>(rng.uniform_int(50, 400));
  for (int op = 0; op < ops; ++op) {
    const std::int64_t kind = rng.uniform_int(0, 11);
    if (kind <= 1 || (kind <= 5 && handles.empty())) {
      handle_ids.push_back(next_id);
      handles.push_back(sched.schedule_at(at(), action(next_id++)));
    } else if (kind <= 4) {  // rekey
      const std::size_t k = recent();
      const TimePoint when = at();
      bool moved = false;
      if (use_rekey) {
        moved = sched.rekey(handles[k], when);
      } else if (handles[k].pending()) {
        sched.cancel(handles[k]);
        handles[k] = sched.schedule_at(when, action(handle_ids[k]));
        moved = true;
      }
      run.answers.push_back(moved ? 1 : 0);
      if (moved) ++run.moves;
    } else if (kind == 5) {
      sched.cancel(handles[recent()]);
    } else if (kind == 6) {
      sched.post_at(at(), action(next_id++));
    } else if (kind == 7 || kind == 8) {
      const auto g = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(gates.size()) - 1));
      if (kind == 8) {
        sched.close_gate(gates[g]);
        gates.push_back(sched.open_gate());
      } else if (sched.gate_open(gates[g])) {
        sched.post_at(at(), gates[g], action(next_id++));
      }
    } else {
      run.answers.push_back(sched.step() ? 1 : 0);
    }
    for (const EventHandle& h : handles)
      run.answers.push_back(h.pending() ? 1 : 0);
  }
  sched.run_all();
  run.events_fired = sched.events_fired();
  run.end = sched.now();
  return run;
}

TEST(SchedulerRekey, MatchesCancelPlusScheduleOver200Seeds) {
  std::uint64_t moves = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const ScriptRun moved = run_script(seed, /*use_rekey=*/true);
    const ScriptRun reference = run_script(seed, /*use_rekey=*/false);
    ASSERT_EQ(moved.fired, reference.fired) << "seed " << seed;
    ASSERT_EQ(moved.answers, reference.answers) << "seed " << seed;
    ASSERT_EQ(moved.events_fired, reference.events_fired) << "seed " << seed;
    ASSERT_EQ(moved.events_fired, moved.fired.size()) << "seed " << seed;
    ASSERT_EQ(moved.end, reference.end) << "seed " << seed;
    moves += moved.moves;
  }
  EXPECT_GT(moves, 1000u);  // the scripts really exercise the move
}

}  // namespace
}  // namespace eona::sim
