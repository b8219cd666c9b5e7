// Differential property sweep for TransferManager's route classes and
// completion heap.
//
// TransferManager banks each route class's transfers in one pass, keeps one
// completion per class in its own heap and shows the scheduler one entry
// (see transfer.hpp). PerTransferReference below is the scheme it replaced:
// every transfer is banked on its own and holds its own scheduler event,
// moved in place with Scheduler::rekey whenever its rate changes. Its hook
// expands the network's class report into the per-flow report it stands
// for. Each of 200 seeded scripts runs on two worlds -- one per scheme, same
// topology -- stepped in lockstep, and every step must fire at the same time
// (compared bitwise) and every callback must name the same transfer in the
// same order; both worlds must end after the same number of fired events.
// Hand-written scripts (TransferClassTest) force the cases a class must get
// exactly right: completion ties, joins, reroutes and strandings.
//
// A script mixes bursts of starts at one instant with volumes from a small
// set on shared paths (so completions tie exactly and only sequence numbers
// order them), completion callbacks that start follow-ups, cancels, demand
// changes, reroutes, capacity changes, link down/up (strands and aborts)
// and network batches, plus posts placed exactly at a transfer's predicted
// completion time, so scheduler ties between a completion and an unrelated
// event are exercised as well.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "net/transfer.hpp"
#include "sim/rng.hpp"

namespace eona::net {
namespace {

/// Per-transfer completion events: one scheduler entry per transfer, moved
/// with a fresh sequence number on every re-prediction. Mirrors
/// TransferManager's banking, stranding sweep and callback order.
class PerTransferReference {
 public:
  PerTransferReference(sim::Scheduler& sched, Network& network)
      : sched_(&sched), network_(&network) {
    // The network reports a moved route class once; expanded here into
    // the per-flow report it stands for: every flow listed on its own whose
    // rate moved, plus every other elastic flow of a moved class, in
    // ascending flow-id order.
    network_->set_rates_changed_hook([this](const RateReport& report) {
      std::set<FlowId> listed;
      std::map<FlowId, BitsPerSecond> changes;
      for (const FlowRate& entry : report.flows) {
        listed.insert(entry.flow);
        if (entry.moved) changes.emplace(entry.flow, entry.rate);
      }
      for (const ClassRate& entry : report.classes)
        for (const auto& [flow, id] : transfer_of_)
          if (listed.count(flow) == 0 &&
              network_->demand(flow) == kElasticDemand &&
              network_->route(flow) == entry.route)
            changes.emplace(flow, entry.rate);
      for (const auto& [flow, rate] : changes) {
        auto it = transfer_of_.find(flow);
        if (it != transfer_of_.end()) reschedule(it->second, rate);
      }
    });
  }
  PerTransferReference(const PerTransferReference&) = delete;
  PerTransferReference& operator=(const PerTransferReference&) = delete;
  ~PerTransferReference() {
    network_->set_rates_changed_hook(nullptr);
    sched_->close_gate(sweep_gate_);
  }

  TransferId start(const Path& path, Bits volume,
                   TransferManager::CompletionCallback on_complete,
                   BitsPerSecond demand,
                   TransferManager::FailureCallback on_fail) {
    FlowId flow = network_->add_flow(path, demand);
    TransferId id(next_id_++);
    State& state = states_[id];
    state.flow = flow;
    state.remaining = volume;
    state.last_update = sched_->now();
    state.on_complete = std::move(on_complete);
    state.on_fail = std::move(on_fail);
    transfer_of_.emplace(flow, id);
    reschedule(id, network_->rate(flow));
    return id;
  }

  void cancel(TransferId id) {
    auto it = states_.find(id);
    if (it == states_.end()) return;
    FlowId flow = it->second.flow;
    release(it);
    network_->remove_flow(flow);
  }

  [[nodiscard]] FlowId flow(TransferId id) const {
    return states_.at(id).flow;
  }

  void set_demand(TransferId id, BitsPerSecond demand) {
    network_->set_demand(flow(id), demand);
  }

  /// When the transfer's queued completion is due, or a negative number
  /// when none is queued (starved or stranded).
  [[nodiscard]] TimePoint predicted(TransferId id) const {
    const State& state = states_.at(id);
    return state.completion.pending() ? state.when : -1.0;
  }

 private:
  struct State {
    FlowId flow;
    Bits remaining = 0.0;
    BitsPerSecond rate = 0.0;
    TimePoint last_update = 0.0;
    TimePoint when = 0.0;
    TransferManager::CompletionCallback on_complete;
    TransferManager::FailureCallback on_fail;
    sim::EventHandle completion;
  };
  using Iter = std::map<TransferId, State>::iterator;

  void release(Iter it) {
    sched_->cancel(it->second.completion);
    transfer_of_.erase(it->second.flow);
    states_.erase(it);
  }

  void reschedule(TransferId id, BitsPerSecond new_rate) {
    State& state = states_.at(id);
    Duration elapsed = sched_->now() - state.last_update;
    if (elapsed > 0.0 && state.rate > 0.0)
      state.remaining = std::max(state.remaining - state.rate * elapsed, 0.0);
    state.last_update = sched_->now();
    state.rate = new_rate;
    if (new_rate <= 0.0) {
      sched_->cancel(state.completion);
      if (!network_->path_up(network_->path(state.flow))) {
        stranded_.push_back(id);
        if (!sweep_gate_.valid()) {
          sweep_gate_ = sched_->open_gate();
          sched_->post_after(0.0, sweep_gate_, [this] { fail_stranded(); });
        }
      }
      return;
    }
    state.when = sched_->now() + state.remaining / new_rate;
    if (sched_->rekey(state.completion, state.when)) return;
    state.completion =
        sched_->schedule_at(state.when, [this, id] { complete(id); });
  }

  void fail_stranded() {
    sched_->close_gate(sweep_gate_);
    std::vector<TransferId> pending;
    pending.swap(stranded_);
    std::sort(pending.begin(), pending.end());
    pending.erase(std::unique(pending.begin(), pending.end()), pending.end());
    std::vector<std::pair<TransferId, TransferManager::FailureCallback>>
        failed;
    {
      Network::Batch batch(*network_);
      for (TransferId id : pending) {
        auto it = states_.find(id);
        if (it == states_.end()) continue;
        if (network_->path_up(network_->path(it->second.flow))) continue;
        TransferManager::FailureCallback on_fail =
            std::move(it->second.on_fail);
        FlowId flow = it->second.flow;
        release(it);
        network_->remove_flow(flow);
        failed.emplace_back(id, std::move(on_fail));
      }
    }
    for (auto& [id, on_fail] : failed)
      if (on_fail) on_fail(id, TransferManager::kLinkDownReason);
  }

  void complete(TransferId id) {
    auto it = states_.find(id);
    ASSERT_TRUE(it != states_.end());
    TransferManager::CompletionCallback callback =
        std::move(it->second.on_complete);
    FlowId flow = it->second.flow;
    release(it);
    network_->remove_flow(flow);
    if (callback) callback(id);
  }

  sim::Scheduler* sched_;
  Network* network_;
  std::map<TransferId, State> states_;
  std::unordered_map<FlowId, TransferId> transfer_of_;
  std::vector<TransferId> stranded_;
  sim::Gate sweep_gate_;
  TransferId::rep_type next_id_ = 0;
};

/// The shared topology: four nodes, five links, six paths (one crosses a
/// link twice), so components range from one shared bottleneck to several
/// overlapping ones.
struct Arena {
  Arena() {
    std::vector<NodeId> n;
    for (int i = 0; i < 4; ++i)
      n.push_back(topo.add_node(NodeKind::kRouter, "n" + std::to_string(i)));
    links = {topo.add_link(n[0], n[1], mbps(10), 0.0),
             topo.add_link(n[1], n[2], mbps(8), 0.0),
             topo.add_link(n[0], n[2], mbps(5), 0.0),
             topo.add_link(n[2], n[3], mbps(20), 0.0),
             topo.add_link(n[1], n[3], mbps(6), 0.0)};
    paths = {{links[0]},
             {links[0], links[1]},
             {links[2]},
             {links[1], links[3]},
             {links[0], links[1], links[3]},
             {links[4], links[4]}};
  }
  Topology topo;
  std::vector<LinkId> links;
  std::vector<Path> paths;
};

/// One scripted operation, drawn up front so both worlds run the same
/// script; `pick` selects among the live transfers at run time.
struct Op {
  enum Kind { kBurst, kCancel, kDemand, kReroute, kCapacity, kFlip, kPost };
  Kind kind;
  std::uint64_t pick = 0;
  int count = 1;
  std::size_t path = 0;
  Bits volume = 0.0;
  BitsPerSecond value = 0.0;
};

struct Step {
  TimePoint at;
  bool batched;
  std::vector<Op> ops;
};

std::vector<Step> draw_script(sim::Rng& rng, const Arena& arena) {
  const Bits volumes[] = {megabits(1), megabits(2), megabits(4)};
  auto draw_op = [&](bool first) {
    Op op;
    const auto roll = rng.uniform_int(0, 9);
    op.kind = first || roll < 3 ? Op::kBurst
              : roll == 3       ? Op::kCancel
              : roll == 4       ? Op::kDemand
              : roll == 5       ? Op::kReroute
              : roll == 6       ? Op::kCapacity
              : roll == 7       ? Op::kFlip
                                : Op::kPost;
    op.pick = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
    op.count = static_cast<int>(rng.uniform_int(1, 6));
    op.path = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(arena.paths.size()) - 1));
    op.volume = volumes[rng.uniform_int(0, 2)];
    op.value = rng.bernoulli(0.6) ? kElasticDemand
               : rng.bernoulli(0.2) ? 0.0
                                    : mbps(rng.uniform(0.5, 12));
    return op;
  };
  std::vector<Step> script;
  const auto steps = rng.uniform_int(10, 30);
  for (std::int64_t s = 0; s < steps; ++s) {
    Step step;
    // Quarter-second instants: several steps often share one.
    step.at = 0.25 * static_cast<double>(rng.uniform_int(0, 40));
    step.batched = rng.bernoulli(0.25);
    const auto ops = step.batched ? rng.uniform_int(2, 4) : 1;
    for (std::int64_t i = 0; i < ops; ++i) step.ops.push_back(draw_op(s == 0));
    script.push_back(std::move(step));
  }
  return script;
}

/// (what, transfer or op index, time bits) for every callback and post.
struct Record {
  char what;
  std::uint64_t who;
  std::uint64_t at;
  bool operator==(const Record&) const = default;
};

/// One world: a scheduler, a network over the shared topology and one of
/// the two transfer schemes, driven by the script.
template <typename Manager>
class World {
 public:
  World(const Arena& arena, const std::vector<Step>& script,
        std::vector<TimePoint>& post_times, bool leader)
      : arena_(arena),
        network_(arena.topo),
        transfers_(sched_, network_),
        post_times_(post_times),
        leader_(leader) {
    up_.assign(arena.topo.link_count(), 1);
    for (const Step& step : script)
      sched_.post_at(step.at, [this, &step] { run(step); });
  }

  sim::Scheduler& sched() { return sched_; }
  const std::vector<Record>& records() const { return records_; }

 private:
  void record(char what, std::uint64_t who) {
    records_.push_back(
        Record{what, who, std::bit_cast<std::uint64_t>(sched_.now())});
  }

  void run(const Step& step) {
    if (!step.batched) {
      apply(step.ops.front());
      return;
    }
    Network::Batch batch(network_);
    for (const Op& op : step.ops) apply(op);
  }

  void start(const Path& path, Bits volume, BitsPerSecond demand) {
    if (started_ >= kMaxStarts) return;
    ++started_;
    const TransferId id = transfers_.start(
        path, volume,
        [this, path, volume](TransferId done) {
          record('c', done.value());
          live_.erase(std::find(live_.begin(), live_.end(), done));
          // Every other completion starts a follow-up on its path, at once.
          if (done.value() % 2 == 0) start(path, volume, kElasticDemand);
        },
        demand,
        [this](TransferId failed, const char*) {
          record('f', failed.value());
          live_.erase(std::find(live_.begin(), live_.end(), failed));
        });
    live_.push_back(id);
  }

  void apply(const Op& op) {
    if (op.kind != Op::kBurst && op.kind != Op::kCapacity &&
        op.kind != Op::kFlip && live_.empty())
      return;
    const TransferId target =
        live_.empty() ? TransferId{} : live_[op.pick % live_.size()];
    switch (op.kind) {
      case Op::kBurst:
        for (int i = 0; i < op.count; ++i)
          start(arena_.paths[op.path], op.volume, kElasticDemand);
        break;
      case Op::kCancel:
        transfers_.cancel(target);
        live_.erase(std::find(live_.begin(), live_.end(), target));
        break;
      case Op::kDemand:
        // A zero demand on a flow without links is not allowed; every
        // path here has links, so any drawn value is valid.
        transfers_.set_demand(target, op.value);
        break;
      case Op::kReroute:
        network_.reroute(transfers_.flow(target), arena_.paths[op.path]);
        break;
      case Op::kCapacity: {
        const LinkId link = arena_.links[op.pick % arena_.links.size()];
        network_.set_link_capacity(
            link, op.value == kElasticDemand ? mbps(10) : op.value);
        break;
      }
      case Op::kFlip: {
        const std::size_t l = op.pick % arena_.links.size();
        up_[l] = !up_[l];
        network_.set_link_up(arena_.links[l], up_[l] != 0);
        break;
      }
      case Op::kPost: {
        // Lands exactly on a predicted completion: only the sequence
        // number orders the two events. The reference world (stepped
        // first) reads the prediction; the other reuses it.
        const std::size_t index = posts_made_++;
        if (leader_) post_times_[index] = prediction(target);
        const TimePoint when = post_times_[index];
        if (when >= sched_.now())
          sched_.post_at(when, [this, index] { record('p', index); });
        break;
      }
    }
  }

  TimePoint prediction(TransferId id) const {
    if constexpr (std::is_same_v<Manager, PerTransferReference>)
      return transfers_.predicted(id);
    else
      return -1.0;
  }

  static constexpr int kMaxStarts = 400;
  const Arena& arena_;
  sim::Scheduler sched_;
  Network network_;
  Manager transfers_;
  std::vector<TimePoint>& post_times_;
  bool leader_;
  std::vector<char> up_;
  std::vector<TransferId> live_;
  std::vector<Record> records_;
  std::size_t posts_made_ = 0;
  int started_ = 0;
};

/// Step a world per scheme through `script` in lockstep: every step must
/// fire at the same time (bitwise) and record the same callback, and both
/// worlds must end after the same number of events. `label` names the
/// script in failure messages; `records` receives the callbacks.
void run_lockstep(const Arena& arena, const std::vector<Step>& script,
                  const std::string& label, std::vector<Record>* records) {
  std::size_t posts = 0;
  for (const Step& step : script)
    for (const Op& op : step.ops) posts += op.kind == Op::kPost ? 1 : 0;
  std::vector<TimePoint> post_times(posts, -1.0);

  World<PerTransferReference> reference(arena, script, post_times, true);
  World<TransferManager> heap(arena, script, post_times, false);
  std::uint64_t steps = 0;
  for (;;) {
    const bool fired = reference.sched().step();
    ASSERT_EQ(heap.sched().step(), fired)
        << label << ": one world ran out of events first, at step " << steps;
    if (!fired) break;
    ++steps;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(heap.sched().now()),
              std::bit_cast<std::uint64_t>(reference.sched().now()))
        << label << ": step " << steps << " fired at " << heap.sched().now()
        << ", the reference at " << reference.sched().now();
    ASSERT_EQ(heap.records().size(), reference.records().size())
        << label << " step " << steps;
    if (!heap.records().empty()) {
      ASSERT_EQ(heap.records().back(), reference.records().back())
          << label << " step " << steps << ": '"
          << heap.records().back().what << "' " << heap.records().back().who
          << " vs '" << reference.records().back().what << "' "
          << reference.records().back().who;
    }
  }
  EXPECT_EQ(heap.sched().events_fired(), reference.sched().events_fired())
      << label;
  EXPECT_EQ(heap.records(), reference.records()) << label;
  ::testing::Test::RecordProperty("steps", static_cast<int>(steps));
  if (records != nullptr) *records = heap.records();
}

class TransferPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(TransferPropertyTest, MatchesPerTransferEvents) {
  const std::uint64_t seed = GetParam();
  sim::Rng rng(seed ^ 0x7EA5ull);
  Arena arena;
  run_lockstep(arena, draw_script(rng, arena), "seed " + std::to_string(seed),
               nullptr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransferPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 200));

// Hand-written scripts that force each case a route class must get exactly
// right, each checked in lockstep against the per-transfer events. Links
// and paths are Arena's: path 0 is {L0}, path 1 {L0, L1}, path 2 {L2}.

Op burst(std::size_t path, Bits volume, int count = 1) {
  Op op{Op::kBurst};
  op.path = path;
  op.volume = volume;
  op.count = count;
  return op;
}

/// `pick` indexes the live transfers in start order.
Op on_transfer(Op::Kind kind, std::uint64_t pick, std::size_t path = 0) {
  Op op{kind};
  op.pick = pick;
  op.path = path;
  return op;
}

Op capacity(std::size_t link, BitsPerSecond value) {
  Op op{Op::kCapacity};
  op.pick = link;
  op.value = value;
  return op;
}

Op flip(std::size_t link) {
  Op op{Op::kFlip};
  op.pick = link;
  return op;
}

/// One step at `at`: a batch when it holds more than one op.
Step at(TimePoint when, std::vector<Op> ops) {
  const bool batched = ops.size() > 1;
  return Step{when, batched, std::move(ops)};
}

/// True when transfer 0 completes, and transfer 1 right after it at the
/// same time.
bool ordered_tie(const std::vector<Record>& records) {
  for (std::size_t i = 0; i + 1 < records.size(); ++i)
    if (records[i].what == 'c' && records[i].who == 0)
      return records[i + 1].what == 'c' && records[i + 1].who == 1 &&
             records[i + 1].at == records[i].at;
  return false;
}

// (a) Two members of one class re-predicted in one report, whose remaining
// bits differ by one ulp but divide to the same completion time; the one
// with fewer bits has the larger flow id, so it sits first in the array
// but is not the front.
TEST(TransferClassTest, FrontBreaksAWhenTieByFlowIdAcrossOneUlp) {
  Arena arena;
  const BitsPerSecond capacity_after = mbps(3);
  const BitsPerSecond rate = saturation_level(capacity_after, 0.0, 2);
  Bits volume = 0.0;
  for (int i = 0; i < 10000 && volume == 0.0; ++i) {
    const Bits candidate = megabits(1) + 0.37 * i;
    const Bits more = std::nextafter(candidate, 2 * candidate);
    if (0.0 + more / rate == 0.0 + candidate / rate) volume = candidate;
  }
  ASSERT_GT(volume, 0.0);
  const std::vector<Step> script = {
      at(0.0, {burst(0, std::nextafter(volume, 2 * volume))}),
      at(0.0, {burst(0, volume)}),
      at(0.0, {capacity(0, capacity_after)})};
  std::vector<Record> records;
  run_lockstep(arena, script, "one-ulp tie", &records);
  EXPECT_TRUE(ordered_tie(records));
}

// (a') A `when` tie across two classes of one report: the class of the
// lowest flow id is listed first but holds the later of the tying flows,
// so only the flow id orders them.
TEST(TransferClassTest, CrossClassTieFollowsFlowIdNotReportOrder) {
  Arena arena;
  const std::vector<Step> script = {
      at(0.0, {burst(1, megabits(8))}),   // transfer 0, class {L0, L1}
      at(0.0, {burst(0, megabits(4))}),   // transfer 1, class {L0}
      at(0.0, {burst(1, megabits(4))}),   // transfer 2, class {L0, L1}
      at(0.0, {capacity(0, mbps(9))})};   // both classes, one report
  std::vector<Record> records;
  run_lockstep(arena, script, "cross-class tie", &records);
  ASSERT_GE(records.size(), 2u);
  EXPECT_EQ(records[0].who, 1u);
  EXPECT_EQ(records[1].who, 2u);
  EXPECT_EQ(records[0].at, records[1].at);
}

// (b) Joins into a class whose rate does not move: a batch that cancels one
// member and starts another on the same route, and a start on a
// zero-capacity link. Each joiner is banked on its own until the next
// class rate change banks it.
TEST(TransferClassTest, JoinerBanksOnItsOwnUntilTheClassMoves) {
  Arena arena;
  run_lockstep(arena,
               {at(0.0, {burst(0, megabits(4), 2)}),
                at(0.25, {on_transfer(Op::kCancel, 0), burst(0, megabits(2))}),
                at(0.5, {capacity(0, mbps(8))})},
               "swap", nullptr);
  run_lockstep(arena,
               {at(0.0, {capacity(2, 0.0)}),
                at(0.0, {burst(2, megabits(2))}),
                at(0.25, {burst(2, megabits(3))}),
                at(0.5, {capacity(2, mbps(5))})},
               "zero capacity", nullptr);
}

// (c) Reroutes between classes in mid-transfer: one that moves the rate,
// and one between two routes whose classes share the rate (the transfer
// changes class but is not re-predicted).
TEST(TransferClassTest, RerouteMovesATransferBetweenClasses) {
  Arena arena;
  run_lockstep(arena,
               {at(0.0, {burst(0, megabits(4), 2)}),
                at(0.0, {burst(2, megabits(4))}),
                at(0.5, {on_transfer(Op::kReroute, 0, 2)})},
               "reroute, rate moves", nullptr);
  run_lockstep(arena,
               {at(0.0, {burst(0, megabits(4), 2)}),
                at(0.5, {on_transfer(Op::kReroute, 0, 1)}),
                at(0.75, {capacity(0, mbps(6))})},
               "reroute, rate kept", nullptr);
}

// (d) A class stranded by a link going down: healed before the abort sweep
// runs (its members live on), and stranded for good in a report that also
// re-predicts another class whose flow ids straddle the stranded one (the
// report's numbers split around the sweep's).
TEST(TransferClassTest, StrandedClassHealsOrAborts) {
  Arena arena;
  std::vector<Record> records;
  run_lockstep(arena,
               {at(0.0, {burst(0, megabits(4), 2)}),
                at(0.0, {burst(1, megabits(4))}),
                at(0.5, {flip(0)}),
                at(0.5, {flip(0)})},
               "healed", &records);
  EXPECT_EQ(std::count_if(records.begin(), records.end(),
                          [](const Record& r) { return r.what == 'f'; }),
            0);
  run_lockstep(arena,
               {at(0.0, {burst(0, megabits(4))}),
                at(0.0, {burst(1, megabits(4))}),
                at(0.0, {burst(0, megabits(4))}),
                at(0.5, {flip(1)})},
               "aborted", &records);
  EXPECT_EQ(std::count_if(records.begin(), records.end(),
                          [](const Record& r) { return r.what == 'f'; }),
            1);
}

}  // namespace
}  // namespace eona::net
