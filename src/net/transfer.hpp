// Volume-based transfers over the fluid network.
//
// A Transfer is "deliver V bits over this path, then call me back". Because
// rates change whenever any flow in the network changes, delivered volume
// must be integrated piecewise. The manager subscribes to the network's
// rates-changed hook: each transfer is banked under the rate it has been
// running at, and when the network reports that rate moved the manager banks
// the bits delivered under the old rate (rate x elapsed -- exact, since the
// rate was constant over the interval) and re-predicts the completion under
// the new one. Only the transfers whose rate actually changed pay anything.
// Applications (video chunk fetches, page loads) build on this.
//
// Route classes: max-min gives every elastic flow of one route the same rate
// bits (see network.hpp), and the network reports one ClassRate per route
// whose rate moved. The manager keeps each class's transfers in one
// contiguous array that shares one rate and one last banking time, so a
// class rate change costs one pass over k doubles and O(1) heap moves
// instead of k banked re-predictions, k heap sifts and k sequence numbers.
// The pass uses the same operands a per-transfer banking would --
// max(remaining - rate x elapsed, 0), one rate, one elapsed -- so every
// member keeps the same bits.
//
//  * Monotone order. The array is weakly sorted by remaining bits. Rounding
//    is monotone, so subtracting the same amount from every member and
//    clamping at 0 keeps it sorted, and so does the predicted completion,
//    last banking + remaining / rate.
//  * Sequence numbers. Each re-prediction takes its number from the
//    scheduler where a per-transfer event would have taken one: a report
//    that re-predicts K transfers takes its K numbers as one block, and
//    every re-predicted transfer gets the block's first. Within a report
//    the per-transfer numbers rise with flow id, so (seq, flow id) orders
//    any two re-predictions exactly as their own numbers would. When the
//    report also strands a transfer and posts the abort sweep, the block
//    splits around the sweep's number as the per-transfer order took it:
//    re-predictions of lower flow ids before it, the rest after.
//  * One completion entry per class, at its front: the least (when, seq,
//    flow id) member. The members whose `when` ties with the first one's
//    form a prefix of the array (it is sorted by `when`); the front is the
//    least (seq, flow id) of that prefix, which need not be the member
//    with the fewest remaining bits: two counts one ulp apart can divide
//    to one `when`.
//  * Loose members. A transfer that does not share its class's banking
//    state is banked on its own: a demand-capped transfer (it has no
//    class), and an elastic one whose latest re-prediction did not come
//    from a class pass of its own class -- a transfer listed on its own
//    (added, rerouted, re-demanded) while the class rate did not move, or
//    a listed one whose rate did not move at all. It keeps its own entry
//    and joins the array once its rate and last banking time equal the
//    array's, which the next class pass that banks it guarantees.
//
// Completions: the manager keeps the pending completions -- one per class
// with a rate, one per loose transfer -- in its own indexed min-heap on
// (when, seq, flow id) and holds exactly one scheduler entry, at that
// heap's front, queued under the front's (when, seq). Every other event's
// number lies outside the report blocks (the abort sweep's sits where it
// splits its report's block), so the entry fires exactly where the front
// transfer's own event would have -- ties with other events included.
//
// Storage is flat: transfer state lives in a slot vector with a free list
// and a flat SlotIndex maps transfer ids to slots (no per-transfer
// allocation at steady state). Each flow is added with its transfer's slot
// as the network's owner tag, so a listed flow finds its transfer by index;
// classes are indexed by the network's route index.
//
// Batching (Network::Batch): structural changes land immediately but rates
// stay stale until commit; the rates-changed hook fires once at commit, so
// coalescing a burst of starts, cancels, or demand changes costs one report.
// A transfer started inside a batch sees rate 0 until commit (its first real
// prediction happens in the commit's hook).
//
// Stranding: a transfer whose path crosses a down link cannot make progress
// (its share is exactly 0) and, unlike a merely congested flow, no rate
// change will revive it while the link stays dead. Such transfers ABORT
// with a distinct failure reason instead of silently starving: the manager
// collects them during rescheduling and tears them down in one zero-delay
// sweep (re-entrancy: rescheduling runs inside the network change hook,
// where the flow table must not be mutated). A stranded transfer whose flow
// was rerouted onto a live path before the sweep runs (e.g. by an InfP
// egress migration) survives untouched. The rates-changed report lists
// zero-rate classes and flows on down paths even when the value 0 is
// unchanged, so a dead-path reroute is always observed.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/ids.hpp"
#include "net/network.hpp"
#include "net/slot_index.hpp"
#include "sim/event_bus.hpp"
#include "sim/event_heap.hpp"
#include "sim/events.hpp"
#include "sim/scheduler.hpp"

namespace eona::net {

struct TransferTag {};
/// Identifier of one in-flight transfer.
using TransferId = StrongId<TransferTag, std::uint64_t>;

/// Progress snapshot of an in-flight transfer.
struct TransferStatus {
  Bits total = 0.0;
  Bits remaining = 0.0;
  BitsPerSecond current_rate = 0.0;
  TimePoint started_at = 0.0;
};

/// Owns all volume transfers riding on one Network + Scheduler pair.
///
/// All network mutations made by applications and controllers can go through
/// the network directly; the manager keeps itself consistent via the
/// rates-changed hook. Exactly one TransferManager may be attached to a
/// Network.
class TransferManager {
 public:
  using CompletionCallback = std::function<void(TransferId)>;
  /// Fired (once, instead of the completion callback) when the data plane
  /// aborts a transfer; `reason` is a static literal such as "link-down".
  using FailureCallback = std::function<void(TransferId, const char* reason)>;

  /// Failure reason for transfers stranded by a dead link on their path.
  static constexpr const char* kLinkDownReason = "link-down";

  TransferManager(sim::Scheduler& sched, Network& network)
      : sched_(&sched), network_(&network) {
    network_->set_rates_changed_hook(
        [this](const RateReport& report) { on_rates_changed(report); });
  }

  TransferManager(const TransferManager&) = delete;
  TransferManager& operator=(const TransferManager&) = delete;

  ~TransferManager() {
    network_->set_rates_changed_hook(nullptr);
    sched_->cancel(entry_);
    sched_->close_gate(sweep_gate_);
  }

  /// Emit TransferAbortedEvent on `bus` when transfers strand and abort.
  /// Pass nullptr to detach. Purely observational.
  void set_event_bus(sim::EventBus* bus) { bus_ = bus; }

  /// Start delivering `volume` bits along `path`, at most `demand` bps.
  /// `on_complete` fires (once) when the last bit lands; `on_fail` fires
  /// (once, instead) if the data plane aborts the transfer -- a transfer
  /// started over an already-dead link fails on the next scheduler step.
  TransferId start(const Path& path, Bits volume,
                   CompletionCallback on_complete,
                   BitsPerSecond demand = kElasticDemand,
                   FailureCallback on_fail = nullptr) {
    EONA_EXPECTS(volume > 0.0);
    // Tag the flow with the slot this transfer is about to take. The add's
    // own rates-changed report finds that slot released (or not yet there)
    // and skips it; the first prediction is the reprice below.
    const std::uint32_t tag = next_slot();
    FlowId flow = network_->add_flow(path, demand, tag);
    TransferId id(next_id_++);
    std::uint32_t slot = alloc_slot();
    EONA_ASSERT(slot == tag);  // the hook neither takes nor frees slots
    State& state = slots_[slot];
    state.id = id;
    state.flow = flow;
    state.total = volume;
    state.remaining = volume;
    state.rate = 0.0;
    state.started_at = sched_->now();
    state.last_update = sched_->now();
    state.on_complete = std::move(on_complete);
    state.on_fail = std::move(on_fail);
    slot_of_.insert(id, slot);
    join(slot, demand == kElasticDemand ? network_->route(flow) : kNoClass);
    // Inside a batch the rate is still stale 0; the commit's report
    // re-predicts. Unbatched, this reads the fresh post-solve rate, under
    // the sequence number a per-transfer event would take right here.
    const BitsPerSecond rate = network_->rate(flow);
    reprice(slot, rate, rate > 0.0 ? sched_->take_seq() : 0);
    settle(slot);
    sync_entry();
    return id;
  }

  /// Abort a transfer; its callback never fires. Idempotent for transfers
  /// that already completed (NotFoundError for never-existed ids is
  /// deliberately NOT thrown to keep cancellation races harmless).
  void cancel(TransferId id) {
    const std::optional<std::uint32_t> slot = slot_of_.find(id);
    if (!slot) return;
    FlowId flow = slots_[*slot].flow;
    release_slot(*slot);
    network_->remove_flow(flow);  // triggers hook; transfer already gone
    sync_entry();
  }

  [[nodiscard]] bool active(TransferId id) const {
    return slot_of_.contains(id);
  }

  [[nodiscard]] TransferStatus status(TransferId id) const {
    const std::uint32_t slot = require_slot(id);
    const State& state = slots_[slot];
    Bits remaining = state.remaining;
    BitsPerSecond rate = state.rate;
    TimePoint last_update = state.last_update;
    if (state.in_array) {
      const Class& cls = classes_[state.route];
      remaining = cls.remaining[index_of(cls, slot)];
      rate = cls.rate;
      last_update = cls.last_update;
    }
    // The rate has been in effect since last_update (banking happens
    // exactly when the rate moves), so the un-banked progress is one
    // product.
    Bits banked = remaining - rate * (sched_->now() - last_update);
    return TransferStatus{state.total, std::max(banked, 0.0), rate,
                          state.started_at};
  }

  /// The network flow carrying a transfer (lets controllers reroute it).
  [[nodiscard]] FlowId flow(TransferId id) const {
    return slots_[require_slot(id)].flow;
  }

  /// Adjust the demand ceiling of a transfer (e.g. pacing a chunk fetch).
  void set_demand(TransferId id, BitsPerSecond demand) {
    network_->set_demand(flow(id), demand);
  }

  [[nodiscard]] std::size_t active_count() const { return slot_of_.size(); }

 private:
  static constexpr std::uint32_t kNotDue = 0xffffffffu;
  /// Due::owner bit of a class's entry; the other bits are its route.
  static constexpr std::uint32_t kClassDue = 0x80000000u;

  struct State {
    FlowId flow;
    std::uint32_t route = kNoClass;  ///< its class while elastic
    bool in_array = false;  ///< banked with its class (see Class)
    bool alive = false;
    // Own banking state, read while not in its class's array.
    Bits remaining = 0.0;
    BitsPerSecond rate = 0.0;  ///< allocation in effect since last_update
    TimePoint last_update = 0.0;
    std::uint64_t seq = 0;  ///< of its latest re-prediction
    std::uint32_t due_pos = kNotDue;  ///< index in due_ while one is pending
    std::uint64_t listed = 0;  ///< the last report that listed it on its own
    TransferId id;
    Bits total = 0.0;
    TimePoint started_at = 0.0;
    CompletionCallback on_complete;
    FailureCallback on_fail;
  };

  /// An array member's sequence number and transfer slot.
  struct Member {
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// The elastic transfers of one route. The array members (remaining +
  /// members, index-aligned, weakly ascending in remaining bits) share
  /// `rate` and `last_update`; the loose ones are banked on their own.
  struct Class {
    BitsPerSecond rate = 0.0;
    TimePoint last_update = 0.0;
    std::vector<Bits> remaining;
    std::vector<Member> members;
    std::vector<std::uint32_t> loose;  ///< slots, in no particular order
    std::uint32_t due_pos = kNotDue;
  };

  /// A predicted completion: the scheduler key of the transfer's own event,
  /// with the flow id to order re-predictions that share a report's number.
  struct Due {
    TimePoint when;
    std::uint64_t seq;
    FlowId flow;
    std::uint32_t owner;  ///< transfer slot, or kClassDue | route
    /// The heap's order (found by sim::heap_* through argument lookup).
    friend bool fires_before(const Due& a, const Due& b) {
      if (a.when != b.when) return a.when < b.when;
      if (a.seq != b.seq) return a.seq < b.seq;
      return a.flow < b.flow;
    }
  };

  [[nodiscard]] std::uint32_t require_slot(TransferId id) const {
    const std::optional<std::uint32_t> slot = slot_of_.find(id);
    if (!slot) throw NotFoundError("transfer " + std::to_string(id.value()));
    return *slot;
  }

  /// The slot the next alloc_slot() hands out.
  [[nodiscard]] std::uint32_t next_slot() const {
    return free_slots_.empty() ? static_cast<std::uint32_t>(slots_.size())
                               : free_slots_.back();
  }

  std::uint32_t alloc_slot() {
    std::uint32_t slot = next_slot();
    if (!free_slots_.empty())
      free_slots_.pop_back();
    else
      slots_.emplace_back();
    slots_[slot].alive = true;
    return slot;
  }

  /// Detach a slot from the id index and recycle it. Does NOT touch the
  /// network flow (callers differ) but does revoke the pending completion.
  void release_slot(std::uint32_t slot) {
    State& state = slots_[slot];
    leave(slot, /*own_entry=*/false);
    unqueue(slot);
    slot_of_.erase(state.id);
    state.on_complete = nullptr;
    state.on_fail = nullptr;
    state.alive = false;
    free_slots_.push_back(slot);
  }

  /// True when `tag` names the live transfer that holds `flow` (not a flow
  /// added without a tag, a released slot, or a transfer still starting).
  [[nodiscard]] bool owns(std::uint32_t tag, FlowId flow) const {
    return tag < slots_.size() && slots_[tag].alive &&
           slots_[tag].flow == flow;
  }

  [[nodiscard]] static std::size_t index_of(const Class& cls,
                                            std::uint32_t slot) {
    std::size_t i = 0;
    while (cls.members[i].slot != slot) ++i;
    return i;
  }

  /// Put an elastic transfer in `route`'s class, loose; kNoClass leaves it
  /// classless (capped).
  void join(std::uint32_t slot, std::uint32_t route) {
    slots_[slot].route = route;
    if (route == kNoClass) return;
    if (route >= classes_.size()) classes_.resize(route + 1);
    classes_[route].loose.push_back(slot);
  }

  /// Take a transfer out of its class. An array member takes the class's
  /// banking state as its own and, with `own_entry`, its own completion
  /// entry under the key it had.
  void leave(std::uint32_t slot, bool own_entry) {
    State& state = slots_[slot];
    if (state.route == kNoClass) return;
    Class& cls = classes_[state.route];
    if (!state.in_array) {
      drop_loose(cls, slot);
    } else {
      const std::size_t i = index_of(cls, slot);
      state.remaining = cls.remaining[i];
      state.seq = cls.members[i].seq;
      state.rate = cls.rate;
      state.last_update = cls.last_update;
      const auto at = static_cast<std::ptrdiff_t>(i);
      cls.remaining.erase(cls.remaining.begin() + at);
      cls.members.erase(cls.members.begin() + at);
      state.in_array = false;
      show_front(state.route);
      if (own_entry) queue_own(slot);
    }
    state.route = kNoClass;
  }

  static void drop_loose(Class& cls, std::uint32_t slot) {
    auto it = std::find(cls.loose.begin(), cls.loose.end(), slot);
    *it = cls.loose.back();
    cls.loose.pop_back();
  }

  /// Place a transfer banked on its own: in its class's array when it fits
  /// there (see merge), else under its own completion entry.
  void settle(std::uint32_t slot) {
    if (merge(slot)) {
      show_front(slots_[slot].route);
      return;
    }
    queue_own(slot);
  }

  void queue_own(std::uint32_t slot) {
    const State& state = slots_[slot];
    if (state.rate > 0.0)
      queue(Due{state.last_update + state.remaining / state.rate, state.seq,
                state.flow, slot});
  }

  /// Move a loose elastic transfer into its class's array when it is banked
  /// exactly as the array is (same rate, same last banking); an empty array
  /// takes its state. Returns whether it moved; the caller shows the
  /// class's new front.
  bool merge(std::uint32_t slot) {
    State& state = slots_[slot];
    if (state.route == kNoClass || state.in_array) return false;
    Class& cls = classes_[state.route];
    if (!cls.members.empty() &&
        (state.rate != cls.rate || state.last_update != cls.last_update))
      return false;
    cls.rate = state.rate;
    cls.last_update = state.last_update;
    unqueue(slot);
    drop_loose(cls, slot);
    const auto at = std::upper_bound(cls.remaining.begin(),
                                     cls.remaining.end(), state.remaining) -
                    cls.remaining.begin();
    cls.remaining.insert(cls.remaining.begin() + at, state.remaining);
    cls.members.insert(cls.members.begin() + at, Member{state.seq, slot});
    state.in_array = true;
    return true;
  }

  /// The heap's `moved` step: an owner learns where its completion sits.
  [[nodiscard]] std::uint32_t& due_pos(std::uint32_t owner) {
    return (owner & kClassDue) != 0 ? classes_[owner & ~kClassDue].due_pos
                                    : slots_[owner].due_pos;
  }
  [[nodiscard]] auto track() {
    return [this](const Due& due, std::size_t pos) {
      due_pos(due.owner) = static_cast<std::uint32_t>(pos);
    };
  }

  /// Queue or move the owner's completion entry.
  void queue(const Due& due) {
    std::uint32_t pos = due_pos(due.owner);
    if (pos == kNotDue) {
      pos = static_cast<std::uint32_t>(due_.size());
      due_.push_back(due);
    }
    sim::heap_rekey(due_, pos, due, track());
  }

  /// Drop the owner's completion entry, if any.
  void unqueue(std::uint32_t owner) {
    const std::uint32_t pos = due_pos(owner);
    if (pos == kNotDue) return;
    due_pos(owner) = kNotDue;
    const Due last = due_.back();
    due_.pop_back();
    if (pos < due_.size()) sim::heap_rekey(due_, pos, last, track());
  }

  /// The member due first: the least (when, seq, flow id). The array is
  /// sorted by `when`, so the members tying with the first on `when` form
  /// a prefix, and the front is that prefix's least (seq, flow id).
  [[nodiscard]] std::size_t front(const Class& cls) const {
    auto when_of = [&cls](std::size_t i) {
      return cls.last_update + cls.remaining[i] / cls.rate;
    };
    const TimePoint when = when_of(0);
    std::size_t best = 0;
    for (std::size_t i = 1; i < cls.members.size() && when_of(i) == when;
         ++i) {
      const Member& a = cls.members[i];
      const Member& b = cls.members[best];
      if (a.seq < b.seq ||
          (a.seq == b.seq && slots_[a.slot].flow < slots_[b.slot].flow))
        best = i;
    }
    return best;
  }

  /// Queue, move or drop a class's completion entry at its front member.
  void show_front(std::uint32_t route) {
    const Class& cls = classes_[route];
    if (cls.members.empty() || cls.rate <= 0.0) {
      unqueue(kClassDue | route);
      return;
    }
    const std::size_t i = front(cls);
    queue(Due{cls.last_update + cls.remaining[i] / cls.rate,
              cls.members[i].seq, slots_[cls.members[i].slot].flow,
              kClassDue | route});
  }

  /// React to the network's report of moved rates: bank progress under the
  /// outgoing rate and re-predict completion under the new one, for exactly
  /// the transfers a per-flow report would have named.
  void on_rates_changed(const RateReport& report) {
    const std::uint64_t listing = ++reports_;
    // A transfer listed on its own is banked on its own from here on, in
    // the class the report names for it.
    for (const FlowRate& entry : report.flows) {
      if (!owns(entry.tag, entry.flow)) continue;
      State& state = slots_[entry.tag];
      state.listed = listing;
      if (state.in_array || state.route != entry.route) {
        leave(entry.tag, /*own_entry=*/true);
        join(entry.tag, entry.route);
      }
    }
    // Count the numbers the re-predictions take and find the first
    // transfer, in flow-id order, that the report strands.
    std::uint64_t takers = 0;
    FlowId stranded;  // invalid: none
    for (const FlowRate& entry : report.flows) {
      if (!owns(entry.tag, entry.flow) || !entry.moved) continue;
      if (entry.rate > 0.0)
        ++takers;
      else if (!network_->path_up(network_->path(entry.flow)))
        stranded = std::min(stranded, entry.flow);
    }
    for (const ClassRate& entry : report.classes) {
      if (entry.route >= classes_.size()) continue;
      if (entry.rate > 0.0) {
        takers += count_in_class(entry.route, listing, FlowId{});
      } else if (!network_->path_up(network_->route_path(entry.route))) {
        for_each_in_class(entry.route, listing, [&](std::uint32_t slot) {
          stranded = std::min(stranded, slots_[slot].flow);
        });
      }
    }
    // One block of numbers. A report that strands a transfer while no sweep
    // is queued posts the sweep where a per-transfer hook took its number:
    // after the re-predictions of lower flow ids, before the others.
    FlowId split;  // invalid: every flow id is below it
    std::uint64_t below = takers;
    if (stranded.valid() && !sweep_scheduled_) {
      split = stranded;
      below = count_below(report, listing, split);
    }
    const std::uint64_t lo = sched_->take_seqs(below);
    if (split.valid()) post_sweep();
    const std::uint64_t hi = sched_->take_seqs(takers - below);
    auto seq_of = [&](FlowId flow) { return flow < split ? lo : hi; };

    for (const FlowRate& entry : report.flows)
      if (owns(entry.tag, entry.flow) && entry.moved)
        reprice(entry.tag, entry.rate, seq_of(entry.flow));
    for (const ClassRate& entry : report.classes) {
      if (entry.route >= classes_.size()) continue;
      bank_class(entry.route, entry.rate, lo, hi, split);
      for (std::uint32_t slot : classes_[entry.route].loose)
        if (slots_[slot].listed != listing)
          reprice(slot, entry.rate, seq_of(slots_[slot].flow));
    }

    // Place the new predictions: transfers now banked like their class's
    // array join it, and every class touched shows its front.
    for (const FlowRate& entry : report.flows)
      if (owns(entry.tag, entry.flow)) settle(entry.tag);
    for (const ClassRate& entry : report.classes) {
      if (entry.route >= classes_.size()) continue;
      std::vector<std::uint32_t>& loose = classes_[entry.route].loose;
      for (std::size_t i = 0; i < loose.size();) {
        if (merge(loose[i])) continue;  // it moved the last one to i
        queue_own(loose[i]);
        ++i;
      }
      show_front(entry.route);
    }
    sync_entry();
  }

  /// Visit the transfers a class pass of `route` re-predicts: the array
  /// and the loose members the report did not list on their own.
  template <typename Visit>
  void for_each_in_class(std::uint32_t route, std::uint64_t listing,
                         Visit visit) const {
    const Class& cls = classes_[route];
    for (const Member& member : cls.members) visit(member.slot);
    for (std::uint32_t slot : cls.loose)
      if (slots_[slot].listed != listing) visit(slot);
  }

  /// How many of them have a flow id below `split` (all when invalid).
  [[nodiscard]] std::uint64_t count_in_class(std::uint32_t route,
                                             std::uint64_t listing,
                                             FlowId split) const {
    if (!split.valid()) {
      std::uint64_t count = classes_[route].members.size();
      for (std::uint32_t slot : classes_[route].loose)
        count += slots_[slot].listed != listing ? 1 : 0;
      return count;
    }
    std::uint64_t count = 0;
    for_each_in_class(route, listing, [&](std::uint32_t slot) {
      count += slots_[slot].flow < split ? 1 : 0;
    });
    return count;
  }

  /// How many of the report's re-predictions with a rate have a flow id
  /// below `split`.
  [[nodiscard]] std::uint64_t count_below(const RateReport& report,
                                          std::uint64_t listing,
                                          FlowId split) const {
    std::uint64_t count = 0;
    for (const FlowRate& entry : report.flows)
      if (owns(entry.tag, entry.flow) && entry.moved && entry.rate > 0.0 &&
          entry.flow < split)
        ++count;
    for (const ClassRate& entry : report.classes)
      if (entry.route < classes_.size() && entry.rate > 0.0)
        count += count_in_class(entry.route, listing, split);
    return count;
  }

  /// Bank a class's array under its outgoing rate in one pass and re-predict
  /// it under `rate`: every member takes the number of its flow's side of
  /// `split` (lo for all when `split` is invalid).
  void bank_class(std::uint32_t route, BitsPerSecond rate, std::uint64_t lo,
                  std::uint64_t hi, FlowId split) {
    Class& cls = classes_[route];
    const Duration elapsed = sched_->now() - cls.last_update;
    if (elapsed > 0.0 && cls.rate > 0.0)
      for (Bits& left : cls.remaining)
        left = std::max(left - cls.rate * elapsed, 0.0);
    cls.last_update = sched_->now();
    cls.rate = rate;
    if (rate > 0.0) {
      if (!split.valid()) {
        for (Member& member : cls.members) member.seq = lo;
      } else {
        for (Member& member : cls.members)
          member.seq = slots_[member.slot].flow < split ? lo : hi;
      }
      return;
    }
    if (!network_->path_up(network_->route_path(route)))
      for (const Member& member : cls.members)
        mark_stranded(slots_[member.slot].id);
  }

  /// Bank progress and re-predict one transfer banked on its own, under
  /// sequence number `seq` when the rate is positive; settle() or
  /// queue_own() then places the prediction.
  void reprice(std::uint32_t slot, BitsPerSecond new_rate, std::uint64_t seq) {
    State& state = slots_[slot];
    // Bank bits delivered under the outgoing rate; it was constant since
    // last_update, so one multiply integrates the whole interval exactly.
    Duration elapsed = sched_->now() - state.last_update;
    if (elapsed > 0.0 && state.rate > 0.0)
      state.remaining = std::max(state.remaining - state.rate * elapsed, 0.0);
    state.last_update = sched_->now();
    state.rate = new_rate;
    state.seq = seq;
    if (new_rate <= 0.0) {
      unqueue(slot);
      // Congestion-starved transfers revive on the next rate change, but a
      // dead link on the path strands the flow for good: queue it for the
      // abort sweep. No teardown here -- rescheduling runs inside the
      // network change hook where the flow table must stay intact.
      if (!network_->path_up(network_->path(state.flow)))
        mark_stranded(state.id);
    }
  }

  /// Show the scheduler the heap's front under its own key: queue, move or
  /// cancel the one entry. Takes no sequence number.
  void sync_entry() {
    if (due_.empty()) {
      sched_->cancel(entry_);
      return;
    }
    const Due& front = due_.front();
    if (sched_->rekey(entry_, front.when, front.seq)) return;
    entry_ = sched_->schedule_at(front.when, front.seq, [this] { on_due(); });
  }

  /// The entry fired: the front completion is due.
  void on_due() {
    std::uint32_t slot = due_.front().owner;
    if ((slot & kClassDue) != 0) {
      const Class& cls = classes_[slot & ~kClassDue];
      slot = cls.members[front(cls)].slot;
    }
    complete(slot);
    sync_entry();
  }

  void mark_stranded(TransferId id) {
    stranded_pending_.push_back(id);
    if (!sweep_scheduled_) post_sweep();
  }

  void post_sweep() {
    sweep_scheduled_ = true;
    sweep_gate_ = sched_->open_gate();
    sched_->post_after(0.0, sweep_gate_, [this] { fail_stranded(); });
  }

  /// Abort every still-stranded queued transfer: tear the flows down in one
  /// batch, publish TransferAbortedEvent per abort, then run the failure
  /// callbacks (which may freely start replacement transfers). Ascending
  /// transfer-id order -- deterministic.
  void fail_stranded() {
    sweep_scheduled_ = false;
    sched_->close_gate(sweep_gate_);
    std::vector<TransferId> pending;
    pending.swap(stranded_pending_);
    std::sort(pending.begin(), pending.end());
    pending.erase(std::unique(pending.begin(), pending.end()),
                  pending.end());
    std::vector<std::pair<TransferId, FailureCallback>> failed;
    {
      Network::Batch batch(*network_);
      for (TransferId id : pending) {
        const std::optional<std::uint32_t> slot = slot_of_.find(id);
        if (!slot) continue;  // completed or cancelled
        State& state = slots_[*slot];
        // Healed or rerouted onto a live path since queueing: lives on.
        if (network_->path_up(network_->path(state.flow))) continue;
        FailureCallback on_fail = std::move(state.on_fail);
        FlowId flow = state.flow;
        release_slot(*slot);
        network_->remove_flow(flow);
        if (bus_ != nullptr)
          bus_->publish(sim::TransferAbortedEvent{
              sched_->now(), id.value(), flow, kLinkDownReason});
        failed.emplace_back(id, std::move(on_fail));
      }
    }
    sync_entry();
    for (auto& [id, on_fail] : failed)
      if (on_fail) on_fail(id, kLinkDownReason);
  }

  void complete(std::uint32_t slot) {
    State& state = slots_[slot];
    // Detach, then notify (callback may start new transfers or mutate the
    // network freely).
    const TransferId id = state.id;
    CompletionCallback callback = std::move(state.on_complete);
    FlowId flow = state.flow;
    release_slot(slot);
    network_->remove_flow(flow);
    if (callback) callback(id);
  }

  sim::Scheduler* sched_;
  Network* network_;
  sim::EventBus* bus_ = nullptr;
  // Flat slot storage with a free list; the index maps ids to slots. Bulk
  // operations iterate id lists sorted numerically, never the index, so
  // iteration order stays deterministic.
  std::vector<State> slots_;
  std::vector<std::uint32_t> free_slots_;
  SlotIndex<TransferId> slot_of_;
  std::vector<Class> classes_;  ///< by the network's route index
  std::vector<Due> due_;  ///< pending completions, min-heap (fires_before)
  sim::EventHandle entry_;   ///< the scheduler entry at due_'s front
  std::uint64_t reports_ = 0;  ///< rates-changed reports seen
  std::vector<TransferId> stranded_pending_;
  sim::Gate sweep_gate_;
  bool sweep_scheduled_ = false;
  TransferId::rep_type next_id_ = 0;
};

}  // namespace eona::net
