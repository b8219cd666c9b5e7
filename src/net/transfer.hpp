// Volume-based transfers over the fluid network.
//
// A Transfer is "deliver V bits over this path, then call me back". Because
// rates change whenever any flow in the network changes, delivered volume
// must be integrated piecewise. The manager subscribes to the network's
// rates-changed hook: each transfer stores the rate it has been running at,
// and when the network reports that rate moved the manager banks the bits
// delivered under the old rate (rate x elapsed -- exact, since the rate was
// constant over the interval) and re-predicts that transfer's completion
// under the new one. Only the transfers whose rate actually changed pay
// anything, so one network mutation costs O(dirty component), not O(all
// active transfers). Applications (video chunk fetches, page loads) build
// on this.
//
// Completions: the manager keeps every pending completion in its own
// indexed min-heap on (when, seq) and holds exactly one scheduler entry,
// at that heap's front. Each re-prediction takes its sequence number from
// Scheduler::take_seq() at the point where a per-transfer event would have
// taken one, and the front entry is queued under the front member's own
// (when, seq). So the entry fires exactly where that member's own event
// would have -- ties with other events included -- and a report that moves
// k transfers costs k heap updates in a heap of the manager's transfers
// plus one scheduler move, instead of k moves in the sector's whole queue.
// A report that moves at least a quarter of the heap rewrites the keys in
// place and rebuilds the heap bottom-up.
//
// Storage is flat: transfer state lives in a slot vector with a free list
// and a flat SlotIndex maps transfer ids to slots (no per-transfer
// allocation at steady state). Each flow is added with its transfer's slot
// as the network's owner tag, so a rates-changed entry finds its transfer by
// index.
//
// Batching (Network::Batch): structural changes land immediately but rates
// stay stale until commit; the rates-changed hook fires once at commit, so
// coalescing a burst of starts, cancels, or demand changes costs one
// reschedule per flow whose rate moved, total. A transfer started inside a
// batch sees rate 0 until commit (its first real prediction happens in the
// commit's hook).
//
// Stranding: a transfer whose path crosses a down link cannot make progress
// (its share is exactly 0) and, unlike a merely congested flow, no rate
// change will revive it while the link stays dead. Such transfers ABORT
// with a distinct failure reason instead of silently starving: the manager
// collects them during rescheduling and tears them down in one zero-delay
// sweep (re-entrancy: rescheduling runs inside the network change hook,
// where the flow table must not be mutated). A stranded transfer whose flow
// was rerouted onto a live path before the sweep runs (e.g. by an InfP
// egress migration) survives untouched. The rates-changed report includes
// zero-rate flows on down paths even when the value 0 is unchanged, so a
// dead-path reroute is always observed.
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
        [this](const std::vector<RateChange>& changes) {
          on_rates_changed(changes);
        });
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
    // and skips it; the first prediction is the reschedule below.
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
    // Inside a batch the rate is still stale 0; the commit's rates-changed
    // report re-predicts. Unbatched, this reads the fresh post-solve rate.
    reschedule(slot, network_->rate(flow), /*ordered=*/true);
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
    const State& state = slots_[require_slot(id)];
    // The stored rate has been in effect since last_update (banking happens
    // exactly when the rate moves), so the un-banked progress is one product.
    Bits banked =
        state.remaining - state.rate * (sched_->now() - state.last_update);
    return TransferStatus{state.total, std::max(banked, 0.0), state.rate,
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

  // The fields the rates-changed hook reads come first.
  struct State {
    FlowId flow;
    Bits remaining = 0.0;
    BitsPerSecond rate = 0.0;  ///< allocation in effect since last_update
    TimePoint last_update = 0.0;
    std::uint32_t due_pos = kNotDue;  ///< index in due_ while one is pending
    bool alive = false;
    TransferId id;
    Bits total = 0.0;
    TimePoint started_at = 0.0;
    CompletionCallback on_complete;
    FailureCallback on_fail;
  };

  /// A predicted completion: the scheduler key its own event would have.
  struct Due {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;
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
    undue(slot, /*ordered=*/true);
    slot_of_.erase(state.id);
    state.on_complete = nullptr;
    state.on_fail = nullptr;
    state.alive = false;
    free_slots_.push_back(slot);
  }

  /// The heap's `moved` step: a transfer learns where its completion sits.
  [[nodiscard]] auto track() {
    return [this](const Due& due, std::size_t pos) {
      slots_[due.slot].due_pos = static_cast<std::uint32_t>(pos);
    };
  }

  /// React to the network's report of moved rates: bank progress under the
  /// outgoing rate and re-predict completion under the new one, for exactly
  /// the transfers affected.
  void on_rates_changed(const std::vector<RateChange>& changes) {
    // A report that moves a large share of the heap rewrites the keys in
    // place and rebuilds once; the order of the members (unique keys) is
    // the same either way.
    const bool ordered = 4 * changes.size() < due_.size();
    for (const RateChange& change : changes) {
      // The tag is the slot of the flow's transfer. Skip flows added without
      // one, released slots, and a slot whose transfer is still starting
      // (it does not hold this flow yet; start() predicts after the hook).
      if (change.tag >= slots_.size()) continue;
      const State& state = slots_[change.tag];
      if (!state.alive || state.flow != change.flow) continue;
      reschedule(change.tag, change.rate, ordered);
    }
    if (!ordered)
      for (std::size_t i = due_.size() / 2; i-- > 0;)
        sim::heap_sift_down(due_, i, due_[i], track());
    sync_entry();
  }

  /// Bank progress and re-predict one transfer's completion. Unordered
  /// updates leave due_ for the caller to rebuild.
  void reschedule(std::uint32_t slot, BitsPerSecond new_rate, bool ordered) {
    State& state = slots_[slot];
    // Bank bits delivered under the outgoing rate; it was constant since
    // last_update, so one multiply integrates the whole interval exactly.
    Duration elapsed = sched_->now() - state.last_update;
    if (elapsed > 0.0 && state.rate > 0.0)
      state.remaining = std::max(state.remaining - state.rate * elapsed, 0.0);
    state.last_update = sched_->now();
    state.rate = new_rate;
    if (new_rate <= 0.0) {
      undue(slot, ordered);
      // Congestion-starved transfers revive on the next rate change, but a
      // dead link on the path strands the flow for good: queue it for the
      // abort sweep. No teardown here -- rescheduling runs inside the
      // network change hook where the flow table must stay intact.
      if (!network_->path_up(network_->path(state.flow)))
        mark_stranded(state.id);
      return;
    }
    // Re-predict under the new rate, under the sequence number a queued
    // per-transfer event would take right here.
    const Due due{sched_->now() + state.remaining / new_rate,
                  sched_->take_seq(), slot};
    if (state.due_pos == kNotDue) {
      state.due_pos = static_cast<std::uint32_t>(due_.size());
      due_.push_back(due);
    }
    settle(state.due_pos, due, ordered);
  }

  /// Drop a slot's pending completion, if any. Unordered removal moves the
  /// last member into the hole without restoring heap order.
  void undue(std::uint32_t slot, bool ordered) {
    const std::uint32_t pos = slots_[slot].due_pos;
    if (pos == kNotDue) return;
    slots_[slot].due_pos = kNotDue;
    const Due last = due_.back();
    due_.pop_back();
    if (pos < due_.size()) settle(pos, last, ordered);
  }

  /// Put `due` at `pos`, then restore heap order unless `ordered` is off.
  void settle(std::size_t pos, Due due, bool ordered) {
    if (ordered) {
      sim::heap_rekey(due_, pos, due, track());
    } else {
      due_[pos] = due;
      track()(due, pos);
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
    complete(due_.front().slot);
    sync_entry();
  }

  void mark_stranded(TransferId id) {
    stranded_pending_.push_back(id);
    if (sweep_scheduled_) return;
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
  std::vector<Due> due_;     ///< pending completions, min-heap on (when, seq)
  sim::EventHandle entry_;   ///< the scheduler entry at due_'s front
  std::vector<TransferId> stranded_pending_;
  sim::Gate sweep_gate_;
  bool sweep_scheduled_ = false;
  TransferId::rep_type next_id_ = 0;
};

}  // namespace eona::net
