// Seeded, declarative fault injection for the infrastructure plane.
//
// A FaultPlan is a list of timestamped actions -- link down/up, capacity
// brown-outs, CDN server crash/restart -- either built programmatically or
// parsed from the compact text form the lab CLI accepts:
//
//     kind:target@t[:factor][;kind:target@t[:factor]...]
//
//     down:X@B@120            take link "X@B" down at t=120
//     up:X@B@180              bring it back at t=180
//     brownout:X@B@60:0.25    link keeps 25% of configured capacity
//     crash:cdn-X/0@90        crash server #0 of CDN "cdn-X" (offline +
//                             egress link down)
//     restart:cdn-X/0@150     undo the crash
//     crash:exchange@90       the broker itself dies: epoch bump, every
//                             bearer token fenced, all legs torn down
//     restart:exchange@150    broker back up; tenants reattach via their
//                             ExchangeEndpoint backoff handshake
//
// Malformed clauses are rejected with the offending token AND its byte
// position in the plan string -- nothing is silently skipped.
//
// Link targets are topology link *names* (which may themselves contain '@';
// the parser splits on the last '@' of each clause). Several actions with
// the same timestamp -- e.g. the two directions of a partition -- execute as
// ONE scheduler event and ONE Network batch, so the data plane sees a
// single consistent mutation and re-solves rates once.
//
// The ChaosEngine turns a plan into scheduler posts against a live World:
// mutations go through net::Network (set_link_up / set_link_capacity) and
// app::Cdn (set_online), and every executed action is published as a typed
// FaultEvent on the bus -- which is how EONA-mode controllers learn of the
// outage instantly while baseline controllers must detect it from their
// windowed link statistics.
//
// Determinism: a plan carries no randomness of its own; execution order
// within a timestamp group is the plan's textual order. Identical plan +
// identical world seed => byte-identical traces (pinned by
// tests/chaos_failover_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "app/cdn.hpp"
#include "common/ids.hpp"
#include "common/units.hpp"
#include "net/network.hpp"
#include "sim/event_bus.hpp"
#include "sim/events.hpp"
#include "sim/scheduler.hpp"

namespace eona::core {
class Exchange;
}  // namespace eona::core

namespace eona::sim {

/// One declarative infrastructure fault; see file header for the text form.
struct FaultAction {
  enum class Kind {
    kLinkDown,
    kLinkUp,
    kBrownout,
    kServerCrash,
    kServerRestart,
    kExchangeCrash,    ///< the broker dies (parsed from crash:exchange@t)
    kExchangeRestart,  ///< the broker returns (restart:exchange@t)
  };

  Kind kind = Kind::kLinkDown;
  TimePoint at = 0.0;
  /// Topology link name, "cdnname/serverindex" for the server kinds, or the
  /// literal "exchange" for broker faults.
  std::string target;
  /// Brownout only: remaining fraction of configured capacity, in (0, 1].
  double factor = 1.0;
};

/// An ordered list of faults (the declarative side of the chaos engine).
struct FaultPlan {
  std::vector<FaultAction> actions;

  /// Parse the compact text form; throws ConfigError on malformed input.
  /// An empty spec yields an empty plan.
  static FaultPlan parse(const std::string& spec);

  [[nodiscard]] bool empty() const { return actions.empty(); }
};

/// Executes a FaultPlan against a live world; see file header.
class ChaosEngine {
 public:
  /// `cdns` may be null when the plan contains no server actions.
  ChaosEngine(Scheduler& sched, EventBus& bus, net::Network& network,
              const app::CdnDirectory* cdns = nullptr);

  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;
  ~ChaosEngine();

  /// Attach the brokered exchange so `crash:exchange` / `restart:exchange`
  /// actions have a target. Plans without broker faults never need this.
  void set_exchange(core::Exchange* exchange) { exchange_ = exchange; }

  /// Resolve every target against the current topology/directory (throws
  /// ConfigError on unknown names) and post the plan's actions. Same-time
  /// actions are grouped into one scheduler event.
  void schedule(const FaultPlan& plan);

  /// Faults executed so far.
  [[nodiscard]] std::uint64_t fault_count() const { return fault_count_; }

 private:
  struct Resolved {
    FaultAction::Kind kind;
    LinkId link;          ///< the mutated link (server kinds: the egress)
    double factor = 1.0;  ///< brownout fraction
    app::Cdn* cdn = nullptr;  ///< server kinds only
    ServerId server;          ///< server kinds only
  };

  [[nodiscard]] Resolved resolve(const FaultAction& action) const;
  void execute(const std::vector<Resolved>& group);

  Scheduler& sched_;
  EventBus& bus_;
  net::Network& network_;
  const app::CdnDirectory* cdns_;
  core::Exchange* exchange_ = nullptr;  ///< broker faults only
  Gate gate_;  ///< revokes pending fault posts if the engine dies first
  std::uint64_t fault_count_ = 0;
};

class World;  // scenarios/world.hpp

/// Wire a ChaosEngine against a built world and schedule `plan` on it. The
/// world's CDN directory is attached, and so is its exchange when it has
/// one, so every fault kind reaches its target. Returns nullptr for the
/// empty plan, so fault-free runs execute exactly the code they always did
/// -- their output stays byte-identical (pinned by
/// tests/scenario_faults_test.cpp).
[[nodiscard]] std::unique_ptr<ChaosEngine> schedule_faults(
    World& world, const FaultPlan& plan);

/// The same from a scenario config's `faults` knob (the lab's
/// --faults=PLAN flag on every scenario), parsed with FaultPlan::parse.
[[nodiscard]] std::unique_ptr<ChaosEngine> schedule_faults(
    World& world, const std::string& spec);

}  // namespace eona::sim
