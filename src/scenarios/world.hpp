// sim::World -- the composition root every scenario builds its ecosystem
// through. One World owns the full vertical slice of a wired simulation:
// the deterministic spine (Scheduler, Rng, EventBus), the data plane
// (Topology, Network, TransferManager, Routing, PeeringBook), the delivery
// ecosystem (content catalog, CDNs, directory), the control planes
// (ProviderRegistry, AppP / InfP / EnergyManager controllers, the oracle
// brain), and the workload's SessionPools and arrival processes. Members
// are declared in dependency order, so destruction runs leaf-first
// (arrivals before pools before controllers before the network before the
// scheduler) without any scenario-side ceremony.
//
// Construction goes through World::Builder, whose methods EXECUTE
// IMMEDIATELY in call order -- the builder is a fluent veneer, not a
// deferred plan. That is the determinism contract: a scenario's sequence of
// rng forks and scheduler posts is exactly the textual order of its builder
// calls, so the refactored scenarios reproduce their pre-World output
// byte-for-byte and the JSONL trace is bit-identical run-to-run (pinned by
// tests/trace_determinism_test.cpp).
//
// Everything the builder creates is wired to the World's EventBus at birth:
// the network emits saturation/recompute events, controllers emit steering
// and migration decisions with attributed reasons and every report they
// serve as a ReportServedEvent, report channels emit publish/drop/delivery,
// session pools emit lifecycle events. A
// TraceWriter attached via attach_trace() sees all of it as JSONL.
//
// Every video scenario feeds its world the same input, Poisson video
// sessions added with add_video_sessions(), and ends the same way: run()
// advances to the end, stops the arrivals, aborts what still plays, drains
// and calls finish(), which closes the auditor's books and folds the run's
// counters into the caller's RunPerf.
//
// The class lives in namespace eona::sim (it completes the simulation
// spine's vocabulary) but is compiled in the scenarios layer -- the one
// place allowed to depend on every subsystem it composes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "app/cdn.hpp"
#include "app/content_catalog.hpp"
#include "app/session_pool.hpp"
#include "app/video_player.hpp"
#include "app/workload.hpp"
#include "common/contracts.hpp"
#include "control/appp.hpp"
#include "control/energy.hpp"
#include "control/infp.hpp"
#include "control/oracle.hpp"
#include "eona/exchange.hpp"
#include "eona/registry.hpp"
#include "net/network.hpp"
#include "net/peering.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/transfer.hpp"
#include "scenarios/auditor.hpp"
#include "scenarios/common.hpp"
#include "sim/event_bus.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"
#include "telemetry/column_store.hpp"
#include "telemetry/store_recorder.hpp"

namespace eona::sim {

/// Composition root of one wired simulation; see file header.
class World {
 public:
  class Builder;

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // --- simulation spine ---
  [[nodiscard]] Scheduler& sched() { return sched_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] EventBus& bus() { return bus_; }

  // --- data plane (valid after Builder::build_network()) ---
  [[nodiscard]] net::Topology& topology() { return topo_; }
  [[nodiscard]] net::Network& network() { return *network_; }
  [[nodiscard]] net::TransferManager& transfers() { return *transfers_; }
  [[nodiscard]] const net::Routing& routing() const { return *routing_; }
  [[nodiscard]] net::PeeringBook& peering() { return *peering_; }

  /// Always-on conservation checker (valid after build_network()); finish()
  /// finalizes it once the scheduler drains.
  [[nodiscard]] InvariantAuditor& auditor() { return *auditor_; }

  /// Close the books once the scheduler has drained: check end-of-run
  /// conservation, then add the fired events and the broker counters to
  /// `perf` (null: nothing to fold).
  void finish(scenarios::RunPerf* perf) {
    auditor_->finalize();
    if (perf == nullptr) return;
    perf->events += sched_.events_fired();
    if (exchange_ != nullptr) perf->add_exchange(*exchange_);
  }

  // --- delivery ecosystem ---
  [[nodiscard]] app::ContentCatalog& catalog() { return *catalog_; }
  [[nodiscard]] app::Cdn& cdn(std::size_t i = 0) { return *cdns_.at(i); }
  [[nodiscard]] app::CdnDirectory& directory() { return directory_; }

  // --- control planes ---
  /// The brokered interface plane (valid after Builder::add_exchange()).
  [[nodiscard]] core::Exchange& exchange() { return *exchange_; }
  [[nodiscard]] bool has_exchange() const { return exchange_ != nullptr; }
  [[nodiscard]] control::AppPController& appp(std::size_t i = 0) {
    return *appps_.at(i);
  }
  [[nodiscard]] control::InfPController& infp(std::size_t i = 0) {
    return *infps_.at(i);
  }

  // --- workload ---
  [[nodiscard]] app::SessionPool& pool(std::size_t i = 0) {
    return *pools_.at(i);
  }

  /// Start one tenant's Poisson video sessions into `pool`: arrivals at the
  /// `phases` rates until `end`, each playing a catalog sample through
  /// `brain` with `player`'s tunables and beaconing to `collector`. The
  /// call's n-th session joins from clients[n % size] in ISP n % size.
  /// Every call draws from one content stream and one session-id sequence,
  /// both in arrival order: the first call forks the rng for the content
  /// stream, then each call forks it once for its own arrivals.
  app::PoissonArrivals& add_video_sessions(
      app::SessionPool& pool, app::PlayerBrain& brain,
      telemetry::BeaconCollector& collector, app::PlayerConfig player,
      std::vector<app::ArrivalPhase> phases, TimePoint end,
      std::vector<NodeId> clients);

  /// The shared end of a run: advance to `until`, stop every arrival
  /// process in the order they were added, abort every pool's live sessions
  /// in pool creation order, drain one more second, then finish(perf).
  void run(TimePoint until, scenarios::RunPerf* perf);

  // --- mid-run tenant churn (valid on the built world) ---
  //
  // The broker's opt-in registration model makes tenancy dynamic: tenants
  // join, wire, and unwire while the scheduler runs. Every hook re-checks
  // the exchange invariants through the auditor, and joins renormalize the
  // egress-quota shares so they keep summing to 1 across churn. Departing
  // tenants are unwired (their legs retire) but never unregistered while
  // their controller object lives -- a departed tenant simply goes idle.

  /// Register + construct + bind a new AppP tenant mid-run. `quota` is the
  /// joiner's egress share *before* renormalization.
  control::AppPController& churn_add_appp(const std::string& name,
                                          control::AppPConfig config = {},
                                          core::TenantQuota quota = {}) {
    EONA_EXPECTS(exchange_ != nullptr && network_ != nullptr);
    ProviderId id =
        registry_.register_provider(core::ProviderKind::kAppP, name);
    exchange_->register_appp(id, quota);
    exchange_->renormalize_quotas();
    appps_.push_back(std::make_unique<control::AppPController>(
        sched_, *network_, directory_, id, config));
    appps_.back()->bind_exchange(
        core::ExchangeEndpoint(exchange_.get(), id));
    appps_.back()->set_event_bus(&bus_);
    if (auditor_ != nullptr) auditor_->check_exchange();
    return *appps_.back();
  }

  /// Wire a tenant pair mid-run (same leg/subscription order as the
  /// builder's wire_tenant).
  void churn_wire(std::size_t appp_idx, std::size_t infp_idx,
                  const core::TenantLink& link = {}) {
    control::AppPController& appp = *appps_.at(appp_idx);
    control::InfPController& infp = *infps_.at(infp_idx);
    exchange_->wire(appp.id(), infp.id(), link);
    infp.subscribe_a2i(appp.id());
    appp.subscribe_i2a(infp.id());
    if (auditor_ != nullptr) auditor_->check_exchange();
  }

  /// Sever a tenant pair mid-run: both controllers drop their
  /// subscriptions, then the broker retires both legs and the durable link
  /// record (a later broker restart will NOT resurrect this pairing).
  void churn_unwire(std::size_t appp_idx, std::size_t infp_idx) {
    control::AppPController& appp = *appps_.at(appp_idx);
    control::InfPController& infp = *infps_.at(infp_idx);
    appp.unsubscribe_i2a(infp.id());
    infp.unsubscribe_a2i(appp.id());
    exchange_->unwire(appp.id(), infp.id());
    if (auditor_ != nullptr) auditor_->check_exchange();
  }

 private:
  friend class Builder;
  explicit World(std::uint64_t seed) : rng_(seed) {}

  /// What add_video_sessions shares across its calls. Held behind a pointer
  /// allocated by the first call, so worlds without it stay small.
  struct VideoWorkload {
    explicit VideoWorkload(Rng content_stream)
        : content(std::move(content_stream)) {}
    Rng content;
    SessionId::rep_type next_session = 0;
    std::vector<std::unique_ptr<app::PoissonArrivals>> arrivals;
  };

  Scheduler sched_;
  Rng rng_;
  EventBus bus_;
  net::Topology topo_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<net::TransferManager> transfers_;
  std::unique_ptr<net::Routing> routing_;
  std::unique_ptr<net::PeeringBook> peering_;
  std::unique_ptr<InvariantAuditor> auditor_;
  std::optional<app::ContentCatalog> catalog_;
  std::vector<std::unique_ptr<app::Cdn>> cdns_;
  app::CdnDirectory directory_;
  core::ProviderRegistry registry_;
  std::unique_ptr<core::Exchange> exchange_;
  std::vector<std::unique_ptr<control::AppPController>> appps_;
  std::vector<std::unique_ptr<control::InfPController>> infps_;
  std::unique_ptr<control::EnergyManager> energy_;
  std::unique_ptr<control::OracleBrain> oracle_;
  std::vector<std::unique_ptr<app::SessionPool>> pools_;
  std::unique_ptr<VideoWorkload> workload_;
  std::unique_ptr<telemetry::StoreRecorder> store_recorder_;
};

/// Fluent, immediate-mode builder; see the file header for the determinism
/// contract. Bespoke scenarios mix the conveniences below with raw access
/// (topology(), rng(), sched()) -- both execute in call order. build()
/// releases the World; the builder must not be touched afterwards.
class World::Builder {
 public:
  explicit Builder(std::uint64_t seed) : world_(new World(seed)) {}

  // --- raw access during building ---
  [[nodiscard]] World& world() { return *world_; }
  [[nodiscard]] Scheduler& sched() { return world_->sched_; }
  [[nodiscard]] Rng& rng() { return world_->rng_; }
  [[nodiscard]] EventBus& bus() { return world_->bus_; }
  [[nodiscard]] net::Topology& topology() { return world_->topo_; }

  /// Attach a run's trace, then its store (the order both need); call
  /// before anything else so they see every event.
  Builder& attach(const scenarios::RunContext& ctx) {
    return attach_trace(ctx.trace).attach_store(ctx.store);
  }

  /// Subscribe `trace` (may be null: no-op) to the world's bus. Call before
  /// the topology is frozen so the trace sees every event.
  Builder& attach_trace(TraceWriter* trace) {
    if (trace != nullptr) trace->subscribe_all(world_->bus_);
    return *this;
  }

  /// Subscribe a telemetry store (may be null: no-op) to the world's bus
  /// via a StoreRecorder the World owns. Call right after attach_trace so
  /// the store ingests the same event stream the trace records -- that is
  /// what makes live stores and --trace replays byte-identical.
  Builder& attach_store(telemetry::ColumnStore* store) {
    if (store != nullptr) {
      world_->store_recorder_ =
          std::make_unique<telemetry::StoreRecorder>(*store);
      world_->store_recorder_->subscribe_all(world_->bus_);
    }
    return *this;
  }

  // --- topology conveniences (before build_network) ---

  /// Client POP and ISP edge router joined by the shared access link -- the
  /// bottleneck every EONA story starts from.
  Builder& add_isp_bottleneck(BitsPerSecond capacity,
                              Duration delay = milliseconds(5)) {
    EONA_EXPECTS(!has_access_);
    client_ = world_->topo_.add_node(net::NodeKind::kClientPop, "clients");
    edge_ = world_->topo_.add_node(net::NodeKind::kRouter, "isp-edge");
    access_ = world_->topo_.add_link(edge_, client_, capacity, delay);
    has_access_ = true;
    return *this;
  }

  [[nodiscard]] NodeId client() const {
    EONA_EXPECTS(has_access_);
    return client_;
  }
  [[nodiscard]] NodeId edge() const {
    EONA_EXPECTS(has_access_);
    return edge_;
  }
  [[nodiscard]] LinkId access_link() const {
    EONA_EXPECTS(has_access_);
    return access_;
  }

  /// Zipf-popularity video catalog shared by every CDN.
  Builder& with_catalog(std::size_t items, Duration video_duration,
                        double skew = 0.8) {
    world_->catalog_.emplace(
        app::ContentCatalog::videos(items, video_duration, skew));
    return *this;
  }

  /// One-server CDN behind the edge: server + origin nodes, a peering link
  /// registered with the ISP, and (optionally) the whole catalog warmed.
  /// Topology edits happen now; the app::Cdn object and its PeeringBook
  /// entry materialise inside build_network() once those layers exist.
  struct CdnSpec {
    BitsPerSecond peer_capacity = gbps(1);
    Duration peer_delay = milliseconds(8);
    BitsPerSecond origin_capacity = mbps(100);
    Duration origin_delay = milliseconds(20);
    std::size_t cache_capacity = 32;
    bool warm = false;  ///< pre-seed the server cache with the full catalog
  };
  Builder& add_cdn(const std::string& name) { return add_cdn(name, CdnSpec{}); }
  Builder& add_cdn(const std::string& name, CdnSpec spec) {
    EONA_EXPECTS(has_access_);
    EONA_EXPECTS(world_->network_ == nullptr);
    PendingCdn pending;
    pending.name = name;
    pending.spec = spec;
    pending.server = world_->topo_.add_node(net::NodeKind::kCdnServer,
                                            name + "-srv");
    pending.origin = world_->topo_.add_node(net::NodeKind::kOrigin,
                                            name + "-origin");
    pending.peer_link = world_->topo_.add_link(
        pending.server, edge_, spec.peer_capacity, spec.peer_delay,
        name + "@edge");
    world_->topo_.add_link(pending.origin, pending.server,
                           spec.origin_capacity, spec.origin_delay);
    pending_cdns_.push_back(std::move(pending));
    return *this;
  }

  // --- networking ---

  /// Freeze the topology: construct Network / TransferManager / Routing /
  /// PeeringBook, wire the network to the event bus, and materialise any
  /// CDNs declared with the add_cdn(name, spec) convenience.
  Builder& build_network(IspId isp = IspId(0)) {
    EONA_EXPECTS(world_->network_ == nullptr);
    World& w = *world_;
    w.network_ = std::make_unique<net::Network>(w.topo_);
    w.transfers_ =
        std::make_unique<net::TransferManager>(w.sched_, *w.network_);
    w.routing_ = std::make_unique<net::Routing>(w.topo_);
    w.peering_ = std::make_unique<net::PeeringBook>(w.topo_);
    w.network_->set_event_bus(&w.bus_, &w.sched_);
    // Failure semantics wiring: routing answers failure-aware queries
    // against the network's live link-state overlay, aborted transfers are
    // published on the bus, and the always-on auditor checks conservation
    // invariants on every rate recompute.
    w.routing_->attach_link_state(w.network_.get());
    w.transfers_->set_event_bus(&w.bus_);
    w.auditor_ = std::make_unique<InvariantAuditor>(w.bus_, *w.network_);
    if (w.exchange_ != nullptr) w.auditor_->watch_exchange(w.exchange_.get());
    for (PendingCdn& pending : pending_cdns_) {
      app::Cdn& cdn = add_cdn_at(pending.name, pending.origin);
      ServerId server = cdn.add_server(pending.server, pending.peer_link,
                                       pending.spec.cache_capacity);
      w.peering_->add(isp, cdn.id(), pending.peer_link,
                      pending.name + "@edge");
      cdn.set_peering_book(w.peering_.get());
      if (pending.spec.warm) {
        EONA_EXPECTS(w.catalog_.has_value());
        cdn.warm_cache(server, w.catalog_->ids());
      }
    }
    pending_cdns_.clear();
    return *this;
  }

  /// Low-level CDN: the scenario owns server placement, peering entries and
  /// cache warming through the returned reference. Ids are assigned in
  /// declaration order; the directory registers them in the same order.
  app::Cdn& add_cdn_at(const std::string& name, NodeId origin) {
    World& w = *world_;
    CdnId id(static_cast<CdnId::rep_type>(w.cdns_.size()));
    w.cdns_.push_back(std::make_unique<app::Cdn>(id, name, origin));
    w.directory_.add(w.cdns_.back().get());
    return *w.cdns_.back();
  }

  // --- control planes (register + construct + wire to the bus, in call
  // order, so provider ids follow declaration order exactly) ---

  /// The brokered interface plane every controller enrolls with. Must be
  /// called before the first add_appp/add_infp so their tenancies register
  /// at construction.
  Builder& add_exchange() {
    World& w = *world_;
    EONA_EXPECTS(w.exchange_ == nullptr);
    EONA_EXPECTS(w.appps_.empty() && w.infps_.empty());
    w.exchange_ = std::make_unique<core::Exchange>(w.registry_);
    w.exchange_->set_event_bus(&w.bus_);
    // Either call order works: build_network() hooks the auditor up when
    // the exchange already exists, and vice versa.
    if (w.auditor_ != nullptr) w.auditor_->watch_exchange(w.exchange_.get());
    return *this;
  }

  control::AppPController& add_appp(const std::string& name,
                                    control::AppPConfig config = {}) {
    World& w = *world_;
    EONA_EXPECTS(w.exchange_ != nullptr);
    ProviderId id = w.registry_.register_provider(core::ProviderKind::kAppP,
                                                  name);
    w.exchange_->register_appp(id);
    w.appps_.push_back(std::make_unique<control::AppPController>(
        w.sched_, *w.network_, w.directory_, id, config));
    w.appps_.back()->bind_exchange(
        core::ExchangeEndpoint(w.exchange_.get(), id));
    w.appps_.back()->set_event_bus(&w.bus_);
    return *w.appps_.back();
  }

  control::InfPController& add_infp(const std::string& name, IspId isp,
                                    std::vector<LinkId> access_links,
                                    control::InfPConfig config = {}) {
    World& w = *world_;
    EONA_EXPECTS(w.exchange_ != nullptr);
    ProviderId id = w.registry_.register_provider(core::ProviderKind::kInfP,
                                                  name);
    w.exchange_->register_infp(id);
    w.infps_.push_back(std::make_unique<control::InfPController>(
        w.sched_, *w.network_, *w.routing_, *w.peering_, isp, id,
        std::move(access_links), config));
    w.infps_.back()->bind_exchange(
        core::ExchangeEndpoint(w.exchange_.get(), id));
    w.infps_.back()->set_event_bus(&w.bus_);
    return *w.infps_.back();
  }

  /// The CDN operator's energy manager, enrolled as an InfP tenant.
  control::EnergyManager& add_energy(const std::string& name, app::Cdn& cdn,
                                     control::EnergyConfig config = {}) {
    World& w = *world_;
    EONA_EXPECTS(w.energy_ == nullptr && w.exchange_ != nullptr);
    ProviderId id = w.registry_.register_provider(core::ProviderKind::kInfP,
                                                  name);
    w.exchange_->register_infp(id);
    w.energy_ = std::make_unique<control::EnergyManager>(
        w.sched_, *w.network_, cdn, id, config);
    w.energy_->bind_exchange(core::ExchangeEndpoint(w.exchange_.get(), id));
    w.energy_->set_event_bus(&w.bus_);
    return *w.energy_;
  }

  /// The hypothetical fully-informed global controller's player brain.
  control::OracleBrain& add_oracle() {
    World& w = *world_;
    EONA_EXPECTS(w.oracle_ == nullptr);
    w.oracle_ = std::make_unique<control::OracleBrain>(
        *w.network_, *w.routing_, w.directory_);
    return *w.oracle_;
  }

  /// Wire both EONA directions between one AppP and one InfP tenant through
  /// the exchange: the broker mints both bearer tokens and opens both legs
  /// (applying the link's trust level, faults, and I2A rate budget), then
  /// each controller subscribes its consuming side. Channel-creation and
  /// subscription order matches the pre-broker point-to-point wiring.
  Builder& wire_tenant(std::size_t appp_idx = 0, std::size_t infp_idx = 0,
                       const core::TenantLink& link = {}) {
    World& w = *world_;
    control::AppPController& appp = *w.appps_.at(appp_idx);
    control::InfPController& infp = *w.infps_.at(infp_idx);
    w.exchange_->wire(appp.id(), infp.id(), link);
    infp.subscribe_a2i(appp.id());
    appp.subscribe_i2a(infp.id());
    return *this;
  }

  /// Wire an AppP tenant to the energy manager through the exchange, like
  /// any tenant pair, and subscribe the manager to that AppP's A2I leg.
  Builder& wire_energy_a2i(std::size_t appp_idx = 0) {
    World& w = *world_;
    ProviderId appp = w.appps_.at(appp_idx)->id();
    w.exchange_->wire(appp, w.energy_->id());
    w.energy_->subscribe_a2i(appp);
    return *this;
  }

  // --- workload ---

  /// A session pool wired to the bus (start/stall/finish events).
  app::SessionPool& add_session_pool() {
    World& w = *world_;
    w.pools_.push_back(
        std::make_unique<app::SessionPool>(w.sched_, w.network_.get()));
    w.pools_.back()->set_event_bus(&w.bus_);
    return *w.pools_.back();
  }

  /// Release the finished World. The builder is spent afterwards.
  [[nodiscard]] std::unique_ptr<World> build() {
    EONA_EXPECTS(world_ != nullptr);
    EONA_EXPECTS(pending_cdns_.empty());  // declared CDNs need build_network
    return std::move(world_);
  }

 private:
  struct PendingCdn {
    std::string name;
    CdnSpec spec;
    NodeId server;
    NodeId origin;
    LinkId peer_link;
  };

  std::unique_ptr<World> world_;
  std::vector<PendingCdn> pending_cdns_;
  NodeId client_{};
  NodeId edge_{};
  LinkId access_{};
  bool has_access_ = false;
};

}  // namespace eona::sim
