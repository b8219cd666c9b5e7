// The worlds several scenarios share, each assembled by one builder.
//
// Every builder runs its World::Builder calls in one fixed order, so each
// scenario that builds its world here forks the rng and posts to the
// scheduler in that order (World::Builder's determinism contract). The
// arguments are the values the scenarios differ in; everything else about
// each world is fixed.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "scenarios/common.hpp"
#include "scenarios/world.hpp"

namespace eona::scenarios {

/// The rendition ladder of the Fig 5 and federation worlds' players.
inline const std::vector<BitsPerSecond> kVideoLadder{kbps(300), kbps(700),
                                                     mbps(1.5), mbps(3)};

/// The Fig 5 interconnect world (oscillation, fairness, failover): clients
/// behind a 1 Gbps access link of ISP 0; CDN X peers at a cheap local point
/// B (link "X@B") and at the IXP C ("X@C"), CDN Y only at C ("Y@C"). B is
/// registered first, so it is the ISP's preferred ingress for X. Both CDNs
/// have warm caches over a 24-video catalog.
struct Fig5World {
  IspId isp{0};
  NodeId client;
  app::Cdn* cdn_x = nullptr;
  PeeringId peer_xc;  ///< X's ingress at the IXP C: the green path
};

/// Build the Fig 5 topology and CDNs up to and including build_network().
Fig5World build_fig5_world(sim::World::Builder& b, BitsPerSecond capacity_b,
                           BitsPerSecond capacity_cx,
                           BitsPerSecond capacity_cy,
                           Duration video_duration);

/// The E19 federation plane (federation, broker_outage): two access ISPs
/// and three single-CDN AppP tenants. Every CDN peers with both ISPs, and
/// every tenant pair is wired through the exchange. Each ISP's InfP divides
/// an egress pool across its three ingress links in proportion to the A2I
/// forecasts it sees. Tenants are pinned to their own CDN, so the forecast
/// to egress-share loop is the only coupling between them.
struct FederationPlane {
  static constexpr std::size_t kIsps = 2;
  static constexpr std::size_t kTenants = 3;
  std::array<NodeId, kIsps> clients{};
  std::array<app::Cdn*, kTenants> cdns{};
  std::array<control::AppPController*, kTenants> appps{};
  std::array<control::InfPController*, kIsps> infps{};
  /// The honest tenants' controller config, for tenants joining mid-run.
  control::AppPConfig appp_cfg;
};

/// Build and start the federation plane. Tenant 0 multiplies its exported
/// forecasts by `exaggeration`. With `quotas` empty the broker enforces
/// nothing; otherwise tenant i's forecast claims are clamped to quotas[i]
/// of `pool`. `robust_fetch` and `freshness_deadline` apply to every
/// controller's fetches.
FederationPlane build_federation_plane(sim::World::Builder& b,
                                       BitsPerSecond access_capacity,
                                       BitsPerSecond pool,
                                       Duration video_duration,
                                       double exaggeration,
                                       std::span<const double> quotas,
                                       bool robust_fetch,
                                       Duration freshness_deadline);

/// The quickstart starter world, which scale builds once per sector: one
/// access bottleneck, one warm CDN over a 16-video catalog, one AppP/InfP
/// pair wired through the exchange, and a session pool. `mode` turns EONA
/// on in both controllers and picks the oracle brain.
struct StarterWorld {
  IspId isp{0};
  NodeId client;
  LinkId access;
  control::AppPController* appp = nullptr;
  app::PlayerBrain* brain = nullptr;
  app::SessionPool* pool = nullptr;
};

/// Build and start the starter world, up to and including its session pool.
StarterWorld build_starter_world(sim::World::Builder& b, ControlMode mode,
                                 BitsPerSecond access_capacity,
                                 Duration video_duration);

}  // namespace eona::scenarios
