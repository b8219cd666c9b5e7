// The hypothetical global controller of the paper's §4 recipe: a player
// brain allowed to introspect the live network directly (all data, zero
// staleness) and pick the jointly best endpoint and bitrate. It upper-bounds
// what any interface -- wide or narrow -- can achieve, which is exactly the
// reference the interface-width experiment (E7) needs.
#pragma once

#include <limits>

#include "app/cdn.hpp"
#include "app/video_player.hpp"
#include "net/network.hpp"
#include "net/routing.hpp"

namespace eona::control {

struct OracleConfig {
  double abr_safety = 0.85;
  Duration panic_buffer = 4.0;
  /// Required relative gain before moving an active session (prevents the
  /// oracle itself from thrashing).
  double switch_gain = 1.3;
};

/// Omniscient player brain. Not deployable (it reads other providers'
/// private state) -- used only as the quality ceiling in experiments.
class OracleBrain final : public app::PlayerBrain {
 public:
  OracleBrain(const net::Network& network, const net::Routing& routing,
              const app::CdnDirectory& cdns, OracleConfig config = {})
      : network_(network), routing_(routing), cdns_(cdns), config_(config) {}

  app::Endpoint choose_endpoint(const app::PlayerView& v) override {
    return best_endpoint(v).first;
  }

  bool should_switch_endpoint(const app::PlayerView& v) override {
    auto [best, best_share] = best_endpoint(v);
    if (best == app::Endpoint{v.cdn, v.server}) return false;
    BitsPerSecond current = predicted_share(v, v.cdn, v.server);
    return best_share > current * config_.switch_gain;
  }

  std::size_t choose_bitrate(const app::PlayerView& v) override {
    const auto& ladder = *v.ladder;
    if (v.joined && v.buffer < config_.panic_buffer) return 0;
    // Perfect knowledge: the post-join sustainable rate is the fair share
    // of the current path, tempered by measured throughput when available.
    BitsPerSecond share = predicted_share(v, v.cdn, v.server);
    if (v.throughput_estimate > 0.0)
      share = std::min(share, v.throughput_estimate);
    BitsPerSecond budget = config_.abr_safety * share;
    std::size_t best = 0;
    for (std::size_t i = 0; i < ladder.size(); ++i)
      if (ladder[i] <= budget) best = i;
    return best;
  }

 private:
  [[nodiscard]] BitsPerSecond predicted_share(const app::PlayerView& v,
                                              CdnId cdn_id,
                                              ServerId server_id) const {
    if (!cdn_id.valid() || !server_id.valid()) return 0.0;
    const app::Cdn& cdn = cdns_.at(cdn_id);
    const app::CdnServer& server = cdn.server(server_id);
    if (!server.online) return 0.0;
    net::Path path;
    cdn.delivery_path(server.node, v.client_node, v.isp, routing_, path);
    return network_.predicted_share(path);
  }

  [[nodiscard]] std::pair<app::Endpoint, BitsPerSecond> best_endpoint(
      const app::PlayerView& v) const {
    app::Endpoint best{};
    BitsPerSecond best_share = -1.0;
    for (const app::Cdn* cdn : cdns_.all()) {
      for (const auto& server : cdn->servers()) {
        if (!server.online) continue;
        BitsPerSecond share = predicted_share(v, cdn->id(), server.id);
        if (share > best_share) {
          best_share = share;
          best = app::Endpoint{cdn->id(), server.id};
        }
      }
    }
    EONA_ENSURES(best.cdn.valid());
    return {best, best_share};
  }

  const net::Network& network_;
  const net::Routing& routing_;
  const app::CdnDirectory& cdns_;
  OracleConfig config_;
};

}  // namespace eona::control
