#include "scenarios/cellular_web.hpp"

#include <cmath>
#include <memory>
#include <unordered_map>
#include <vector>

#include "app/web_session.hpp"
#include "app/workload.hpp"
#include "qoe/inference.hpp"
#include "scenarios/world.hpp"

namespace eona::scenarios {

namespace {

/// Features the InfP can observe passively about one page load -- each
/// corrupted by measurement noise (flow sampling, DPI reassembly, radio
/// counter quantisation). Application-layer facts (object count, think
/// time, the engagement curve) are invisible.
std::vector<double> passive_features(const app::WebSessionOutcome& o,
                                     double noise, sim::Rng& rng) {
  auto jitter = [&](double x) { return x * (1.0 + rng.normal(0.0, noise)); };
  return {jitter(o.rtt), jitter(o.observed_throughput / 1e6),
          jitter(std::log10(o.bytes)), jitter(o.flow_duration)};
}

double mean_of(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return v.empty() ? 0.0 : total / static_cast<double>(v.size());
}

}  // namespace

CellularWebResult run_cellular_web(const CellularWebConfig& config,
                                   const RunContext& ctx) {
  sim::World::Builder b(config.seed);
  b.attach(ctx);

  // --- topology: web server -> cellular core -> sectors ----------------------
  net::Topology& topo = b.topology();
  NodeId server = topo.add_node(net::NodeKind::kOrigin, "web-server");
  NodeId core = topo.add_node(net::NodeKind::kRouter, "cell-core");
  topo.add_link(server, core, gbps(1), milliseconds(12));

  sim::Rng topo_rng = b.rng().fork();
  std::vector<NodeId> sector_nodes;
  std::vector<LinkId> sector_links;
  for (std::size_t s = 0; s < config.sectors; ++s) {
    NodeId node = topo.add_node(net::NodeKind::kClientPop,
                                "sector-" + std::to_string(s));
    // Heterogeneous sector capacities: the quality differences the InfP
    // wants to rank.
    BitsPerSecond cap = mbps(topo_rng.uniform(8.0, 50.0));
    sector_nodes.push_back(node);
    sector_links.push_back(
        topo.add_link(core, node, cap, milliseconds(15)));
  }

  b.build_network();
  std::unique_ptr<sim::World> world = b.build();
  sim::Scheduler& sched = world->sched();
  net::Network& network = world->network();

  // Static background load per sector (other subscribers' traffic), admitted
  // as one batch: a single rate solve for the whole setup burst.
  sim::Rng bg_rng = world->rng().fork();
  {
    net::Network::Batch setup(network);
    for (std::size_t s = 0; s < config.sectors; ++s) {
      auto flows = static_cast<std::size_t>(
          bg_rng.poisson(config.background_flows_per_sector));
      for (std::size_t f = 0; f < flows; ++f) {
        double share = bg_rng.uniform(0.10, 0.30);
        network.add_flow({sector_links[s]},
                         network.link_capacity(sector_links[s]) * share);
      }
    }
  }

  // --- sessions ----------------------------------------------------------------
  std::vector<app::WebSessionOutcome> outcomes;
  std::vector<std::unique_ptr<app::WebSession>> sessions;
  sim::Rng session_rng = world->rng().fork();
  SessionId::rep_type next_session = 0;

  auto spawn = [&] {
    auto sector =
        static_cast<std::size_t>(session_rng.uniform_int(
            0, static_cast<std::int64_t>(config.sectors) - 1));
    app::WebSessionConfig web_cfg;
    web_cfg.objects = static_cast<int>(session_rng.uniform_int(6, 24));
    web_cfg.extra_rtt = session_rng.lognormal(
        std::log(config.radio_rtt_median), config.radio_noise);
    Bits page_bits = session_rng.lognormal(std::log(12e6), 0.5);
    telemetry::Dimensions dims;
    dims.isp = IspId(0);
    dims.region = static_cast<std::uint32_t>(sector);
    auto session = std::make_unique<app::WebSession>(
        sched, world->transfers(), world->routing(), web_cfg,
        SessionId(next_session++), dims, sector_nodes[sector], server,
        page_bits, nullptr,
        [&](const app::WebSessionOutcome& o) { outcomes.push_back(o); });
    session->start();
    sessions.push_back(std::move(session));
  };

  TimePoint arrival_end =
      static_cast<double>(config.sessions) / config.arrival_rate;
  app::PoissonArrivals arrivals(sched, world->rng().fork(),
                                {{0.0, config.arrival_rate}}, arrival_end,
                                spawn);

  sched.run_until(arrival_end + 120.0);
  sched.run_all();  // drain remaining transfers
  world->finish(ctx.perf);

  // --- evaluation -----------------------------------------------------------------
  CellularWebResult result;
  if (outcomes.size() < 20) return result;

  // Label split: the InfP has ground truth for a small instrumented panel.
  sim::Rng split_rng = world->rng().fork();
  sim::Rng feature_rng = world->rng().fork();
  std::vector<bool> labeled(outcomes.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i)
    labeled[i] = split_rng.bernoulli(config.labeled_fraction);

  // The InfP observes each session once; precompute its (noisy) view.
  std::vector<std::vector<double>> features(outcomes.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i)
    features[i] =
        passive_features(outcomes[i], config.feature_noise, feature_rng);

  // The experience metric the InfP wants: engagement (will the user stay?).
  auto truth_of = [](const app::WebSessionOutcome& o) {
    return o.record.metrics.engagement;
  };

  std::vector<std::vector<double>> train_x;
  std::vector<double> train_y;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!labeled[i]) continue;
    train_x.push_back(features[i]);
    train_y.push_back(truth_of(outcomes[i]));
  }
  if (train_x.size() < 8) return result;
  qoe::RidgeRegression model(1e-3);
  model.fit(train_x, train_y);

  // Per-sector truth (over every session: this is what client-side
  // measurement sees) with the k-anonymity gate applied for A2I export.
  std::unordered_map<std::uint32_t, std::vector<double>> truth_by_sector;
  for (const auto& o : outcomes)
    truth_by_sector[o.record.dims.region].push_back(truth_of(o));
  std::unordered_map<std::uint32_t, double> a2i_mean;
  double global_truth_mean = 0.0;
  {
    std::vector<double> all;
    for (const auto& o : outcomes) all.push_back(truth_of(o));
    global_truth_mean = mean_of(all);
  }
  for (const auto& [sector, values] : truth_by_sector) {
    if (values.size() < config.k_anonymity) {
      ++result.suppressed_sectors;
      continue;
    }
    a2i_mean[sector] = mean_of(values);
  }

  // Per-session errors on the unlabelled (deployment) set.
  double inf_err = 0.0, a2i_err = 0.0;
  std::size_t evaluated = 0;
  std::unordered_map<std::uint32_t, std::vector<double>> pred_by_sector;
  std::unordered_map<std::uint32_t, std::vector<double>> eval_truth_by_sector;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (labeled[i]) continue;
    const auto& o = outcomes[i];
    double truth = truth_of(o);
    double predicted = model.predict(features[i]);
    auto it = a2i_mean.find(o.record.dims.region);
    double via_a2i = it == a2i_mean.end() ? global_truth_mean : it->second;
    inf_err += std::abs(predicted - truth);
    a2i_err += std::abs(via_a2i - truth);
    pred_by_sector[o.record.dims.region].push_back(predicted);
    eval_truth_by_sector[o.record.dims.region].push_back(truth);
    ++evaluated;
    result.mean_true_plt += o.record.metrics.page_load_time;
  }
  if (evaluated == 0) return result;
  result.evaluated = evaluated;
  result.inference_mae = inf_err / static_cast<double>(evaluated);
  result.a2i_mae = a2i_err / static_cast<double>(evaluated);
  result.mean_true_plt /= static_cast<double>(evaluated);

  // Group-level error and ranking over unsuppressed sectors.
  std::vector<double> true_means, inferred_means, a2i_means;
  double inf_group_err = 0.0, a2i_group_err = 0.0;
  std::size_t groups = 0;
  for (const auto& [sector, mean] : a2i_mean) {
    auto pred_it = pred_by_sector.find(sector);
    if (pred_it == pred_by_sector.end()) continue;
    double truth = mean_of(truth_by_sector.at(sector));
    double inferred = mean_of(pred_it->second);
    true_means.push_back(truth);
    inferred_means.push_back(inferred);
    a2i_means.push_back(mean);
    inf_group_err += std::abs(inferred - truth);
    a2i_group_err += std::abs(mean - truth);
    ++groups;
  }
  if (groups >= 2) {
    result.inference_group_mae = inf_group_err / static_cast<double>(groups);
    result.a2i_group_mae = a2i_group_err / static_cast<double>(groups);
    result.inference_rank_corr =
        qoe::spearman_correlation(inferred_means, true_means);
    result.a2i_rank_corr = qoe::spearman_correlation(a2i_means, true_means);
  }
  return result;
}

}  // namespace eona::scenarios
