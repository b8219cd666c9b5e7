// Figure 4 scenario: can the cellular InfP know its users' web experience?
//
// Ground truth: page-load sessions over cell sectors with varying capacity,
// background load, radio latency, and page weight. The InfP either
//  (a) *infers* per-session experience from passively observable network
//      features (throughput, RTT, bytes, duration) with a model trained on
//      a labelled subset -- today's stop-gap; or
//  (b) receives it *directly* over A2I as k-anonymous per-sector aggregates.
// The experiment reports per-session error and the sector ranking quality
// of both, across radio-noise levels.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "scenarios/common.hpp"

namespace eona::scenarios {

struct CellularWebConfig {
  std::uint64_t seed = 1;
  std::size_t sessions = 1500;
  std::size_t sectors = 8;
  double arrival_rate = 4.0;      ///< page loads per second (aggregate)
  double radio_noise = 0.4;       ///< lognormal sigma of radio RTT (jitter)
  Duration radio_rtt_median = 0.060;
  double labeled_fraction = 0.3;  ///< sessions the InfP has labels for
  std::uint64_t k_anonymity = 10;
  double background_flows_per_sector = 2.0;  ///< mean long-lived flows
  /// Relative noise on the InfP's passively measured features (DPI flow
  /// reassembly error, sampling, radio-counter quantisation). The paper's
  /// point: the InfP's view is indirect and noisy.
  double feature_noise = 0.25;
};

struct CellularWebResult {
  std::size_t evaluated = 0;
  // --- per-session engagement-estimation error on the unlabelled set ---
  double inference_mae = 0.0;
  double a2i_mae = 0.0;  ///< group-mean as the session estimate
  // --- per-sector (group) estimation error of mean engagement ---
  double inference_group_mae = 0.0;
  double a2i_group_mae = 0.0;  ///< ~0: direct measurement, aggregation only
  // --- sector-ranking quality (Spearman vs true per-sector engagement) ---
  double inference_rank_corr = 0.0;
  double a2i_rank_corr = 0.0;
  // --- bookkeeping ---
  std::size_t suppressed_sectors = 0;  ///< k-anonymity suppressions
  double mean_true_plt = 0.0;
};

[[nodiscard]] CellularWebResult
run_cellular_web(const CellularWebConfig& config,
                 const RunContext& ctx = {});

}  // namespace eona::scenarios
