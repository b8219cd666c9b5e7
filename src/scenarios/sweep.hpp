// Multi-run scenario sweeps: {seed, mode} x overrides fanned out as one
// sim::SectorRunner round, collated into one JSON document.
//
// A sweep's jobs are fully independent simulations (each builds its own
// scheduler, network and RNG from its seed), so they parallelize without
// any shared state; collation orders results by job index, which makes the
// collated JSON byte-identical no matter how many threads ran the jobs or
// in what order they finished (pinned by tests/sim_sweep_test.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "eona/json.hpp"

namespace eona::scenarios {

struct SweepSpec {
  std::string scenario;                          ///< lab.hpp scenario name
  std::vector<std::uint64_t> seeds;              ///< outer axis; >= 1 entry
  /// Inner axis of mode-like values applied as `mode_key=<value>` per run;
  /// empty means a single run per seed with the scenario's default.
  std::vector<std::string> modes;
  std::string mode_key = "mode";
  std::map<std::string, std::string> overrides;  ///< applied to every run
  std::size_t threads = 0;                       ///< 0 = hardware threads
};

/// Expand the spec's {seed} x {mode} grid, run every job, and collate:
///   {"scenario": ..., "run_count": N, "runs": [ {seed, ...result...} ]}
/// The runs array is ordered seed-major, mode-minor -- independent of
/// thread count and completion order. Throws ConfigError on bad specs and
/// rethrows the error of the lowest-indexed failing run.
///
/// When `trace_out` is non-null every job records its own JSONL event
/// trace (each into a private buffer, so jobs stay lock-free), and the
/// buffers are concatenated into `*trace_out` in job order -- like the
/// runs array, byte-identical for any thread count.
[[nodiscard]] core::JsonValue run_sweep(const SweepSpec& spec,
                                        std::string* trace_out = nullptr);

}  // namespace eona::scenarios
