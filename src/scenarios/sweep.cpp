#include "scenarios/sweep.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "scenarios/lab.hpp"
#include "sim/sector.hpp"
#include "sim/trace.hpp"

namespace eona::scenarios {

core::JsonValue run_sweep(const SweepSpec& spec, std::string* trace_out) {
  if (spec.scenario.empty()) throw ConfigError("sweep: scenario required");
  if (spec.seeds.empty()) throw ConfigError("sweep: at least one seed");

  struct Job {
    std::uint64_t seed;
    const std::string* mode;  ///< nullptr = scenario default
  };
  std::vector<Job> jobs;
  jobs.reserve(spec.seeds.size() *
               (spec.modes.empty() ? 1 : spec.modes.size()));
  for (std::uint64_t seed : spec.seeds) {
    if (spec.modes.empty()) {
      jobs.push_back({seed, nullptr});
    } else {
      for (const std::string& mode : spec.modes) jobs.push_back({seed, &mode});
    }
  }

  // One SectorRunner round, with no more workers than jobs (0 keeps the
  // hardware default). Each job writes only its own result and trace slots,
  // so no locks are needed and collation below is a job-order concat.
  std::vector<core::JsonValue> results(jobs.size());
  std::vector<std::string> traces(trace_out != nullptr ? jobs.size() : 0);
  sim::SectorRunner runner(std::min(spec.threads, jobs.size()));
  runner.run_round(jobs.size(), [&](std::size_t i) {
    const Job& job = jobs[i];
    std::map<std::string, std::string> overrides = spec.overrides;
    overrides["seed"] = std::to_string(job.seed);
    if (job.mode != nullptr) overrides[spec.mode_key] = *job.mode;
    sim::TraceWriter trace;
    sim::TraceWriter* trace_ptr = trace_out != nullptr ? &trace : nullptr;
    core::JsonValue run =
        run_scenario_json(spec.scenario, overrides, nullptr, trace_ptr);
    run.set("seed", core::JsonValue::number(static_cast<double>(job.seed)));
    if (trace_out != nullptr) traces[i] = trace.buffer();
    results[i] = std::move(run);
  });

  if (trace_out != nullptr) {
    trace_out->clear();
    for (const std::string& t : traces) *trace_out += t;
  }

  core::JsonValue out = core::JsonValue::object();
  out.set("scenario", core::JsonValue::string(spec.scenario));
  out.set("run_count",
          core::JsonValue::number(static_cast<double>(results.size())));
  core::JsonValue runs = core::JsonValue::array();
  for (core::JsonValue& run : results) runs.push_back(std::move(run));
  out.set("runs", std::move(runs));
  return out;
}

}  // namespace eona::scenarios
