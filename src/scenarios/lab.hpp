// Run-scenario-by-name: the shared layer under the eona_lab CLI and the
// sweep runner.
//
// Every scenario harness (flashcrowd, oscillation, ...) has a config
// struct, a run function, and a result struct; this file maps a scenario
// *name* plus string key=value overrides onto that triple and renders the
// result as the stable JSON object eona_lab has always printed. Keeping the
// mapping here means a sweep job and a CLI invocation with the same
// overrides produce byte-identical JSON.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "eona/json.hpp"
#include "scenarios/common.hpp"
#include "sim/timeseries.hpp"
#include "telemetry/column_store.hpp"

namespace eona::scenarios {

/// The one key=value override parser: scenario keys, and the sweep and
/// query subcommands' own keys. Each getter consumes its key and returns
/// whether it was present. A value that does not parse in full throws a
/// ConfigError naming the key and the value: numbers must be finite and
/// >= 0, integers plain digits, booleans 1|0|true|false|yes|no. Every key
/// asked for is recorded, so usage text comes from the parsers themselves.
class Overrides {
 public:
  /// The most integers an a..b range may expand to.
  static constexpr std::uint64_t kMaxRange = 10'000;
  /// The most worker threads a `threads` key may ask for.
  static constexpr std::size_t kMaxThreads = 256;

  explicit Overrides(std::map<std::string, std::string> kv)
      : kv_(std::move(kv)) {}

  /// An instance with no input that only records the keys asked of it.
  /// Its finish() returns false, so the parser stops before running.
  [[nodiscard]] static Overrides recorder();

  /// Sets `out` to the value times `scale` (1e6 reads a *_mbps key into
  /// bits per second).
  bool number(const char* key, double& out, double scale = 1.0);
  /// An integer from 0 to `max` that fits in T: seeds, counts, 32-bit ids.
  template <std::unsigned_integral T>
  bool integer(const char* key, T& out,
               T max = std::numeric_limits<T>::max()) {
    std::optional<std::string> value = take(key);
    if (!value) return false;
    out = static_cast<T>(parse_integer(key, *value, max));
    return true;
  }
  bool boolean(const char* key, bool& out);
  bool mode(const char* key, ControlMode& out);
  bool text(const char* key, std::string& out);
  bool list(const char* key, std::vector<std::string>& out);  ///< a,b,c
  /// Non-negative integers, as a..b (inclusive, at most kMaxRange of them)
  /// or a,b,c.
  bool integers(const char* key, std::vector<std::uint64_t>& out);

  /// Ends parsing: throws ConfigError when unconsumed keys remain (the
  /// message starts with `context`). Returns false on a recorder.
  [[nodiscard]] bool finish(const char* context = "") const;

  /// The keys not consumed so far.
  [[nodiscard]] const std::map<std::string, std::string>& rest() const {
    return kv_;
  }
  /// Every key asked for, in the order the parser asked.
  [[nodiscard]] const std::vector<std::string>& keys() const { return keys_; }

 private:
  /// Record `key`, consume it, and return its value if present.
  std::optional<std::string> take(const char* key);
  /// `value` as an integer in [0, max]; throws ConfigError otherwise.
  static std::uint64_t parse_integer(const char* key, const std::string& value,
                                     std::uint64_t max);

  std::map<std::string, std::string> kv_;
  std::vector<std::string> keys_;
  bool recording_ = false;
};

/// Scenario names run_scenario_json accepts (usage/help text order).
[[nodiscard]] const std::vector<std::string>& scenario_names();

/// One line on what a scenario reproduces, for usage text.
[[nodiscard]] const char* scenario_about(const std::string& scenario);

/// The override keys a scenario accepts, in its parser's order.
[[nodiscard]] std::vector<std::string> scenario_keys(
    const std::string& scenario);

/// Run `scenario` with the given overrides and return its result JSON
/// (exactly what eona_lab prints). Unknown scenarios or override keys throw
/// ConfigError. When `series_out` is non-null, scenarios that record time
/// series copy them there (for CSV dumps); others leave it empty. `trace`,
/// `store` and `perf` form the run's RunContext (eona_lab --trace=FILE,
/// --store=FILE and --perf); each may be null.
[[nodiscard]] core::JsonValue run_scenario_json(
    const std::string& scenario,
    const std::map<std::string, std::string>& overrides,
    sim::MetricSet* series_out = nullptr,
    sim::TraceWriter* trace = nullptr,
    telemetry::ColumnStore* store = nullptr,
    RunPerf* perf = nullptr);

}  // namespace eona::scenarios
