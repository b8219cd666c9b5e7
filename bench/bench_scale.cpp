// E17/E18 (§5 scalability): million-session worlds under sector-parallel
// execution with quiescence-aware barrier rounds.
//
// Five parts:
//
//  1. Equivalence. The scale scenario must produce byte-identical JSON when
//     the sector rounds run serially (threads=1) and on a worker pool
//     (threads=2, 4), for seeds 1..5. This is the correctness contract that
//     makes the parallelism free: sectors share no mutable state between
//     barriers and the coordinator is serial in sector order.
//
//  2. Elision equivalence. On a quiet-tail config (arrival window closes
//     well before the run ends) the scenario must produce byte-identical
//     JSON with quiescent-sector elision on and off, for seeds 1..5. This
//     is the contract that makes skipping idle sectors free: a deferred
//     clock catch-up fires exactly the events the skipped rounds would
//     have.
//
//  3. Speedup. One mid-size config timed at threads=1 vs threads=N
//     (hardware count). On a single-core container the ratio hovers around
//     1.0 -- the number is reported, not thresholded, because the identity
//     in part 1 is what CI can actually pin.
//
//  4. The headline run. sessions=EONA_SCALE_SESSIONS (default one million)
//     across EONA_SCALE_SECTORS cells: wall-clock, events/sec, exact
//     admission, peak-RSS-derived bytes/session, and the serial/parallel
//     phase breakdown from RunPerf. EONA_SCALE_ELIDE=0 turns elision off so
//     CI can produce a full-dispatch reference artifact.
//
//  5. Off-peak diurnal (E18). sessions=EONA_SCALE_DIURNAL_SESSIONS (default
//     250k) on a dead-of-night diurnal profile (night rate 0) with a quiet
//     tail, run with elision off then on: events/s for both, the wall-clock
//     ratio, and the elided-sector count. This is the workload elision is
//     for -- whole sectors drain during the trough.
//
// Verdicts (acceptance thresholds):
//  * sector-parallel output is byte-identical to serial for every seed;
//  * elision-on output is byte-identical to elision-off for every seed;
//  * a repeated run reproduces bit-identical output;
//  * the headline run admits exactly the configured session count and
//    completes (events > 0, every sector audited);
//  * the diurnal run elides sectors (> 0) and its results match the
//    elision-off run exactly.
//
// Always writes a machine-readable JSON summary; path defaults to
// BENCH_scale.json, overridden by argv[1] or EONA_BENCH_OUT.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "eona/json.hpp"
#include "scenarios/lab.hpp"
#include "scenarios/scale.hpp"

using namespace eona;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

long long peak_rss_bytes() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<long long>(usage.ru_maxrss) * 1024;
}

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? static_cast<std::size_t>(std::stoull(value))
                          : fallback;
}

bool env_flag(const char* name, bool fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  return !(std::strcmp(value, "0") == 0 || std::strcmp(value, "false") == 0);
}

/// Small identity config: enough sectors and barrier rounds to exercise the
/// coordinator, small enough to run 15 times in seconds.
std::map<std::string, std::string> identity_overrides(std::uint64_t seed,
                                                      std::size_t threads) {
  return {{"seed", std::to_string(seed)},
          {"threads", std::to_string(threads)},
          {"sessions", "2000"},
          {"sectors", "32"},
          {"run_duration", "300"},
          {"video_duration", "60"},
          {"barrier_period", "20"}};
}

/// Identity config with the arrival window closed at 180 s of a 420 s run,
/// so the tail rounds have quiescent sectors to elide (or not).
std::map<std::string, std::string> quiet_tail_overrides(std::uint64_t seed,
                                                        std::size_t threads,
                                                        bool elide) {
  auto ov = identity_overrides(seed, threads);
  ov["run_duration"] = "420";
  ov["arrival_window"] = "180";
  if (!elide) ov["elide"] = "false";
  return ov;
}

scenarios::ScaleConfig headline_config(std::size_t sessions,
                                       std::size_t sectors,
                                       std::size_t threads) {
  scenarios::ScaleConfig config;
  config.seed = 42;
  config.sessions = sessions;
  config.sectors = sectors;
  config.threads = threads;
  return config;  // defaults: 600 s run, 120 s videos, 30 s barriers
}

/// E18 off-peak profile: 900 s run, arrivals confined to the first 480 s,
/// diurnal with a dead-of-night trough (night rate 0) so whole sectors
/// drain and stay idle for many barrier rounds.
scenarios::ScaleConfig diurnal_config(std::size_t sessions,
                                      std::size_t sectors,
                                      std::size_t threads) {
  scenarios::ScaleConfig config;
  config.seed = 42;
  config.sessions = sessions;
  config.sectors = sectors;
  config.threads = threads;
  config.run_duration = 900.0;
  config.video_duration = 60.0;
  config.barrier_period = 30.0;
  config.arrival_window = 480.0;
  config.diurnal = true;
  config.diurnal_night_frac = 0.0;
  return config;
}

core::JsonValue perf_json(const scenarios::RunPerf& perf) {
  core::JsonValue out = core::JsonValue::object();
  out.set("barrier_rounds",
          core::JsonValue::number(static_cast<double>(perf.barrier_rounds)));
  out.set("sectors_dispatched",
          core::JsonValue::number(
              static_cast<double>(perf.sectors_dispatched)));
  out.set("sectors_elided",
          core::JsonValue::number(static_cast<double>(perf.sectors_elided)));
  out.set("parallel_advance_seconds",
          core::JsonValue::number(
              static_cast<double>(perf.parallel_advance_ns) / 1e9));
  out.set("serial_barrier_seconds",
          core::JsonValue::number(
              static_cast<double>(perf.serial_barrier_ns) / 1e9));
  out.set("serial_fraction", core::JsonValue::number(perf.serial_fraction()));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_scale.json";
  if (const char* env = std::getenv("EONA_BENCH_OUT")) out_path = env;
  if (argc > 1) out_path = argv[1];

  unsigned hw = std::thread::hardware_concurrency();
  std::size_t threads = env_size("EONA_SCALE_THREADS", hw == 0 ? 1 : hw);
  std::size_t sessions = env_size("EONA_SCALE_SESSIONS", 1'000'000);
  // Sector sizing: ~250 sessions per cell keeps the per-event dirty
  // component (concurrent flows on the cell's access link) around 60.
  std::size_t sectors =
      env_size("EONA_SCALE_SECTORS", std::max<std::size_t>(1, sessions / 250));
  bool elide = env_flag("EONA_SCALE_ELIDE", true);
  std::size_t diurnal_sessions =
      env_size("EONA_SCALE_DIURNAL_SESSIONS", 250'000);
  std::size_t diurnal_sectors = std::max<std::size_t>(
      1, env_size("EONA_SCALE_DIURNAL_SECTORS", diurnal_sessions / 250));

  std::printf("=== E17 / Sec 5: million-session sector-parallel worlds ===\n");
  std::printf("sessions=%zu sectors=%zu threads=%zu elide=%s\n\n", sessions,
              sectors, threads, elide ? "on" : "off");

  // --- part 1: serial vs parallel byte-identity, seeds 1..5 ---------------
  std::printf("--- equivalence: serial vs sector-parallel, seeds 1..5 ---\n");
  core::JsonValue identity_rows = core::JsonValue::array();
  bool all_identical = true;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    std::string serial =
        scenarios::run_scenario_json("scale", identity_overrides(seed, 1))
            .dump(2);
    bool ok = true;
    for (std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
      std::string parallel =
          scenarios::run_scenario_json("scale",
                                       identity_overrides(seed, workers))
              .dump(2);
      ok = ok && parallel == serial;
    }
    all_identical = all_identical && ok;
    std::printf("seed %llu: %s\n", static_cast<unsigned long long>(seed),
                ok ? "byte-identical" : "DIVERGED");
    core::JsonValue row = core::JsonValue::object();
    row.set("seed", core::JsonValue::number(static_cast<double>(seed)));
    row.set("byte_identical", core::JsonValue::boolean(ok));
    identity_rows.push_back(std::move(row));
  }

  // --- part 2: elision on vs off byte-identity, seeds 1..5 ----------------
  std::printf("\n--- equivalence: elision on vs off, quiet tail, seeds 1..5"
              " ---\n");
  core::JsonValue elision_rows = core::JsonValue::array();
  bool elision_identical = true;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    std::string with =
        scenarios::run_scenario_json("scale",
                                     quiet_tail_overrides(seed, 2, true))
            .dump(2);
    std::string without =
        scenarios::run_scenario_json("scale",
                                     quiet_tail_overrides(seed, 2, false))
            .dump(2);
    bool ok = with == without;
    elision_identical = elision_identical && ok;
    std::printf("seed %llu: %s\n", static_cast<unsigned long long>(seed),
                ok ? "byte-identical" : "DIVERGED");
    core::JsonValue row = core::JsonValue::object();
    row.set("seed", core::JsonValue::number(static_cast<double>(seed)));
    row.set("byte_identical", core::JsonValue::boolean(ok));
    elision_rows.push_back(std::move(row));
  }

  std::printf("\n--- reproducibility: seed 3, threads=2, twice ---\n");
  std::string once =
      scenarios::run_scenario_json("scale", identity_overrides(3, 2)).dump(2);
  std::string twice =
      scenarios::run_scenario_json("scale", identity_overrides(3, 2)).dump(2);
  bool reproducible = once == twice;
  std::printf("%s\n", reproducible ? "bit-identical" : "DIVERGED");

  // --- part 3: speedup on a mid-size config -------------------------------
  std::printf("\n--- speedup: %zu sessions, threads 1 vs %zu ---\n",
              std::min<std::size_t>(sessions, 20'000), threads);
  scenarios::ScaleConfig mid = headline_config(
      std::min<std::size_t>(sessions, 20'000),
      std::max<std::size_t>(1, std::min<std::size_t>(sessions, 20'000) / 250),
      1);
  auto t0 = std::chrono::steady_clock::now();
  scenarios::ScaleResult serial_mid = scenarios::run_scale(mid);
  double serial_wall = seconds_since(t0);
  mid.threads = threads;
  t0 = std::chrono::steady_clock::now();
  scenarios::ScaleResult parallel_mid = scenarios::run_scale(mid);
  double parallel_wall = seconds_since(t0);
  double speedup = parallel_wall > 0.0 ? serial_wall / parallel_wall : 0.0;
  bool mid_equivalent =
      serial_mid.events == parallel_mid.events &&
      serial_mid.qoe.mean_engagement == parallel_mid.qoe.mean_engagement &&
      serial_mid.reallocations == parallel_mid.reallocations;
  std::printf("serial   %7.2f s\nparallel %7.2f s   speedup %.2fx (%s)\n",
              serial_wall, parallel_wall, speedup,
              mid_equivalent ? "outputs match" : "OUTPUTS DIVERGED");

  // --- part 4: the headline run -------------------------------------------
  std::printf("\n--- headline: %zu sessions over %zu sectors (flat) ---\n",
              sessions, sectors);
  long long rss_before = peak_rss_bytes();
  scenarios::ScaleConfig big = headline_config(sessions, sectors, threads);
  big.elide_quiescent = elide;
  scenarios::RunPerf head_perf;
  t0 = std::chrono::steady_clock::now();
  scenarios::ScaleResult r = scenarios::run_scale(big, {.perf = &head_perf});
  double big_wall = seconds_since(t0);
  long long rss_after = peak_rss_bytes();
  double events_per_sec =
      big_wall > 0.0 ? static_cast<double>(r.events) / big_wall : 0.0;
  double bytes_per_session =
      static_cast<double>(rss_after - rss_before) /
      static_cast<double>(sessions);
  bool exact = r.arrivals == sessions && r.qoe.sessions == sessions;
  bool completed = r.events > 0 && r.barrier_rounds > 0;
  std::printf("wall          %9.1f s\n", big_wall);
  std::printf("events        %9llu   (%.0f events/s)\n",
              static_cast<unsigned long long>(r.events), events_per_sec);
  std::printf("admitted      %9llu   (exact: %s)\n",
              static_cast<unsigned long long>(r.arrivals),
              exact ? "yes" : "NO");
  std::printf("peak conc.    %9zu sessions\n", r.peak_concurrent);
  std::printf("reallocations %9llu headroom grants\n",
              static_cast<unsigned long long>(r.reallocations));
  std::printf("dispatched    %9llu sector-rounds (%llu elided)\n",
              static_cast<unsigned long long>(r.sectors_dispatched),
              static_cast<unsigned long long>(r.sectors_elided));
  std::printf("phases        %9.1f s parallel advance, %.1f s serial barrier"
              " (serial fraction %.4f)\n",
              static_cast<double>(head_perf.parallel_advance_ns) / 1e9,
              static_cast<double>(head_perf.serial_barrier_ns) / 1e9,
              head_perf.serial_fraction());
  std::printf("memory        %9.0f bytes/session (peak RSS delta %lld MB)\n",
              bytes_per_session, (rss_after - rss_before) / (1024 * 1024));

  // --- part 5: off-peak diurnal, elision off vs on (E18) ------------------
  // Each mode is timed EONA_SCALE_DIURNAL_REPEATS times (alternating, so
  // slow host phases hit both modes) and the minimum wall is reported: the
  // simulated work per repeat is deterministic and identical, so min is
  // the right estimator of true cost on a noisy shared host.
  std::size_t repeats =
      std::max<std::size_t>(1, env_size("EONA_SCALE_DIURNAL_REPEATS", 3));
  std::printf("\n--- diurnal off-peak: %zu sessions over %zu sectors"
              " (min of %zu) ---\n",
              diurnal_sessions, diurnal_sectors, repeats);
  scenarios::ScaleConfig night =
      diurnal_config(diurnal_sessions, diurnal_sectors, threads);
  scenarios::ScaleResult night_off, night_on;
  scenarios::RunPerf night_off_perf, night_on_perf;
  double night_off_wall = 0.0, night_on_wall = 0.0;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    night.elide_quiescent = false;
    scenarios::RunPerf off_perf;
    t0 = std::chrono::steady_clock::now();
    scenarios::ScaleResult off_result =
        scenarios::run_scale(night, {.perf = &off_perf});
    double off_wall = seconds_since(t0);
    if (rep == 0 || off_wall < night_off_wall) {
      night_off_wall = off_wall;
      night_off_perf = off_perf;
      night_off = std::move(off_result);
    }
    night.elide_quiescent = true;
    scenarios::RunPerf on_perf;
    t0 = std::chrono::steady_clock::now();
    scenarios::ScaleResult on_result =
        scenarios::run_scale(night, {.perf = &on_perf});
    double on_wall = seconds_since(t0);
    if (rep == 0 || on_wall < night_on_wall) {
      night_on_wall = on_wall;
      night_on_perf = on_perf;
      night_on = std::move(on_result);
    }
  }
  double night_off_eps = night_off_wall > 0.0
                             ? static_cast<double>(night_off.events) /
                                   night_off_wall
                             : 0.0;
  double night_on_eps = night_on_wall > 0.0
                            ? static_cast<double>(night_on.events) /
                                  night_on_wall
                            : 0.0;
  double night_ratio =
      night_on_wall > 0.0 ? night_off_wall / night_on_wall : 0.0;
  bool diurnal_elides = night_on.sectors_elided > 0;
  bool diurnal_match =
      night_on.events == night_off.events &&
      night_on.arrivals == night_off.arrivals &&
      night_on.reallocations == night_off.reallocations &&
      night_on.qoe.mean_engagement == night_off.qoe.mean_engagement &&
      night_on.qoe.mean_buffering == night_off.qoe.mean_buffering;
  std::printf("elide off  %7.2f s   %9.0f events/s   serial fraction %.4f\n",
              night_off_wall, night_off_eps, night_off_perf.serial_fraction());
  std::printf("elide on   %7.2f s   %9.0f events/s   serial fraction %.4f\n",
              night_on_wall, night_on_eps, night_on_perf.serial_fraction());
  std::printf("elided     %llu of %llu sector-rounds   wall ratio %.2fx"
              " (%s)\n",
              static_cast<unsigned long long>(night_on.sectors_elided),
              static_cast<unsigned long long>(night_on.sectors_elided +
                                              night_on.sectors_dispatched),
              night_ratio, diurnal_match ? "results match" : "DIVERGED");

  bool pass = all_identical && elision_identical && reproducible &&
              mid_equivalent && exact && completed && diurnal_elides &&
              diurnal_match;
  std::printf("\n%s\n", pass ? "PASS" : "FAIL");

  core::JsonValue doc = core::JsonValue::object();
  doc.set("bench", core::JsonValue::string("scale"));
  core::JsonValue cfg = core::JsonValue::object();
  cfg.set("sessions", core::JsonValue::number(static_cast<double>(sessions)));
  cfg.set("sectors", core::JsonValue::number(static_cast<double>(sectors)));
  cfg.set("threads", core::JsonValue::number(static_cast<double>(threads)));
  cfg.set("elide", core::JsonValue::boolean(elide));
  doc.set("config", std::move(cfg));
  doc.set("identity", std::move(identity_rows));
  doc.set("elision_identity", std::move(elision_rows));
  core::JsonValue sp = core::JsonValue::object();
  sp.set("serial_wall_seconds", core::JsonValue::number(serial_wall));
  sp.set("parallel_wall_seconds", core::JsonValue::number(parallel_wall));
  sp.set("speedup", core::JsonValue::number(speedup));
  doc.set("speedup", std::move(sp));
  core::JsonValue head = core::JsonValue::object();
  head.set("wall_seconds", core::JsonValue::number(big_wall));
  head.set("events", core::JsonValue::number(static_cast<double>(r.events)));
  head.set("events_per_sec", core::JsonValue::number(events_per_sec));
  head.set("arrivals",
           core::JsonValue::number(static_cast<double>(r.arrivals)));
  head.set("peak_concurrent",
           core::JsonValue::number(static_cast<double>(r.peak_concurrent)));
  head.set("reallocations",
           core::JsonValue::number(static_cast<double>(r.reallocations)));
  head.set("barrier_rounds",
           core::JsonValue::number(static_cast<double>(r.barrier_rounds)));
  head.set("bytes_per_session", core::JsonValue::number(bytes_per_session));
  head.set("peak_rss_bytes",
           core::JsonValue::number(static_cast<double>(rss_after)));
  head.set("mean_engagement",
           core::JsonValue::number(r.qoe.mean_engagement));
  head.set("mean_buffering", core::JsonValue::number(r.qoe.mean_buffering));
  head.set("perf", perf_json(head_perf));
  doc.set("headline", std::move(head));
  core::JsonValue diurnal = core::JsonValue::object();
  core::JsonValue dcfg = core::JsonValue::object();
  dcfg.set("sessions",
           core::JsonValue::number(static_cast<double>(diurnal_sessions)));
  dcfg.set("sectors",
           core::JsonValue::number(static_cast<double>(diurnal_sectors)));
  dcfg.set("threads", core::JsonValue::number(static_cast<double>(threads)));
  diurnal.set("config", std::move(dcfg));
  core::JsonValue doff = core::JsonValue::object();
  doff.set("wall_seconds", core::JsonValue::number(night_off_wall));
  doff.set("events_per_sec", core::JsonValue::number(night_off_eps));
  doff.set("perf", perf_json(night_off_perf));
  diurnal.set("elide_off", std::move(doff));
  core::JsonValue don = core::JsonValue::object();
  don.set("wall_seconds", core::JsonValue::number(night_on_wall));
  don.set("events_per_sec", core::JsonValue::number(night_on_eps));
  don.set("perf", perf_json(night_on_perf));
  diurnal.set("elide_on", std::move(don));
  diurnal.set("wall_ratio", core::JsonValue::number(night_ratio));
  doc.set("diurnal", std::move(diurnal));
  core::JsonValue verdicts = core::JsonValue::object();
  verdicts.set("parallel_byte_identical",
               core::JsonValue::boolean(all_identical));
  verdicts.set("elision_byte_identical",
               core::JsonValue::boolean(elision_identical));
  verdicts.set("reproducible", core::JsonValue::boolean(reproducible));
  verdicts.set("speedup_outputs_match",
               core::JsonValue::boolean(mid_equivalent));
  verdicts.set("exact_admission", core::JsonValue::boolean(exact));
  verdicts.set("completed", core::JsonValue::boolean(completed));
  verdicts.set("diurnal_elides", core::JsonValue::boolean(diurnal_elides));
  verdicts.set("diurnal_outputs_match",
               core::JsonValue::boolean(diurnal_match));
  doc.set("verdicts", std::move(verdicts));

  std::string text = doc.dump(2);
  std::ofstream out(out_path, std::ios::binary);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out << "\n";
  std::printf("wrote %s\n", out_path.c_str());
  return pass ? 0 : 1;
}
