// perfbench: the compiled half of the benchmark (run.py runs it).
// Each process does one unit of work and prints one JSON line on stdout:
//
//   perfbench info
//       compiler and build type, for the results stamp
//   perfbench selftest <seed>
//       self-test of the outside-in scheduler counter
//   perfbench iter <workload> <seed> [threads]
//       untraced: the scenario call, then the store phase (end-to-end data)
//   perfbench trace <workload> <seed>
//       traced: per-layer counts and times, measured around public calls
//
// Scenarios run at kScenarioSeed; <seed> seeds the query mix.
//
// The workloads are defined here and nowhere else; run.py only names them.
#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "eona/json.hpp"
#include "scenarios/broker_outage.hpp"
#include "scenarios/lab.hpp"
#include "scenarios/scale.hpp"
#include "sim/trace.hpp"
#include "telemetry/column_store.hpp"

#include "sample_sector.hpp"
#include "step_counter.hpp"
#include "store_phase.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace eona;
using perfbench::Checks;
using perfbench::SampleSector;
using perfbench::StorePhase;
using Clock = std::chrono::steady_clock;

/// Store phase sizes: loads of the dump and plans in the query mix (4000
/// leave 40 samples beyond the 99th percentile), and timed passes over
/// the mix; the fastest load and each plan's best pass count.
constexpr std::size_t kReplays = 20;
constexpr std::size_t kQueries = 4000;
constexpr std::size_t kPasses = 5;

struct Workload {
  const char* name;
  bool scale;  ///< the scale scenario; otherwise broker_outage + store
  scenarios::ScaleConfig config;  ///< scale workloads only
  /// Sectors the benchmark rebuilds itself: the scale workloads' store
  /// phase and the traced run use sectors 0..n-1 of the workload.
  std::size_t sample_sectors = 0;
};

/// The seed every workload's scenario runs at; a run's own seed seeds the
/// query mix. Scenario seeds differ in cost per session by up to 15% on
/// scale_offpeak and a third on broker_outage, and ten scale_peak sectors
/// peak at 14 or 16 MiB by seed: more than a run can average out. Pinned,
/// every process of a run repeats the same work, and the run can take its
/// fastest.
constexpr std::uint64_t kScenarioSeed = 1;

/// Simulated run length: query windows fall inside it.
TimePoint horizon(const Workload& w) {
  return w.scale ? w.config.run_duration
                 : scenarios::BrokerOutageConfig{}.run_duration;
}

Workload find_workload(const std::string& name) {
  // scale_peak: bench_scale's headline density (250 sessions per sector)
  // with scale's default timing, on one thread. Ten sectors keep a call
  // near 1.5 s on a 4-core Xeon VM, so a run holds enough calls to catch
  // the host's fast spells.
  if (name == "scale_peak") {
    Workload w{"scale_peak", true, {}, 4};
    w.config.sessions = 2'500;
    w.config.sectors = 10;
    w.config.threads = 1;
    return w;
  }
  // scale_offpeak: a dead-of-night diurnal trough after an arrival window
  // that closes at 480 s of 900; 50 sessions per sector over 2000 sectors
  // on two sector threads. On a shared 4-core VM the same call spread 26%
  // from one process to the next at four threads, whose barrier waits on
  // whichever core a neighbour holds, and 9% at two.
  if (name == "scale_offpeak") {
    Workload w{"scale_offpeak", true, {}, 4};
    w.config.sessions = 100'000;
    w.config.sectors = 2'000;
    w.config.threads = 2;
    w.config.run_duration = 900.0;
    w.config.video_duration = 60.0;
    w.config.diurnal = true;
    w.config.diurnal_night_frac = 0.0;
    w.config.arrival_window = 480.0;
    return w;
  }
  // broker_store: the E20 broker_outage plane at its defaults (seed 1
  // included), with a ColumnStore attached.
  if (name == "broker_store")
    return Workload{"broker_store", false, {}, 0};
  throw ConfigError("unknown workload '" + name + "'");
}

std::string num_text(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::map<std::string, std::string> overrides(const Workload& w,
                                             std::size_t threads) {
  std::map<std::string, std::string> ov{
      {"seed", std::to_string(kScenarioSeed)}};
  if (!w.scale) return ov;
  const scenarios::ScaleConfig& c = w.config;
  ov["sessions"] = std::to_string(c.sessions);
  ov["sectors"] = std::to_string(c.sectors);
  ov["threads"] = std::to_string(threads != 0 ? threads : c.threads);
  ov["run_duration"] = num_text(c.run_duration);
  ov["video_duration"] = num_text(c.video_duration);
  ov["barrier_period"] = num_text(c.barrier_period);
  ov["diurnal"] = c.diurnal ? "true" : "false";
  ov["diurnal_night_frac"] = num_text(c.diurnal_night_frac);
  ov["arrival_window"] = num_text(c.arrival_window);
  return ov;
}

scenarios::ScaleConfig seeded(const Workload& w, std::uint64_t seed) {
  scenarios::ScaleConfig c = w.config;
  c.seed = seed;
  return c;
}

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

long rss_kb() {
  long pages = 0, resident = 0;
  std::ifstream statm("/proc/self/statm");
  statm >> pages >> resident;
  return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

/// Peak resident set of this process image, in KiB. VmHWM rather than
/// getrusage's ru_maxrss: the latter keeps the peak of the process before
/// exec, so under run.py it would read the Python parent's size. Read
/// without touching the heap, whose layout the store phase's timings
/// depend on.
long maxrss_kb() {
  char buf[4096];
  const int fd = open("/proc/self/status", O_RDONLY);
  if (fd < 0) return 0;
  const ssize_t n = read(fd, buf, sizeof(buf) - 1);
  close(fd);
  if (n <= 0) return 0;
  buf[n] = '\0';
  const char* at = std::strstr(buf, "VmHWM:");
  return at != nullptr ? std::atol(at + 6) : 0;
}

/// Bytes the allocator has handed out and not yet taken back: exact and
/// repeatable, unlike an RSS delta, which reads 0 on a warm heap.
long long heap_bytes() {
  struct mallinfo2 info = mallinfo2();
  return static_cast<long long>(info.uordblks + info.hblkhd);
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Lower nearest-rank percentile, the repository's convention.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

core::JsonValue num(double v) { return core::JsonValue::number(v); }

void write_checks(const Checks& checks, core::JsonValue& out) {
  out.set("checks", num(static_cast<double>(checks.attempted)));
  out.set("failed", num(static_cast<double>(checks.failed)));
  core::JsonValue list = core::JsonValue::array();
  for (const std::string& e : checks.errors)
    list.push_back(core::JsonValue::string(e));
  out.set("errors", std::move(list));
}

void write_store_phase(const StorePhase& sp, core::JsonValue& out) {
  out.set("store_rows", num(static_cast<double>(sp.rows)));
  out.set("dump_s", num(sp.dump_s));
  out.set("replay_s", num(sp.replay_s));
  out.set("queries", num(static_cast<double>(sp.query_us.size())));
  out.set("query_p50_us", num(percentile(sp.query_us, 0.50)));
  out.set("query_p99_us", num(percentile(sp.query_us, 0.99)));
}

/// Per plan, so run.py can take each plan's best over every process that
/// ran the same seed's mix.
void write_plan_us(const StorePhase& sp, core::JsonValue& out) {
  core::JsonValue plan_us = core::JsonValue::array();
  for (double us : sp.query_us) plan_us.push_back(num(us));
  out.set("plan_us", std::move(plan_us));
}

/// The per-plan-class medians and the size of a traced run's store.
void write_telemetry(const StorePhase& sp, core::JsonValue& m) {
  m.set("telemetry.store_rows", num(static_cast<double>(sp.rows)));
  m.set("telemetry.store_groups", num(static_cast<double>(sp.groups)));
  for (std::size_t c = 0; c < perfbench::kPlanClasses.size(); ++c)
    m.set(std::string("telemetry.query_us.") + perfbench::kPlanClasses[c],
          num(percentile(sp.class_us[c], 0.50)));
}

/// Sectors 0..n-1 of a scale workload, optionally all ingesting `store`.
std::vector<std::unique_ptr<SampleSector>> build_sample(
    const scenarios::ScaleConfig& config, std::size_t n,
    telemetry::ColumnStore* store = nullptr) {
  std::vector<std::unique_ptr<SampleSector>> sectors;
  for (std::size_t s = 0; s < n; ++s)
    sectors.push_back(perfbench::build_sector(config, s, store));
  return sectors;
}

double drive_sample_plain(std::vector<std::unique_ptr<SampleSector>>& sample,
                          const scenarios::ScaleConfig& config) {
  const Clock::time_point t0 = Clock::now();
  for (auto& sec : sample) perfbench::drive_plain(*sec, config);
  return seconds(t0, Clock::now());
}

double json_count(const core::JsonValue& obj, const char* key) {
  return obj.has(key) ? obj.at(key).as_number() : 0.0;
}

// --- iter ------------------------------------------------------------------

int cmd_iter(const Workload& w, std::uint64_t seed, std::size_t threads) {
  Checks checks;
  core::JsonValue out = core::JsonValue::object();
  const long rss_before = rss_kb();
  scenarios::RunPerf perf;
  telemetry::ColumnStore live;
  const Clock::time_point t0 = Clock::now();
  const core::JsonValue result = scenarios::run_scenario_json(
      w.scale ? "scale" : "broker_outage", overrides(w, threads),
      nullptr, nullptr, w.scale ? nullptr : &live, &perf);
  const double wall = seconds(t0, Clock::now());
  const long maxrss_run = maxrss_kb();
  const std::string text = result.dump(2);

  const core::JsonValue& qoe = result.at("qoe");
  double sessions = 0.0, stalls = json_count(qoe, "stalls");
  if (w.scale) {
    sessions = result.at("sessions").as_number();
    checks.check(sessions == static_cast<double>(w.config.sessions),
                 "scale admitted " + num_text(sessions) + " sessions, not " +
                     std::to_string(w.config.sessions));
  } else {
    const core::JsonValue& joiner = result.at("joiner");
    sessions = json_count(qoe, "sessions") + json_count(joiner, "sessions");
    stalls += json_count(joiner, "stalls");
  }
  checks.check(sessions > 0.0, "no sessions admitted");
  const double advance_s = static_cast<double>(perf.parallel_advance_ns) * 1e-9;
  const double barrier_s = static_cast<double>(perf.serial_barrier_ns) * 1e-9;

  out.set("workload", core::JsonValue::string(w.name));
  out.set("seed", num(static_cast<double>(seed)));
  out.set("digest", core::JsonValue::string(hex64(fnv1a(text))));
  out.set("wall_s", num(wall));
  out.set("sessions", num(sessions));
  out.set("sectors",
          num(w.scale ? static_cast<double>(w.config.sectors) : 1.0));
  out.set("stalls", num(stalls));
  out.set("events", num(static_cast<double>(perf.events)));
  out.set("advance_s", num(advance_s));
  out.set("barrier_s", num(barrier_s));
  out.set("dispatched", num(static_cast<double>(perf.sectors_dispatched)));
  out.set("elided", num(static_cast<double>(perf.sectors_elided)));
  out.set("rss_before_kb", num(static_cast<double>(rss_before)));
  out.set("maxrss_run_kb", num(static_cast<double>(maxrss_run)));

  // Store phase: scale's own call refuses a store, so its workloads hand
  // over the store of their first sectors, rebuilt here.
  StorePhase sp;
  if (w.scale) {
    const scenarios::ScaleConfig config = seeded(w, kScenarioSeed);
    telemetry::ColumnStore sample_store;
    auto sample = build_sample(config, w.sample_sectors, &sample_store);
    drive_sample_plain(sample, config);
    sample.clear();
    sp = perfbench::run_store_phase(sample_store, seed, horizon(w), kReplays,
                                    kQueries, kPasses, checks);
  } else {
    sp = perfbench::run_store_phase(live, seed, horizon(w), kReplays,
                                    kQueries, kPasses, checks);
  }
  write_store_phase(sp, out);
  // Set-up: building the sector worlds and folding their results for
  // scale; handing the store over (dump, then reload) for broker_store,
  // whose world is built inside the scenario call out of reach.
  out.set("setup_s", num(w.scale ? wall - advance_s - barrier_s
                                  : sp.dump_s + sp.replay_s));
  out.set("maxrss_kb", num(static_cast<double>(maxrss_kb())));
  write_plan_us(sp, out);  // after the peak is read: it is output only
  write_checks(checks, out);
  std::printf("%s\n", out.dump(0).c_str());
  return 0;
}

// --- trace -----------------------------------------------------------------

/// Bus-side counts of one traced sample (subscriptions on every sector).
struct BusCounts {
  std::uint64_t recomputes = 0;
  std::uint64_t dirty_sum = 0;
  std::uint64_t dirty_max = 0;
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;

  void subscribe(sim::EventBus& bus) {
    bus.subscribe<sim::RateRecomputeEvent>(
        [this](const sim::RateRecomputeEvent& e) {
          ++recomputes;
          dirty_sum += e.affected_flows;
          dirty_max = std::max<std::uint64_t>(dirty_max, e.affected_flows);
        });
    bus.subscribe<sim::ReportPublishedEvent>(
        [this](const sim::ReportPublishedEvent&) { ++published; });
    bus.subscribe<sim::ReportDeliveredEvent>(
        [this](const sim::ReportDeliveredEvent&) { ++delivered; });
    bus.subscribe<sim::ReportDroppedEvent>(
        [this](const sim::ReportDroppedEvent&) { ++dropped; });
  }
};

void write_bus_counts(const BusCounts& bus, core::JsonValue& m) {
  m.set("net.recomputes", num(static_cast<double>(bus.recomputes)));
  m.set("net.dirty_flows_mean",
        num(bus.recomputes > 0 ? static_cast<double>(bus.dirty_sum) /
                                     static_cast<double>(bus.recomputes)
                               : 0.0));
  m.set("net.dirty_flows_max", num(static_cast<double>(bus.dirty_max)));
  m.set("eona.reports_published", num(static_cast<double>(bus.published)));
  m.set("eona.reports_delivered", num(static_cast<double>(bus.delivered)));
  m.set("eona.reports_dropped", num(static_cast<double>(bus.dropped)));
}

int cmd_trace_scale(const Workload& w, std::uint64_t seed) {
  Checks checks;
  core::JsonValue m = core::JsonValue::object();
  const scenarios::ScaleConfig config = seeded(w, kScenarioSeed);
  const std::size_t n = w.sample_sectors;

  // Untraced sample: build cost (first round) and drive wall (median of 3).
  std::vector<double> plain_wall;
  std::vector<double> network_us, control_us, pool_us;
  for (int round = 0; round < 3; ++round) {
    const long long heap0 = heap_bytes();
    auto sample = build_sample(config, n);
    if (round == 0) {
      m.set("mem.bytes_per_sector",
            num(static_cast<double>(heap_bytes() - heap0) /
                static_cast<double>(n)));
      for (const auto& sec : sample) {
        network_us.push_back(sec->build.network_us);
        control_us.push_back(sec->build.control_us);
        pool_us.push_back(sec->build.pool_us);
      }
    }
    plain_wall.push_back(drive_sample_plain(sample, config));
  }
  const double plain = percentile(plain_wall, 0.50);
  m.set("setup.network_us", num(percentile(network_us, 0.50)));
  m.set("setup.control_us", num(percentile(control_us, 0.50)));
  m.set("setup.pool_us", num(percentile(pool_us, 0.50)));

  // The same sample ingesting a store: ingest overhead and query classes.
  {
    telemetry::ColumnStore store;
    auto sample = build_sample(config, n, &store);
    const double with_store = drive_sample_plain(sample, config);
    sample.clear();
    m.set("telemetry.ingest_overhead", num(with_store / plain));
    const StorePhase sp =
        perfbench::run_store_phase(store, seed, horizon(w), kReplays, kQueries,
                                   kPasses, checks);
    write_telemetry(sp, m);
  }

  // Traced sample: every sector stepped through a StepCounter with bus
  // subscriptions, spawn timing and per-step timing.
  auto sample = build_sample(config, n);
  BusCounts bus;
  std::vector<double> spawn_us, step_us, recompute_step_us;
  for (auto& sec : sample) {
    bus.subscribe(sec->world->bus());
    sec->spawn_us = &spawn_us;
  }
  perfbench::SchedCounts total;
  const Clock::time_point t0 = Clock::now();
  for (auto& sec : sample) {
    sim::Scheduler& sched = sec->world->sched();
    net::Network& network = sec->world->network();
    perfbench::StepCounter counter(sched);
    std::uint64_t recomputes = network.recompute_count();
    auto on_step = [&](std::uint64_t ns) {
      const double us = static_cast<double>(ns) * 1e-3;
      step_us.push_back(us);
      if (network.recompute_count() != recomputes) {
        recomputes = network.recompute_count();
        recompute_step_us.push_back(us);
      }
    };
    perfbench::drive_sector(
        *sec, config, [&](TimePoint t) { counter.run_until(t, on_step); },
        [&](auto&& fn) { counter.outside(fn); });
    const perfbench::SchedCounts& c = counter.counts();
    checks.check(c.fired == sched.events_fired(),
                 "counted fires differ from Scheduler::events_fired");
    checks.check(c.pushed == c.fired + c.stale + sched.pending_events(),
                 "pushes do not balance fires + stale pops + queued");
    total.fired += c.fired;
    total.pushed += c.pushed;
    total.stale += c.stale;
    total.peak = std::max(total.peak, c.peak);
  }
  const double traced = seconds(t0, Clock::now());

  scenarios::RunPerf exchange;
  std::uint64_t reattaches = 0, audit_checks = 0;
  for (auto& sec : sample) {
    sim::World& world = *sec->world;
    exchange.add_exchange(world.exchange());
    reattaches += world.appp().port().reattach_count() +
                  world.infp().port().reattach_count();
    audit_checks += world.auditor().check_count();
  }

  m.set("sample.sectors", num(static_cast<double>(n)));
  m.set("sample.events_fired", num(static_cast<double>(total.fired)));
  m.set("sim.events_pushed", num(static_cast<double>(total.pushed)));
  m.set("sim.stale_pops", num(static_cast<double>(total.stale)));
  m.set("sim.pushed_per_fired", num(static_cast<double>(total.pushed) /
                                    static_cast<double>(total.fired)));
  m.set("sim.queue_depth_peak", num(static_cast<double>(total.peak)));
  m.set("sim.step_us_p50", num(percentile(step_us, 0.50)));
  m.set("sim.step_us_p99", num(percentile(step_us, 0.99)));
  m.set("net.recompute_step_us_p50", num(percentile(recompute_step_us, 0.50)));
  m.set("app.spawn_us_p50", num(percentile(spawn_us, 0.50)));
  write_bus_counts(bus, m);
  m.set("eona.clamps", num(static_cast<double>(exchange.clamp_count)));
  m.set("eona.epoch_rejected",
        num(static_cast<double>(exchange.epoch_rejected)));
  m.set("eona.rate_limited", num(static_cast<double>(exchange.rate_limited)));
  m.set("eona.reattaches", num(static_cast<double>(reattaches)));
  m.set("audit.checks", num(static_cast<double>(audit_checks)));
  m.set("trace.overhead", num(traced / plain));

  core::JsonValue out = core::JsonValue::object();
  out.set("workload", core::JsonValue::string(w.name));
  out.set("metrics", std::move(m));
  write_checks(checks, out);
  std::printf("%s\n", out.dump(0).c_str());
  return 0;
}

/// Count trace lines by type, and the dirty-component sizes of recomputes.
void scan_trace(const std::string& buffer,
                std::map<std::string, std::uint64_t>& types, BusCounts& bus) {
  constexpr std::string_view kType = "\"type\":\"";
  constexpr std::string_view kFlows = "\"affected_flows\":";
  std::size_t start = 0;
  while (start < buffer.size()) {
    std::size_t nl = buffer.find('\n', start);
    if (nl == std::string::npos) nl = buffer.size();
    const std::string_view line(buffer.data() + start, nl - start);
    start = nl + 1;
    const std::size_t at = line.find(kType);
    if (at == std::string_view::npos) continue;
    const std::size_t from = at + kType.size();
    const std::string type(line.substr(from, line.find('"', from) - from));
    ++types[type];
    if (type == "rate_recompute") {
      const std::size_t f = line.find(kFlows);
      const std::uint64_t flows =
          f == std::string_view::npos
              ? 0
              : std::strtoull(line.data() + f + kFlows.size(), nullptr, 10);
      ++bus.recomputes;
      bus.dirty_sum += flows;
      bus.dirty_max = std::max(bus.dirty_max, flows);
    }
  }
  bus.published = types["report_published"];
  bus.delivered = types["report_delivered"];
  bus.dropped = types["report_dropped"];
}

int cmd_trace_broker(const Workload& w, std::uint64_t seed) {
  Checks checks;
  core::JsonValue m = core::JsonValue::object();
  const auto ov = overrides(w, 0);
  auto timed = [&](sim::TraceWriter* trace, telemetry::ColumnStore* store,
                   scenarios::RunPerf& perf, std::string& text) {
    const Clock::time_point t0 = Clock::now();
    text = scenarios::run_scenario_json("broker_outage", ov, nullptr, trace,
                                        store, &perf)
               .dump(2);
    return seconds(t0, Clock::now());
  };

  telemetry::ColumnStore store;
  scenarios::RunPerf perf_store, perf_plain, perf_traced;
  std::string text_store, text_plain, text_traced;
  const double with_store = timed(nullptr, &store, perf_store, text_store);
  const double plain = timed(nullptr, nullptr, perf_plain, text_plain);
  sim::TraceWriter trace;
  telemetry::ColumnStore traced_store;
  const double traced = timed(&trace, &traced_store, perf_traced, text_traced);
  checks.check(text_store == text_plain && text_store == text_traced,
               "attaching a store or a trace changed the scenario JSON");
  checks.check(store.dump_rows() == traced_store.dump_rows(),
               "attaching a trace changed the store's rows");

  std::map<std::string, std::uint64_t> types;
  BusCounts bus;
  scan_trace(trace.buffer(), types, bus);
  write_bus_counts(bus, m);
  const core::JsonValue result = core::JsonValue::parse(text_store);
  m.set("eona.clamps", num(static_cast<double>(perf_store.clamp_count)));
  m.set("eona.epoch_rejected",
        num(static_cast<double>(perf_store.epoch_rejected)));
  m.set("eona.rate_limited", num(static_cast<double>(perf_store.rate_limited)));
  m.set("eona.reattaches", num(json_count(result, "reattaches")));
  m.set("audit.checks", num(json_count(result, "auditor_checks")));
  m.set("telemetry.ingest_overhead", num(with_store / plain));
  m.set("trace.overhead", num(traced / with_store));
  m.set("trace.lines", num(static_cast<double>(trace.line_count())));

  const StorePhase sp =
      perfbench::run_store_phase(store, seed, horizon(w), kReplays, kQueries,
                                 kPasses, checks);
  write_telemetry(sp, m);

  core::JsonValue counts = core::JsonValue::object();
  for (const auto& [type, count] : types)
    counts.set(type, num(static_cast<double>(count)));
  core::JsonValue out = core::JsonValue::object();
  out.set("workload", core::JsonValue::string(w.name));
  out.set("metrics", std::move(m));
  out.set("trace_types", std::move(counts));
  write_checks(checks, out);
  std::printf("%s\n", out.dump(0).c_str());
  return 0;
}

// --- selftest --------------------------------------------------------------

bool same_qoe(const scenarios::QoeSummary& a, const scenarios::QoeSummary& b) {
  auto bits = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  return a.sessions == b.sessions && a.stalls == b.stalls &&
         a.cdn_switches == b.cdn_switches &&
         a.server_switches == b.server_switches &&
         bits(a.mean_buffering, b.mean_buffering) &&
         bits(a.p90_buffering, b.p90_buffering) &&
         bits(a.mean_bitrate, b.mean_bitrate) &&
         bits(a.mean_join_time, b.mean_join_time) &&
         bits(a.mean_engagement, b.mean_engagement);
}

int cmd_selftest(std::uint64_t seed) {
  Checks checks;

  // Part 1: a hand-built scheduler with known posts, a gate close and a
  // cancel. Five entries are queued before the counter attaches; the t=1
  // action posts two more and one is posted between steps, so 8 pushes.
  // The gated t=4 entry and the cancelled t=5 entry are the 2 stale pops;
  // the other 6 fire. The queue peaks at 6 right after the t=1 action.
  {
    sim::Scheduler s;
    int ran = 0;
    sim::EventHandle cancelled;
    sim::Gate gate = s.open_gate();
    auto tick = [&ran] { ++ran; };
    s.post_at(1.0, [&] {
      ++ran;
      s.post_at(6.0, tick);
      s.post_at(7.0, tick);
    });
    s.post_at(2.0, [&] {
      ++ran;
      s.close_gate(gate);
    });
    s.post_at(3.0, [&] {
      ++ran;
      s.cancel(cancelled);
    });
    s.post_at(4.0, gate, tick);
    cancelled = s.schedule_at(5.0, tick);

    perfbench::StepCounter counter(s);
    counter.run_until(2.5);
    checks.check(s.now() == 2.5, "counter did not park the clock at 2.5");
    counter.outside([&] { s.post_at(8.0, tick); });
    counter.run_until(10.0);
    const perfbench::SchedCounts& c = counter.counts();
    auto expect = [&](const char* what, std::uint64_t got, std::uint64_t want) {
      checks.check(got == want, std::string("hand-built: ") + what + " " +
                                    std::to_string(got) + " != " +
                                    std::to_string(want));
    };
    expect("pushed", c.pushed, 8);
    expect("fired", c.fired, 6);
    expect("stale", c.stale, 2);
    expect("peak", c.peak, 6);
    checks.check(s.events_fired() == 6 && ran == 6,
                 "hand-built: scheduler fired a different count");
    checks.check(s.now() == 10.0 && s.pending_events() == 0,
                 "hand-built: clock or queue wrong at the end");
  }

  // Part 2: one scale_peak sector driven by step() through the counter
  // matches the same sector driven by run_until.
  {
    const scenarios::ScaleConfig config =
        seeded(find_workload("scale_peak"), seed);
    auto plain = perfbench::build_sector(config, 0);
    perfbench::drive_plain(*plain, config);
    auto stepped = perfbench::build_sector(config, 0);
    sim::Scheduler& sched = stepped->world->sched();
    perfbench::StepCounter counter(sched);
    perfbench::drive_sector(
        *stepped, config, [&](TimePoint t) { counter.run_until(t); },
        [&](auto&& fn) { counter.outside(fn); });
    const perfbench::SchedCounts& c = counter.counts();
    checks.check(sched.events_fired() == plain->world->sched().events_fired(),
                 "stepped sector fired a different number of events");
    checks.check(sched.now() == plain->world->sched().now(),
                 "stepped sector ended at a different clock");
    checks.check(c.fired == sched.events_fired(),
                 "counter fires differ from Scheduler::events_fired");
    checks.check(c.pushed == c.fired + c.stale + sched.pending_events(),
                 "pushes do not balance fires + stale pops + queued");
    checks.check(
        same_qoe(scenarios::QoeSummary::from(stepped->pool->summaries()),
                 scenarios::QoeSummary::from(plain->pool->summaries())),
                 "stepped sector's sessions differ from run_until's");
  }

  core::JsonValue out = core::JsonValue::object();
  write_checks(checks, out);
  std::printf("%s\n", out.dump(0).c_str());
  return 0;
}

int cmd_info() {
  core::JsonValue out = core::JsonValue::object();
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  out.set("compiler", core::JsonValue::string(compiler));
  out.set("build_type", core::JsonValue::string(PERFBENCH_BUILD_TYPE));
  out.set("scenario_seed", num(static_cast<double>(kScenarioSeed)));
  std::printf("%s\n", out.dump(0).c_str());
  return 0;
}

std::uint64_t parse_u64(const std::string& text, const char* what) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used, 10);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || text[0] == '-')
    throw ConfigError(std::string(what) +
                      " must be a non-negative integer, got '" + text + "'");
  return v;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench info\n"
               "       perfbench selftest <seed>\n"
               "       perfbench iter <workload> <seed> [threads]\n"
               "       perfbench trace <workload> <seed>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 1 && args[0] == "info") return cmd_info();
    if (args.size() == 2 && args[0] == "selftest")
      return cmd_selftest(parse_u64(args[1], "seed"));
    if ((args.size() == 3 || args.size() == 4) && args[0] == "iter") {
      const std::size_t threads =
          args.size() == 4 ? parse_u64(args[3], "threads") : 0;
      return cmd_iter(find_workload(args[1]), parse_u64(args[2], "seed"),
                      threads);
    }
    if (args.size() == 3 && args[0] == "trace") {
      const Workload w = find_workload(args[1]);
      const std::uint64_t seed = parse_u64(args[2], "seed");
      return w.scale ? cmd_trace_scale(w, seed) : cmd_trace_broker(w, seed);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
