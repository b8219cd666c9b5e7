// eona_lab: command-line driver for the experiment scenarios.
//
// Run any scenario by name with key=value overrides; results print as JSON
// (machine-readable) and recorded time series can be dumped as CSV --
// the surface a downstream user scripts against. The heavy lifting lives in
// scenarios/lab.hpp (single runs) and scenarios/sweep.hpp (multi-run
// sweeps), so sweeps and single runs share one code path per scenario.
//
//   $ eona_lab flashcrowd mode=eona access_capacity_mbps=80 seed=7
//   $ eona_lab oscillation mode=baseline run_duration=1800 --series=csv
//   $ eona_lab quickstart mode=eona --trace=events.jsonl
//   $ eona_lab sweep flashcrowd seeds=1..8 modes=baseline,eona threads=4
//   $ eona_lab list
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "eona/json.hpp"
#include "scenarios/lab.hpp"
#include "scenarios/sweep.hpp"
#include "sim/trace.hpp"
#include "telemetry/column_store.hpp"
#include "telemetry/store_replay.hpp"

using namespace eona;

namespace {

struct Args {
  std::string scenario;
  std::map<std::string, std::string> overrides;
  bool csv_series = false;
  bool perf = false;       ///< --perf; wall-clock + events/sec to stderr
  std::string trace_path;  ///< --trace=FILE; empty = no trace
  std::string store_path;  ///< --store=FILE; empty = no store dump
};

Args parse_args(int argc, char** argv, int first) {
  Args args;
  if (argc > first) args.scenario = argv[first];
  for (int i = first + 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token == "--series=csv") {
      args.csv_series = true;
      continue;
    }
    if (token == "--perf") {
      args.perf = true;
      continue;
    }
    if (token.rfind("--trace=", 0) == 0) {
      args.trace_path = token.substr(8);
      if (args.trace_path.empty())
        throw ConfigError("--trace needs a file path");
      continue;
    }
    if (token.rfind("--store=", 0) == 0) {
      args.store_path = token.substr(8);
      if (args.store_path.empty())
        throw ConfigError("--store needs a file path");
      continue;
    }
    auto eq = token.find('=');
    if (eq == std::string::npos)
      throw ConfigError("expected key=value, got '" + token + "'");
    // Sugar: --key=value is the same override as key=value (reserved flags
    // were consumed above), so --faults=PLAN sets the chaos plan.
    std::size_t start = token.rfind("--", 0) == 0 ? 2 : 0;
    args.overrides[token.substr(start, eq - start)] = token.substr(eq + 1);
  }
  return args;
}

void dump_series_csv(const sim::MetricSet& metrics) {
  for (const auto& [name, series] : metrics.all_series()) {
    std::printf("# series,%s\n", name.c_str());
    std::printf("t,value\n");
    for (const auto& s : series.samples())
      std::printf("%.3f,%.6g\n", s.t, s.value);
  }
}

void write_trace_file(const std::string& path, const std::string& buffer) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw ConfigError("cannot open trace file '" + path + "'");
  out.write(buffer.data(),
            static_cast<std::streamsize>(buffer.size()));
}

/// Peak resident set size in bytes (Linux ru_maxrss is KiB).
long long peak_rss_bytes() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<long long>(usage.ru_maxrss) * 1024;
}

int run_single(const Args& args) {
  sim::MetricSet series;
  sim::TraceWriter trace;
  telemetry::ColumnStore store;
  scenarios::RunPerf perf;
  auto t0 = std::chrono::steady_clock::now();
  core::JsonValue out = scenarios::run_scenario_json(
      args.scenario, args.overrides, args.csv_series ? &series : nullptr,
      args.trace_path.empty() ? nullptr : &trace,
      args.store_path.empty() ? nullptr : &store,
      args.perf ? &perf : nullptr);
  auto t1 = std::chrono::steady_clock::now();
  std::printf("%s\n", out.dump(2).c_str());
  if (args.perf) {
    // Perf goes to stderr so stdout stays the byte-stable scenario JSON.
    double wall = std::chrono::duration<double>(t1 - t0).count();
    core::JsonValue p = core::JsonValue::object();
    p.set("wall_seconds", core::JsonValue::number(wall));
    p.set("events", core::JsonValue::number(static_cast<double>(perf.events)));
    p.set("events_per_sec",
          core::JsonValue::number(
              wall > 0.0 ? static_cast<double>(perf.events) / wall : 0.0));
    p.set("peak_rss_bytes",
          core::JsonValue::number(static_cast<double>(peak_rss_bytes())));
    // Phase breakdown (barrier-scheduled scenarios fill these; others
    // report zeros): where the wall clock went and how sparse the rounds
    // were. serial_fraction is the coordinator's share of accounted time.
    p.set("barrier_rounds",
          core::JsonValue::number(static_cast<double>(perf.barrier_rounds)));
    p.set("sectors_dispatched",
          core::JsonValue::number(
              static_cast<double>(perf.sectors_dispatched)));
    p.set("sectors_elided",
          core::JsonValue::number(static_cast<double>(perf.sectors_elided)));
    p.set("parallel_advance_seconds",
          core::JsonValue::number(
              static_cast<double>(perf.parallel_advance_ns) / 1e9));
    p.set("serial_barrier_seconds",
          core::JsonValue::number(
              static_cast<double>(perf.serial_barrier_ns) / 1e9));
    p.set("serial_fraction", core::JsonValue::number(perf.serial_fraction()));
    // Broker counters (scenarios with an exchange; zeros otherwise): quota
    // clamps at publish, per-leg rate-cap drops summed over legs, and
    // publishes fenced by a crashed/stale-epoch broker.
    p.set("clamp_count",
          core::JsonValue::number(static_cast<double>(perf.clamp_count)));
    p.set("rate_limited",
          core::JsonValue::number(static_cast<double>(perf.rate_limited)));
    p.set("epoch_rejected",
          core::JsonValue::number(static_cast<double>(perf.epoch_rejected)));
    std::fprintf(stderr, "%s\n", p.dump(2).c_str());
  }
  if (args.csv_series) dump_series_csv(series);
  if (!args.trace_path.empty())
    write_trace_file(args.trace_path, trace.buffer());
  if (!args.store_path.empty())
    write_trace_file(args.store_path, store.dump_rows());
  return 0;
}

// --- the query subcommand -------------------------------------------------

telemetry::Agg parse_agg(const std::string& text) {
  if (text == "count") return telemetry::Agg::kCount;
  if (text == "sum") return telemetry::Agg::kSum;
  if (text == "mean") return telemetry::Agg::kMean;
  if (text == "p50") return telemetry::Agg::kP50;
  if (text == "p90") return telemetry::Agg::kP90;
  throw ConfigError("agg must be count|sum|mean|p50|p90");
}

/// {"isp", "cdn"} -> Dim mask.
telemetry::Dim parse_group_by(const std::vector<std::string>& dims) {
  telemetry::Dim mask = telemetry::Dim::kNone;
  for (const std::string& item : dims) {
    if (item == "isp") mask = mask | telemetry::Dim::kIsp;
    else if (item == "cdn") mask = mask | telemetry::Dim::kCdn;
    else if (item == "server") mask = mask | telemetry::Dim::kServer;
    else if (item == "region") mask = mask | telemetry::Dim::kRegion;
    else throw ConfigError("group_by dims are isp|cdn|server|region");
  }
  return mask;
}

/// The query subcommand's keys, read into `q`.
void read_query_keys(scenarios::Overrides& ov, telemetry::StoreQuery& q) {
  ov.text("metric", q.metric);
  std::string agg;
  if (ov.text("agg", agg)) q.agg = parse_agg(agg);
  std::vector<std::string> dims;
  if (ov.list("group_by", dims)) q.group_by = parse_group_by(dims);
  ov.number("t0", q.t0);
  ov.number("t1", q.t1);
  std::uint32_t id = 0;
  if (ov.integer("isp", id)) q.isp = IspId(id);
  if (ov.integer("cdn", id)) q.cdn = CdnId(id);
  if (ov.integer("server", id)) q.server = ServerId(id);
  if (ov.integer("region", id)) q.region = id;
  std::uint64_t entity = 0;
  if (ov.integer("entity", entity)) q.entity = entity;
}

/// eona_lab query FILE [metric=M] [key=value ...]: load a store dump (or a
/// --trace JSONL, which replays through the same event->row mapping) and run
/// one query plan against it. Without metric= it lists what is queryable.
int run_query_cmd(int argc, char** argv) {
  if (argc < 3) throw ConfigError("query: store/trace JSONL file required");
  std::string path = argv[2];
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("cannot open store file '" + path + "'");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());

  telemetry::ColumnStore store;
  telemetry::replay_jsonl(store, text);

  Args args = parse_args(argc, argv, 2);  // re-parse: argv[2] is the "name"
  scenarios::Overrides ov(args.overrides);
  telemetry::StoreQuery q;
  read_query_keys(ov, q);
  (void)ov.finish("query: ");

  core::JsonValue out = core::JsonValue::object();
  out.set("file", core::JsonValue::string(path));
  out.set("rows", core::JsonValue::number(static_cast<double>(
                      store.row_count())));
  if (q.metric.empty()) {
    // No plan: describe the store so the user can compose one.
    core::JsonValue metrics = core::JsonValue::array();
    for (const std::string& name : store.metric_names())
      metrics.push_back(core::JsonValue::string(name));
    out.set("metrics", std::move(metrics));
    out.set("groups", core::JsonValue::number(
                          static_cast<double>(store.group_count())));
    std::printf("%s\n", out.dump(2).c_str());
    return 0;
  }

  out.set("metric", core::JsonValue::string(q.metric));
  out.set("agg", core::JsonValue::string(telemetry::agg_name(q.agg)));
  core::JsonValue results = core::JsonValue::array();
  for (const telemetry::StoreResultRow& r : store.run(q)) {
    core::JsonValue row = core::JsonValue::object();
    if (has_dim(q.group_by, telemetry::Dim::kIsp))
      row.set("isp", core::JsonValue::number(r.key.isp.value()));
    if (has_dim(q.group_by, telemetry::Dim::kCdn))
      row.set("cdn", core::JsonValue::number(r.key.cdn.value()));
    if (has_dim(q.group_by, telemetry::Dim::kServer))
      row.set("server", core::JsonValue::number(r.key.server.value()));
    if (has_dim(q.group_by, telemetry::Dim::kRegion))
      row.set("region", core::JsonValue::number(r.key.region));
    row.set("rows", core::JsonValue::number(static_cast<double>(r.rows)));
    row.set("value", core::JsonValue::number(r.value));
    results.push_back(std::move(row));
  }
  out.set("results", std::move(results));
  std::printf("%s\n", out.dump(2).c_str());
  return 0;
}

/// The sweep subcommand's own keys, read into `spec`; every other key is a
/// scenario override applied to each run.
void read_sweep_keys(scenarios::Overrides& ov, scenarios::SweepSpec& spec) {
  ov.integers("seeds", spec.seeds);
  ov.list("modes", spec.modes);
  ov.text("mode_key", spec.mode_key);
  ov.integer("threads", spec.threads, scenarios::Overrides::kMaxThreads);
}

int run_sweep_cmd(int argc, char** argv) {
  Args args = parse_args(argc, argv, 2);
  if (args.scenario.empty())
    throw ConfigError("sweep: scenario name required");
  scenarios::SweepSpec spec;
  spec.scenario = args.scenario;
  spec.seeds = {1};
  scenarios::Overrides ov(args.overrides);
  read_sweep_keys(ov, spec);
  spec.overrides = ov.rest();
  std::string trace;
  core::JsonValue out = scenarios::run_sweep(
      spec, args.trace_path.empty() ? nullptr : &trace);
  std::printf("%s\n", out.dump(2).c_str());
  if (!args.trace_path.empty()) write_trace_file(args.trace_path, trace);
  return 0;
}

/// `text` word-wrapped to 78 columns, every line indented by `indent`.
std::string wrapped(const std::string& text, std::size_t indent) {
  std::string out, line;
  std::istringstream words(text);
  for (std::string word; words >> word;) {
    if (!line.empty() && indent + line.size() + 1 + word.size() > 78) {
      out += std::string(indent, ' ') + line + "\n";
      line.clear();
    }
    line += (line.empty() ? "" : " ") + word;
  }
  if (!line.empty()) out += std::string(indent, ' ') + line + "\n";
  return out;
}

std::string comma_joined(const std::vector<std::string>& keys) {
  std::string text;
  for (const std::string& key : keys) text += (text.empty() ? "" : ", ") + key;
  return text;
}

/// Usage text. Every key list is generated from the parsers themselves, so
/// it cannot drift from what they accept.
void usage(std::FILE* out = stdout) {
  std::string text =
      "usage: eona_lab <scenario> [key=value ...] [--series=csv]\n"
      "                [--trace=FILE] [--store=FILE] [--perf]\n"
      "       eona_lab sweep <scenario> [key=value ...] [--trace=FILE]\n"
      "       eona_lab query <FILE> [key=value ...]\n"
      "       eona_lab list\n"
      "scenarios and their keys:\n";
  for (const std::string& name : scenarios::scenario_names()) {
    text += "  " + name + "\n" + wrapped(scenarios::scenario_about(name), 6);
    text += wrapped("keys: " + comma_joined(scenarios::scenario_keys(name)), 6);
  }
  text += "subcommand keys:\n";
  scenarios::Overrides sweep_keys = scenarios::Overrides::recorder();
  scenarios::SweepSpec spec;
  read_sweep_keys(sweep_keys, spec);
  text += wrapped("sweep: " + comma_joined(sweep_keys.keys()) +
                      " (every other key applies to each run)",
                  2);
  scenarios::Overrides query_keys = scenarios::Overrides::recorder();
  telemetry::StoreQuery query;
  read_query_keys(query_keys, query);
  text += wrapped("query: " + comma_joined(query_keys.keys()), 2);
  text +=
      "values: numbers are finite and >= 0 (*_mbps keys in Mbit/s), integers\n"
      "are plain digits, booleans are 1|0|true|false|yes|no, and mode is\n"
      "baseline|eona|oracle; anything else is rejected with the key named.\n"
      "overrides may also be spelled --key=value.\n"
      "--series=csv dumps recorded time series.\n"
      "--faults=PLAN injects a chaos plan (every scenario; scale and cellular\n"
      "accept only the empty plan), e.g.\n"
      "  eona_lab failover mode=eona --faults='down:X@B@120;up:X@B@180'\n"
      "plan grammar: kind:target@t[:factor] clauses joined by ';', where kind\n"
      "is down|up|brownout|crash|restart, target is a topology link name,\n"
      "cdn/serverindex, or the literal 'exchange' (crash/restart only -- the\n"
      "broker itself dies and returns), and factor is the brownout's\n"
      "remaining fraction. Malformed clauses are rejected with the offending\n"
      "token and its byte position.\n"
      "--trace=FILE writes the run's JSONL event trace (bit-identical for a\n"
      "fixed seed, for any sweep thread count).\n"
      "--store=FILE ingests the run's events into the columnar telemetry\n"
      "store and dumps its rows as JSONL; `eona_lab query` loads such a dump\n"
      "(or a --trace file) and runs one aggregate plan against it: agg is\n"
      "count|sum|mean|p50|p90 and group_by a list of isp,cdn,server,region.\n"
      "With no metric= the query subcommand lists the queryable metrics.\n"
      "A malformed line in the file is rejected with an error naming the\n"
      "line and the field.\n"
      "sweep fans {seeds} x {modes} across a thread pool and prints one\n"
      "collated JSON document; seeds is a..b or a,b,c, each of modes is set\n"
      "as mode_key (default mode), and threads=0 means all cores. The output\n"
      "is identical for any thread count.\n"
      "--perf prints wall-clock seconds, events/sec, peak RSS, and (for\n"
      "barrier-scheduled scenarios) the phase breakdown -- barrier_rounds,\n"
      "sectors_dispatched/elided, parallel_advance/serial_barrier seconds,\n"
      "serial_fraction -- plus the broker counters clamp_count, rate_limited\n"
      "and epoch_rejected -- as JSON on stderr (stdout stays the byte-stable\n"
      "scenario result).\n";
  std::fputs(text.c_str(), out);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::string(argv[1]) == "sweep")
      return run_sweep_cmd(argc, argv);
    if (argc >= 2 && std::string(argv[1]) == "query")
      return run_query_cmd(argc, argv);
    Args args = parse_args(argc, argv, 1);
    if (args.scenario.empty() || args.scenario == "list") {
      usage();
      return 0;
    }
    // Unknown subcommand: full usage (every scenario plus sweep/query/list)
    // on stderr, non-zero exit -- so a typo never reads as an empty success.
    const auto& names = scenarios::scenario_names();
    if (std::find(names.begin(), names.end(), args.scenario) == names.end()) {
      std::fprintf(stderr, "eona_lab: unknown subcommand '%s'\n\n",
                   args.scenario.c_str());
      usage(stderr);
      return 2;
    }
    return run_single(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eona_lab: %s\n", e.what());
    return 1;
  }
}
