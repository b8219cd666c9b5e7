#include "scenarios/lab.hpp"

#include <charconv>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "scenarios/broker_outage.hpp"
#include "scenarios/cellular_web.hpp"
#include "scenarios/coarse_control.hpp"
#include "scenarios/energy.hpp"
#include "scenarios/failover.hpp"
#include "scenarios/fairness.hpp"
#include "scenarios/federation.hpp"
#include "scenarios/flashcrowd.hpp"
#include "scenarios/oscillation.hpp"
#include "scenarios/quickstart.hpp"
#include "scenarios/scale.hpp"
#include "sim/trace.hpp"

namespace eona::scenarios {

namespace {

[[noreturn]] void reject(const char* key, const std::string& value,
                         const std::string& expected) {
  throw ConfigError(std::string(key) + "=" + value + ": expected " + expected);
}

/// The shortest text that reads back as `v` (1.5, 700, 1e+06).
std::string shortest(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Reject a parsed setting that breaks a runner's precondition, naming
/// key=value, before the runner asserts it.
void require(bool ok, const char* key, double value,
             const std::string& expected) {
  if (!ok) reject(key, shortest(value), expected);
}

/// A period or duration: the runner's tickers and catalogs need it > 0.
void require_period(const char* key, double value) {
  require(value > 0.0, key, value, "a number > 0");
}

/// A link capacity in bit/s, echoed in the Mbit/s the key was given in.
/// Topology links need it > 0.
void require_capacity(const char* key, double bits_per_second) {
  require(bits_per_second > 0.0, key, bits_per_second / 1e6, "a number > 0");
}

/// The whole of `value` as an unsigned integer: digits only, no sign.
bool parse_digits(const std::string& value, std::uint64_t& out) {
  const char* end = value.data() + value.size();
  auto [ptr, ec] = std::from_chars(value.data(), end, out);
  return !value.empty() && ec == std::errc() && ptr == end;
}

/// "a,b,c" -> {"a", "b", "c"}; empty items are kept.
std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    items.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return items;
}

}  // namespace

std::uint64_t Overrides::parse_integer(const char* key,
                                       const std::string& value,
                                       std::uint64_t max) {
  std::uint64_t out = 0;
  if (!parse_digits(value, out) || out > max)
    reject(key, value,
           max == std::numeric_limits<std::uint64_t>::max()
               ? "a non-negative integer"
               : "an integer from 0 to " + std::to_string(max));
  return out;
}

Overrides Overrides::recorder() {
  Overrides ov({});
  ov.recording_ = true;
  return ov;
}

std::optional<std::string> Overrides::take(const char* key) {
  keys_.emplace_back(key);
  auto it = kv_.find(key);
  if (it == kv_.end()) return std::nullopt;
  std::string value = std::move(it->second);
  kv_.erase(it);
  return value;
}

bool Overrides::number(const char* key, double& out, double scale) {
  std::optional<std::string> value = take(key);
  if (!value) return false;
  double v = 0.0;
  const char* end = value->data() + value->size();
  auto [ptr, ec] = std::from_chars(value->data(), end, v);
  if (value->empty() || ec != std::errc() || ptr != end || !std::isfinite(v) ||
      v < 0.0)
    reject(key, *value, "a finite number >= 0");
  // A *_mbps value near the double range overflows to infinity when scaled.
  const double scaled = v * scale;
  if (!std::isfinite(scaled))
    reject(key, *value,
           "a number <= " +
               shortest(std::numeric_limits<double>::max() / scale));
  out = scaled;
  return true;
}

bool Overrides::boolean(const char* key, bool& out) {
  std::optional<std::string> value = take(key);
  if (!value) return false;
  if (*value == "1" || *value == "true" || *value == "yes") out = true;
  else if (*value == "0" || *value == "false" || *value == "no") out = false;
  else reject(key, *value, "1|0|true|false|yes|no");
  return true;
}

bool Overrides::mode(const char* key, ControlMode& out) {
  std::optional<std::string> value = take(key);
  if (!value) return false;
  if (*value == "baseline") out = ControlMode::kBaseline;
  else if (*value == "eona") out = ControlMode::kEona;
  else if (*value == "oracle") out = ControlMode::kOracle;
  else throw ConfigError("mode must be baseline|eona|oracle");
  return true;
}

bool Overrides::text(const char* key, std::string& out) {
  std::optional<std::string> value = take(key);
  if (!value) return false;
  out = std::move(*value);
  return true;
}

bool Overrides::list(const char* key, std::vector<std::string>& out) {
  std::optional<std::string> value = take(key);
  if (!value) return false;
  out = split_commas(*value);
  return true;
}

bool Overrides::integers(const char* key, std::vector<std::uint64_t>& out) {
  std::optional<std::string> value = take(key);
  if (!value) return false;
  auto parse = [&](const std::string& piece) {
    std::uint64_t v = 0;
    if (!parse_digits(piece, v))
      reject(key, *value, "a..b or a,b,c of non-negative integers");
    return v;
  };
  out.clear();
  auto range = value->find("..");
  if (range != std::string::npos) {
    std::uint64_t lo = parse(value->substr(0, range));
    std::uint64_t hi = parse(value->substr(range + 2));
    if (hi < lo)
      throw ConfigError(std::string(key) + " range is empty: " + *value);
    if (hi - lo >= kMaxRange)
      reject(key, *value,
             "a range of at most " + std::to_string(kMaxRange) + " integers");
    const std::uint64_t count = hi - lo + 1;
    out.reserve(count);
    for (std::uint64_t n = 0; n < count; ++n) out.push_back(lo + n);
    return true;
  }
  for (const std::string& piece : split_commas(*value))
    out.push_back(parse(piece));
  return true;
}

bool Overrides::finish(const char* context) const {
  if (!kv_.empty()) {
    std::string unknown;
    for (const auto& [k, v] : kv_) unknown += " " + k;
    throw ConfigError(std::string(context) + "unknown keys:" + unknown);
  }
  return !recording_;
}

namespace {

core::JsonValue num(double v) { return core::JsonValue::number(v); }
core::JsonValue count(std::uint64_t v) {
  return core::JsonValue::number(static_cast<double>(v));
}
core::JsonValue str(const char* v) { return core::JsonValue::string(v); }

core::JsonValue qoe_json(const QoeSummary& qoe) {
  core::JsonValue obj = core::JsonValue::object();
  obj.set("sessions", count(qoe.sessions));
  obj.set("mean_buffering", num(qoe.mean_buffering));
  obj.set("p90_buffering", num(qoe.p90_buffering));
  obj.set("mean_bitrate", num(qoe.mean_bitrate));
  obj.set("mean_join_time", num(qoe.mean_join_time));
  obj.set("mean_engagement", num(qoe.mean_engagement));
  obj.set("stalls", count(qoe.stalls));
  obj.set("cdn_switches", count(qoe.cdn_switches));
  obj.set("server_switches", count(qoe.server_switches));
  return obj;
}

core::JsonValue health_json(const telemetry::DeliveryHealthSnapshot& h) {
  return core::JsonValue::parse(core::to_json(h, 0));
}

/// The JSON every result starts with: the scenario's name, then `mode`.
core::JsonValue result_json(const char* scenario, ControlMode mode) {
  core::JsonValue out = core::JsonValue::object();
  out.set("scenario", str(scenario));
  out.set("mode", str(to_string(mode)));
  return out;
}

// Every lab runner reads its keys, stops when `ov` only records them, runs,
// and renders the result. Adding a key to a runner adds it to the usage text.

core::JsonValue run_flashcrowd(Overrides& ov, const RunContext& ctx,
                               sim::MetricSet* series_out) {
  FlashCrowdConfig config;
  ov.mode("mode", config.mode);
  ov.integer("seed", config.seed);
  ov.number("access_capacity_mbps", config.access_capacity, 1e6);
  ov.number("origin_capacity_mbps", config.origin_capacity, 1e6);
  ov.number("arrival_rate", config.arrival_rate);
  ov.number("crowd_background_fraction", config.crowd_background_fraction);
  ov.integer("crowd_flows", config.crowd_flows);
  ov.number("crowd_start", config.crowd_start);
  ov.number("crowd_end", config.crowd_end);
  ov.number("run_duration", config.run_duration);
  ov.number("a2i_delay", config.a2i_delay);
  ov.number("i2a_delay", config.i2a_delay);
  // Control-plane fault injection + consumer robustness (E13).
  ov.number("i2a_drop", config.i2a_fault.drop_rate);
  ov.number("i2a_duplicate", config.i2a_fault.duplicate_rate);
  ov.number("i2a_jitter", config.i2a_fault.max_extra_delay);
  ov.number("a2i_drop", config.a2i_fault.drop_rate);
  double outage_start = 0.0, outage_end = 0.0;
  ov.number("outage_start", outage_start);
  ov.number("outage_end", outage_end);
  if (outage_end > outage_start) {
    config.i2a_fault.outages.push_back({outage_start, outage_end});
    config.a2i_fault.outages.push_back({outage_start, outage_end});
  }
  ov.boolean("robust", config.robust_fetch);
  ov.integer("max_retries", config.retry.max_retries);
  ov.number("base_backoff", config.retry.base_backoff);
  ov.number("freshness_deadline", config.retry.freshness_deadline);
  ov.number("stale_widening", config.stale_widening);
  // Elastic capacity provisioning (E16): off | reactive | forecast.
  std::string provision = "off";
  ov.text("provision", provision);
  if (provision == "reactive" || provision == "forecast") {
    config.provision.enabled = true;
    config.provision.forecast_driven = provision == "forecast";
    config.provision.step = mbps(20);
    config.provision.max_capacity = mbps(160);
  } else if (provision != "off") {
    throw ConfigError("provision must be off|reactive|forecast");
  }
  ov.number("provision_step_mbps", config.provision.step, 1e6);
  ov.number("provision_max_mbps", config.provision.max_capacity, 1e6);
  ov.number("provision_lead", config.provision.lead_time);
  ov.number("provision_util", config.provision.order_utilization);
  ov.number("provision_headroom", config.provision.headroom);
  ov.number("provision_horizon", config.provision.horizon);
  ov.number("forecast_alpha", config.forecast.alpha);
  ov.number("forecast_beta", config.forecast.beta);
  ov.number("forecast_period", config.forecast.period);
  ov.number("qoe_stall_threshold", config.qoe_stall_threshold);
  ov.text("faults", config.faults);
  if (!ov.finish()) return {};
  require_capacity("access_capacity_mbps", config.access_capacity);
  require_capacity("origin_capacity_mbps", config.origin_capacity);

  FlashCrowdResult r = run_flash_crowd(config, ctx);
  core::JsonValue out = result_json("flashcrowd", config.mode);
  out.set("qoe", qoe_json(r.qoe));
  out.set("crowd_qoe", qoe_json(r.crowd_qoe));
  out.set("peak_stalled_fraction", num(r.peak_stalled_fraction));
  out.set("mean_access_utilization", num(r.mean_access_utilization));
  out.set("i2a_health", health_json(r.i2a_health));
  out.set("a2i_health", health_json(r.a2i_health));
  out.set("provision", core::JsonValue::string(provision));
  out.set("time_over_qoe_threshold", num(r.time_over_qoe_threshold));
  out.set("provision_orders", count(r.provision_orders));
  out.set("final_access_capacity_mbps", num(r.final_access_capacity / 1e6));
  if (series_out != nullptr) *series_out = std::move(r.metrics);
  return out;
}

core::JsonValue run_oscillation_lab(Overrides& ov, const RunContext& ctx,
                                    sim::MetricSet* series_out) {
  OscillationConfig config;
  ov.mode("mode", config.mode);
  ov.integer("seed", config.seed);
  ov.number("run_duration", config.run_duration);
  ov.number("arrival_rate", config.arrival_rate);
  ov.number("appp_period", config.appp_period);
  ov.number("infp_period", config.infp_period);
  ov.number("appp_dwell", config.appp_dwell);
  ov.number("infp_dwell", config.infp_dwell);
  ov.number("a2i_delay", config.a2i_delay);
  ov.number("i2a_delay", config.i2a_delay);
  ov.text("faults", config.faults);
  if (!ov.finish()) return {};
  require_period("appp_period", config.appp_period);
  require_period("infp_period", config.infp_period);

  OscillationResult r = run_oscillation(config, ctx);
  core::JsonValue out = result_json("oscillation", config.mode);
  out.set("qoe", qoe_json(r.qoe));
  out.set("appp_switches", count(r.appp_switches));
  out.set("infp_switches", count(r.infp_switches));
  out.set("cycling", core::JsonValue::boolean(r.cycling));
  out.set("converged", core::JsonValue::boolean(r.converged));
  out.set("green_path", core::JsonValue::boolean(r.green_path));
  if (series_out != nullptr) *series_out = std::move(r.metrics);
  return out;
}

core::JsonValue run_coarse(Overrides& ov, const RunContext& ctx,
                           sim::MetricSet* series_out) {
  CoarseControlConfig config;
  ov.mode("mode", config.mode);
  ov.integer("seed", config.seed);
  ov.number("incident_at", config.incident_at);
  ov.number("run_duration", config.run_duration);
  ov.number("degraded_factor", config.degraded_factor);
  ov.number("arrival_rate", config.arrival_rate);
  ov.text("faults", config.faults);
  if (!ov.finish()) return {};

  CoarseControlResult r = run_coarse_control(config, ctx);
  core::JsonValue out = result_json("coarse_control", config.mode);
  out.set("qoe", qoe_json(r.qoe));
  out.set("post_incident", qoe_json(r.post_incident));
  out.set("cdn1_traffic_share", num(r.cdn1_traffic_share));
  out.set("cdn2_hit_ratio", num(r.cdn2_hit_ratio));
  if (series_out != nullptr) *series_out = std::move(r.metrics);
  return out;
}

core::JsonValue run_energy_lab(Overrides& ov, const RunContext& ctx,
                               sim::MetricSet* series_out) {
  EnergyScenarioConfig config;
  ov.integer("seed", config.seed);
  ov.boolean("eona", config.eona);
  ov.number("scale_down_load", config.scale_down_load);
  ov.number("scale_up_load", config.scale_up_load);
  ov.number("day_rate", config.day_rate);
  ov.number("night_rate", config.night_rate);
  ov.integer("cycles", config.cycles);
  ov.text("faults", config.faults);
  if (!ov.finish()) return {};
  require(config.scale_up_load > config.scale_down_load, "scale_up_load",
          config.scale_up_load,
          "a number > scale_down_load=" + shortest(config.scale_down_load));
  require(config.cycles >= 1, "cycles", static_cast<double>(config.cycles),
          "an integer >= 1");

  EnergyScenarioResult r = run_energy(config, ctx);
  core::JsonValue out = core::JsonValue::object();
  out.set("scenario", str("energy"));
  out.set("eona", core::JsonValue::boolean(config.eona));
  out.set("qoe", qoe_json(r.qoe));
  out.set("night_qoe", qoe_json(r.night_qoe));
  out.set("saved_fraction", num(r.saved_fraction));
  out.set("mean_online", num(r.mean_online));
  if (series_out != nullptr) *series_out = std::move(r.metrics);
  return out;
}

core::JsonValue run_cellular(Overrides& ov, const RunContext& ctx,
                             sim::MetricSet*) {
  CellularWebConfig config;
  ov.integer("seed", config.seed);
  ov.integer("sessions", config.sessions);
  ov.integer("sectors", config.sectors);
  ov.number("feature_noise", config.feature_noise);
  ov.number("labeled_fraction", config.labeled_fraction);
  ov.integer("k_anonymity", config.k_anonymity);
  // No data-plane topology to fault here; accept the uniform key but only
  // the empty plan.
  std::string faults;
  ov.text("faults", faults);
  if (!faults.empty())
    throw ConfigError("cellular does not support --faults");
  if (!ov.finish()) return {};
  require(config.sectors >= 1, "sectors", static_cast<double>(config.sectors),
          "an integer >= 1");
  require(config.labeled_fraction <= 1.0, "labeled_fraction",
          config.labeled_fraction, "a number from 0 to 1");

  CellularWebResult r = run_cellular_web(config, ctx);
  core::JsonValue out = core::JsonValue::object();
  out.set("scenario", str("cellular_web"));
  out.set("evaluated", count(r.evaluated));
  out.set("inference_mae", num(r.inference_mae));
  out.set("a2i_mae", num(r.a2i_mae));
  out.set("inference_group_mae", num(r.inference_group_mae));
  out.set("a2i_group_mae", num(r.a2i_group_mae));
  return out;
}

core::JsonValue run_fairness_lab(Overrides& ov, const RunContext& ctx,
                                 sim::MetricSet*) {
  FairnessConfig config;
  ov.integer("seed", config.seed);
  ov.boolean("appp1_eona", config.appp1_eona);
  ov.boolean("appp2_eona", config.appp2_eona);
  ov.number("rate1", config.rate1);
  ov.number("rate2", config.rate2);
  ov.number("run_duration", config.run_duration);
  ov.text("faults", config.faults);
  if (!ov.finish()) return {};
  // Arrivals close one video before the end; the run must outlast that.
  require(config.run_duration > config.video_duration, "run_duration",
          config.run_duration,
          "a number > video_duration=" + shortest(config.video_duration));

  FairnessResult r = run_fairness(config, ctx);
  core::JsonValue out = core::JsonValue::object();
  out.set("scenario", str("fairness"));
  out.set("appp1", qoe_json(r.appp1));
  out.set("appp2", qoe_json(r.appp2));
  out.set("engagement_gap", num(r.engagement_gap));
  out.set("green_path", core::JsonValue::boolean(r.green_path));
  return out;
}

core::JsonValue run_federation_lab(Overrides& ov, const RunContext& ctx,
                                   sim::MetricSet*) {
  FederationConfig config;
  ov.integer("seed", config.seed);
  ov.boolean("broker", config.broker);
  ov.number("exaggeration", config.exaggeration);
  ov.number("arrival_rate", config.arrival_rate);
  ov.number("pool_mbps", config.pool, 1e6);
  ov.number("access_capacity_mbps", config.access_capacity, 1e6);
  ov.number("video_duration", config.video_duration);
  ov.number("run_duration", config.run_duration);
  ov.text("faults", config.faults);
  if (!ov.finish()) return {};
  require_capacity("pool_mbps", config.pool);
  require_capacity("access_capacity_mbps", config.access_capacity);
  require_period("video_duration", config.video_duration);

  FederationResult r = run_federation(config, ctx);
  core::JsonValue out = core::JsonValue::object();
  out.set("scenario", str("federation"));
  out.set("broker", core::JsonValue::boolean(config.broker));
  out.set("exaggeration", num(config.exaggeration));
  out.set("liar", qoe_json(r.liar));
  out.set("victim1", qoe_json(r.victim1));
  out.set("victim2", qoe_json(r.victim2));
  out.set("victim_mean_engagement", num(r.victim_mean_engagement));
  out.set("victim_mean_bitrate", num(r.victim_mean_bitrate));
  out.set("liar_share", num(r.liar_share));
  out.set("victim_share", num(r.victim_share));
  out.set("clamps", count(r.clamps));
  return out;
}

core::JsonValue run_broker_outage_lab(Overrides& ov, const RunContext& ctx,
                                      sim::MetricSet*) {
  BrokerOutageConfig config;
  ov.integer("seed", config.seed);
  ov.boolean("degraded", config.degraded);
  ov.number("exaggeration", config.exaggeration);
  ov.number("arrival_rate", config.arrival_rate);
  ov.number("heavy_arrival_rate", config.heavy_arrival_rate);
  ov.number("pool_mbps", config.pool, 1e6);
  ov.number("access_capacity_mbps", config.access_capacity, 1e6);
  ov.number("video_duration", config.video_duration);
  ov.number("run_duration", config.run_duration);
  ov.number("crash_at", config.crash_at);
  ov.number("restart_at", config.restart_at);
  ov.number("churn_join_at", config.churn_join_at);
  ov.number("churn_leave_at", config.churn_leave_at);
  ov.text("faults", config.faults);
  if (!ov.finish()) return {};
  require_capacity("pool_mbps", config.pool);
  require_capacity("access_capacity_mbps", config.access_capacity);
  require_period("video_duration", config.video_duration);
  // A tenant that joins while the broker is down trips the exchange
  // auditor. Without an explicit plan the broker is down from crash_at
  // until restart_at, or to the end when restart_at is not later.
  if (config.faults.empty() && config.crash_at > 0.0 &&
      config.churn_join_at >= config.crash_at) {
    require(config.restart_at > config.crash_at, "restart_at",
            config.restart_at,
            "a number > crash_at=" + shortest(config.crash_at) +
                " while churn_join_at=" + shortest(config.churn_join_at) +
                " follows the crash");
    require(config.churn_join_at >= config.restart_at, "churn_join_at",
            config.churn_join_at,
            "a time outside the broker outage [crash_at=" +
                shortest(config.crash_at) +
                ", restart_at=" + shortest(config.restart_at) + ")");
  }

  BrokerOutageResult r = run_broker_outage(config, ctx);
  core::JsonValue out = core::JsonValue::object();
  out.set("scenario", str("broker_outage"));
  out.set("degraded", core::JsonValue::boolean(config.degraded));
  out.set("qoe", qoe_json(r.qoe));
  out.set("heavy", qoe_json(r.heavy));
  out.set("joiner", qoe_json(r.joiner));
  out.set("rebuffer_seconds", num(r.rebuffer_seconds));
  out.set("time_to_reattach", num(r.time_to_reattach));
  out.set("reattach_horizon", num(r.reattach_horizon));
  out.set("reattaches", count(r.reattaches));
  out.set("reattach_attempts", count(r.reattach_attempts));
  out.set("detached_seconds", num(r.detached_seconds));
  out.set("epoch_rejected", count(r.epoch_rejected));
  out.set("clamps", count(r.clamps));
  out.set("rate_limited", count(r.rate_limited));
  out.set("liar_share", num(r.liar_share));
  out.set("faults", count(r.faults));
  out.set("exchange_checks", count(r.exchange_checks));
  out.set("auditor_checks", count(r.auditor_checks));
  return out;
}

core::JsonValue run_failover_lab(Overrides& ov, const RunContext& ctx,
                                 sim::MetricSet* series_out) {
  FailoverConfig config;
  ov.mode("mode", config.mode);
  ov.integer("seed", config.seed);
  ov.number("run_duration", config.run_duration);
  ov.number("arrival_rate", config.arrival_rate);
  ov.number("outage_start", config.outage_start);
  ov.number("outage_duration", config.outage_duration);
  ov.number("appp_period", config.appp_period);
  ov.number("infp_period", config.infp_period);
  ov.number("capacity_b_mbps", config.capacity_b, 1e6);
  ov.number("capacity_cx_mbps", config.capacity_cx, 1e6);
  ov.number("capacity_cy_mbps", config.capacity_cy, 1e6);
  ov.text("faults", config.faults);
  if (!ov.finish()) return {};
  require_period("appp_period", config.appp_period);
  require_period("infp_period", config.infp_period);
  require_capacity("capacity_b_mbps", config.capacity_b);
  require_capacity("capacity_cx_mbps", config.capacity_cx);
  require_capacity("capacity_cy_mbps", config.capacity_cy);

  FailoverResult r = run_failover(config, ctx);
  core::JsonValue out = result_json("failover", config.mode);
  out.set("qoe", qoe_json(r.qoe));
  out.set("rebuffer_seconds", num(r.rebuffer_seconds));
  out.set("time_to_recovery", num(r.time_to_recovery));
  out.set("faults", count(r.faults));
  out.set("aborted_transfers", count(r.aborted_transfers));
  out.set("stranded_sessions", count(r.stranded_sessions));
  out.set("resumed_sessions", count(r.resumed_sessions));
  out.set("infp_failovers", count(r.infp_failovers));
  out.set("auditor_checks", count(r.auditor_checks));
  if (series_out != nullptr) *series_out = std::move(r.metrics);
  return out;
}

core::JsonValue run_scale_lab(Overrides& ov, const RunContext& ctx,
                              sim::MetricSet*) {
  // A million-session run emits hundreds of millions of bus events; JSONL
  // traces and store ingestion at that volume are not meaningful artifacts.
  if (ctx.trace != nullptr || ctx.store != nullptr)
    throw ConfigError("scale does not support --trace/--store");
  ScaleConfig config;
  ov.mode("mode", config.mode);
  ov.integer("seed", config.seed);
  ov.integer("sessions", config.sessions);
  ov.integer("sectors", config.sectors);
  // Threads change only the wall clock, never the output: the result JSON
  // is byte-identical at any worker count (so threads is not echoed below).
  ov.integer("threads", config.threads, Overrides::kMaxThreads);
  ov.number("run_duration", config.run_duration);
  ov.number("video_duration", config.video_duration);
  ov.number("barrier_period", config.barrier_period);
  ov.number("access_capacity_mbps", config.access_capacity, 1e6);
  ov.number("headroom_fraction", config.headroom_fraction);
  ov.boolean("diurnal", config.diurnal);
  ov.number("diurnal_night_frac", config.diurnal_night_frac);
  ov.number("arrival_window", config.arrival_window);
  // Elision, like threads, changes only the wall clock: quiescent sectors
  // skipped at barriers replay the identical event stream when their clock
  // catches up, so the JSON below is byte-identical either way (pinned by
  // scenario_scale_test) and `elide` is not echoed.
  ov.boolean("elide", config.elide_quiescent);
  // Sector-sharded worlds have no single chaos clock; accept the uniform
  // key but only the empty plan.
  std::string faults;
  ov.text("faults", faults);
  if (!faults.empty())
    throw ConfigError("scale does not support --faults");
  if (!ov.finish()) return {};
  require(config.sectors >= 1, "sectors", static_cast<double>(config.sectors),
          "an integer >= 1");
  require(config.threads >= 1, "threads", static_cast<double>(config.threads),
          "an integer >= 1");
  require_period("barrier_period", config.barrier_period);
  require_period("video_duration", config.video_duration);
  require(config.run_duration > config.video_duration, "run_duration",
          config.run_duration,
          "a number > video_duration=" + shortest(config.video_duration));
  require(config.arrival_window <= config.run_duration, "arrival_window",
          config.arrival_window,
          "a number <= run_duration=" + shortest(config.run_duration));
  require(config.diurnal_night_frac <= 1.0, "diurnal_night_frac",
          config.diurnal_night_frac, "a number from 0 to 1");
  require_capacity("access_capacity_mbps", config.access_capacity);

  ScaleResult r = run_scale(config, ctx);
  core::JsonValue out = result_json("scale", config.mode);
  out.set("sessions", count(r.arrivals));
  out.set("sectors", count(config.sectors));
  out.set("qoe", qoe_json(r.qoe));
  out.set("events", count(r.events));
  out.set("peak_concurrent", count(r.peak_concurrent));
  out.set("reallocations", count(r.reallocations));
  out.set("barrier_rounds", count(r.barrier_rounds));
  // Per-sector detail only at debuggable scale; thousands of sectors would
  // swamp the output.
  if (config.sectors <= 16) {
    core::JsonValue per = core::JsonValue::array();
    for (const QoeSummary& qoe : r.per_sector) per.push_back(qoe_json(qoe));
    out.set("per_sector", std::move(per));
  }
  return out;
}

core::JsonValue run_quickstart_lab(Overrides& ov, const RunContext& ctx,
                                   sim::MetricSet*) {
  QuickstartConfig config;
  ov.mode("mode", config.mode);
  ov.integer("seed", config.seed);
  ov.number("arrival_rate", config.arrival_rate);
  ov.number("access_capacity_mbps", config.access_capacity, 1e6);
  ov.number("run_duration", config.run_duration);
  ov.text("faults", config.faults);
  if (!ov.finish()) return {};
  require_capacity("access_capacity_mbps", config.access_capacity);

  QuickstartResult r = run_quickstart(config, ctx);
  core::JsonValue out = result_json("quickstart", config.mode);
  out.set("qoe", qoe_json(r.qoe));
  return out;
}

struct LabScenario {
  const char* name;
  const char* about;  ///< one usage line on what the scenario reproduces
  core::JsonValue (*run)(Overrides&, const RunContext&, sim::MetricSet*);
};

/// Every scenario, in usage order.
constexpr LabScenario kScenarios[] = {
    {"flashcrowd", "Fig 3: a flash crowd congests the access ISP",
     run_flashcrowd},
    {"oscillation", "Fig 5: two independent control loops chase each other",
     run_oscillation_lab},
    {"coarse", "Sec 2: a CDN server degrades; CDN- vs server-level control",
     run_coarse},
    {"energy", "Sec 2: CDN fleet scaling over a diurnal load cycle",
     run_energy_lab},
    {"cellular", "Fig 4: inferring vs measuring cellular web QoE",
     run_cellular},
    {"fairness", "Sec 5: one InfP serving two AppPs", run_fairness_lab},
    {"federation",
     "E19: brokered exchange, 3 AppPs x 2 InfPs; tenant 0 over-reports "
     "forecasts to grab egress share, broker=1 clamps it to its quota",
     run_federation_lab},
    {"quickstart", "the World::Builder starter world", run_quickstart_lab},
    {"failover", "Sec 4: a peering outage and how fast each world recovers",
     run_failover_lab},
    {"scale",
     "E17: million-session sector-partitioned world, e.g. eona_lab scale "
     "--sessions=1000000 --sectors=4096; threads and elide change "
     "wall-clock only, never output",
     run_scale_lab},
    {"broker_outage",
     "E20: the federation plane with a mortal broker: the exchange crashes "
     "and restarts mid-run, tenants reattach on jittered backoff, a fourth "
     "tenant joins and one unwires mid-run",
     run_broker_outage_lab},
};

const LabScenario& find_scenario(const std::string& name) {
  for (const LabScenario& s : kScenarios)
    if (name == s.name) return s;
  throw ConfigError("unknown scenario '" + name + "'");
}

}  // namespace

const std::vector<std::string>& scenario_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> all;
    for (const LabScenario& s : kScenarios) all.emplace_back(s.name);
    return all;
  }();
  return names;
}

const char* scenario_about(const std::string& scenario) {
  return find_scenario(scenario).about;
}

std::vector<std::string> scenario_keys(const std::string& scenario) {
  Overrides ov = Overrides::recorder();
  (void)find_scenario(scenario).run(ov, RunContext{}, nullptr);
  return ov.keys();
}

core::JsonValue run_scenario_json(
    const std::string& scenario,
    const std::map<std::string, std::string>& overrides,
    sim::MetricSet* series_out, sim::TraceWriter* trace,
    telemetry::ColumnStore* store, RunPerf* perf) {
  const LabScenario& s = find_scenario(scenario);
  Overrides ov(overrides);
  return s.run(ov, RunContext{trace, store, perf}, series_out);
}

}  // namespace eona::scenarios
