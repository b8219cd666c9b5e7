// The event taxonomy carried by sim::EventBus: one struct per observable
// fact, each stamped with the simulated time it happened. Payloads use only
// common-layer vocabulary (strong ids, units) so every layer can emit and
// every layer can subscribe without new dependencies.
//
// Reason strings are static string literals (`const char*`) -- attribution
// labels, not prose -- which keeps publish() allocation-free.
//
// Each struct lists its JSONL trace form once: `kType`, the type token, and
// `fields(e, f)`, calling f(key, member) for each field after `t` in line
// order. sim/trace.hpp writes and reads every type in AllEvents with it.
//
// Taxonomy:
//   net      LinkSaturationEvent, RateRecomputeEvent, TransferAbortedEvent
//   chaos    FaultEvent
//   eona     ReportPublishedEvent, ReportDroppedEvent, ReportDeliveredEvent,
//            ReportServedEvent
//   control  SteeringEvent, MigrationEvent, ProvisionEvent
//   app      SessionStartedEvent, SessionStalledEvent, SessionFinishedEvent,
//            SessionStrandedEvent, SessionResumedEvent
//   telemetry A2IQoeSampleEvent, A2IForecastSampleEvent, LinkSampleEvent
#pragma once

#include <cstdint>
#include <string_view>

#include "common/ids.hpp"
#include "common/units.hpp"

namespace eona::sim {

// --- data plane (emitted by net::Network) ----------------------------------

/// A link crossed the saturation threshold in either direction after a rate
/// recompute. `saturated` is the new state.
struct LinkSaturationEvent {
  TimePoint t = 0.0;
  LinkId link;
  bool saturated = false;
  double utilization = 0.0;

  static constexpr std::string_view kType = "link_saturation";
  static void fields(auto& e, auto& f) {
    f("link", e.link);
    f("saturated", e.saturated);
    f("utilization", e.utilization);
  }
};

/// One max-min rate recompute finished (one per unbatched mutation, one per
/// non-empty batch commit).
struct RateRecomputeEvent {
  TimePoint t = 0.0;
  std::uint64_t recompute = 0;      ///< running recompute count
  std::size_t affected_flows = 0;   ///< size of the re-solved dirty component
  std::size_t affected_links = 0;

  static constexpr std::string_view kType = "rate_recompute";
  static void fields(auto& e, auto& f) {
    f("recompute", e.recompute);
    f("affected_flows", e.affected_flows);
    f("affected_links", e.affected_links);
  }
};

/// A volume transfer was aborted by the data plane instead of completing --
/// today always because its path crossed a dead link and the flow stranded
/// (distinct from cancel(): the application did not ask for this).
struct TransferAbortedEvent {
  TimePoint t = 0.0;
  std::uint64_t transfer = 0;  ///< net::TransferId value
  FlowId flow;                 ///< the stranded flow that was torn down
  const char* reason = "";     ///< e.g. "link-down"

  static constexpr std::string_view kType = "transfer_aborted";
  static void fields(auto& e, auto& f) {
    f("transfer", e.transfer);
    f("flow", e.flow);
    f("reason", e.reason);
  }
};

// --- chaos plane (emitted by sim::ChaosEngine) -----------------------------

/// One fault-plan action was applied to the infrastructure. `link` is the
/// affected link (the egress link for server faults; invalid for broker
/// faults, which have no topology element); `factor` is the capacity scale
/// for brown-outs (1 = restored, 0 otherwise unused).
struct FaultEvent {
  TimePoint t = 0.0;
  const char* kind = "";  ///< "link_down" | "link_up" | "brownout" |
                          ///< "server_crash" | "server_restart" |
                          ///< "exchange_crash" | "exchange_restart"
  LinkId link;
  double factor = 0.0;

  static constexpr std::string_view kType = "fault";
  static void fields(auto& e, auto& f) {
    f("kind", e.kind);
    f("link", e.link);
    f("factor", e.factor);
  }
};

// --- EONA report plane (emitted by core::ReportChannel) --------------------

/// A report was published into one peer's channel (before faults).
struct ReportPublishedEvent {
  TimePoint t = 0.0;
  ProviderId from;
  ProviderId to;
  const char* kind = "";  ///< "a2i" | "i2a"
  std::uint64_t seq = 0;  ///< per-channel running publish count

  static constexpr std::string_view kType = "report_published";
  static void fields(auto& e, auto& f) {
    f("from", e.from);
    f("to", e.to);
    f("kind", e.kind);
    f("seq", e.seq);
  }
};

/// A published report was lost: channel outage or injected drop.
struct ReportDroppedEvent {
  TimePoint t = 0.0;
  ProviderId from;
  ProviderId to;
  const char* kind = "";
  bool outage = false;  ///< true = outage window, false = random drop

  static constexpr std::string_view kType = "report_dropped";
  static void fields(auto& e, auto& f) {
    f("from", e.from);
    f("to", e.to);
    f("kind", e.kind);
    f("outage", e.outage);
  }
};

/// A report was queued for delivery (becomes visible after delay + jitter).
struct ReportDeliveredEvent {
  TimePoint t = 0.0;
  ProviderId from;
  ProviderId to;
  const char* kind = "";
  Duration visible_in = 0.0;  ///< channel delay + fault jitter

  static constexpr std::string_view kType = "report_delivered";
  static void fields(auto& e, auto& f) {
    f("from", e.from);
    f("to", e.to);
    f("kind", e.kind);
    f("visible_in", e.visible_in);
  }
};

/// A controller served a report to its control logic this epoch (its
/// report feed's delivery-health accumulator records the same age).
struct ReportServedEvent {
  TimePoint t = 0.0;
  ProviderId consumer;
  const char* kind = "";
  Duration age = 0.0;
  bool stale = false;

  static constexpr std::string_view kType = "report_served";
  static void fields(auto& e, auto& f) {
    f("consumer", e.consumer);
    f("kind", e.kind);
    f("age", e.age);
    f("stale", e.stale);
  }
};

// --- control plane ---------------------------------------------------------

/// AppP primary-CDN steering decision. `held` = true records a considered
/// switch that EONA attribution suppressed (from == to in that case).
struct SteeringEvent {
  TimePoint t = 0.0;
  ProviderId appp;
  CdnId from;
  CdnId to;
  bool held = false;
  const char* reason = "";

  static constexpr std::string_view kType = "steering";
  static void fields(auto& e, auto& f) {
    f("appp", e.appp);
    f("from", e.from);
    f("to", e.to);
    f("held", e.held);
    f("reason", e.reason);
  }
};

/// InfP egress migration: the peering point serving `cdn` moved and `flows`
/// live flows were rerouted.
struct MigrationEvent {
  TimePoint t = 0.0;
  ProviderId infp;
  CdnId cdn;
  PeeringId from;
  PeeringId to;
  std::size_t flows = 0;
  const char* reason = "";

  static constexpr std::string_view kType = "migration";
  static void fields(auto& e, auto& f) {
    f("infp", e.infp);
    f("cdn", e.cdn);
    f("from", e.from);
    f("to", e.to);
    f("flows", e.flows);
    f("reason", e.reason);
  }
};

/// InfP elastic capacity provisioning: an access/egress capacity change was
/// ordered (capacity lands after the lead time) or delivered (applied to the
/// network). `from_capacity` is the capacity in force when the order was
/// placed; `to_capacity` the ordered target.
struct ProvisionEvent {
  TimePoint t = 0.0;
  ProviderId infp;
  LinkId link;
  BitsPerSecond from_capacity = 0.0;
  BitsPerSecond to_capacity = 0.0;
  Duration lead = 0.0;
  const char* phase = "";  ///< "ordered" | "delivered"
  const char* reason = "";  ///< "reactive" | "forecast"

  static constexpr std::string_view kType = "provision";
  static void fields(auto& e, auto& f) {
    f("infp", e.infp);
    f("link", e.link);
    f("from_capacity", e.from_capacity);
    f("to_capacity", e.to_capacity);
    f("lead", e.lead);
    f("phase", e.phase);
    f("reason", e.reason);
  }
};

// --- application sessions (emitted by app::SessionPool / VideoPlayer) ------

struct SessionStartedEvent {
  TimePoint t = 0.0;
  SessionId session;

  static constexpr std::string_view kType = "session_started";
  static void fields(auto& e, auto& f) {
    f("session", e.session);
  }
};

/// A player entered a buffering stall.
struct SessionStalledEvent {
  TimePoint t = 0.0;
  SessionId session;
  std::uint64_t stall_count = 0;  ///< including this one

  static constexpr std::string_view kType = "session_stalled";
  static void fields(auto& e, auto& f) {
    f("session", e.session);
    f("stall_count", e.stall_count);
  }
};

struct SessionFinishedEvent {
  TimePoint t = 0.0;
  SessionId session;
  std::uint64_t stalls = 0;
  std::uint64_t cdn_switches = 0;

  static constexpr std::string_view kType = "session_finished";
  static void fields(auto& e, auto& f) {
    f("session", e.session);
    f("stalls", e.stalls);
    f("cdn_switches", e.cdn_switches);
  }
};

/// A session's in-flight fetch was aborted by the network (dead path); the
/// player is holding no transfer and must re-plan. Every stranded session
/// must eventually resume or finish (checked by the InvariantAuditor).
struct SessionStrandedEvent {
  TimePoint t = 0.0;
  SessionId session;
  const char* reason = "";

  static constexpr std::string_view kType = "session_stranded";
  static void fields(auto& e, auto& f) {
    f("session", e.session);
    f("reason", e.reason);
  }
};

/// A previously stranded session delivered a chunk again on a new path.
struct SessionResumedEvent {
  TimePoint t = 0.0;
  SessionId session;
  Duration outage = 0.0;  ///< stranded-to-resumed wall time

  static constexpr std::string_view kType = "session_resumed";
  static void fields(auto& e, auto& f) {
    f("session", e.session);
    f("outage", e.outage);
  }
};

// --- telemetry samples (emitted by AppP publish / control::LinkMonitor) ----

/// One v2 A2I QoE tuple as published on the wire: per-(isp, cdn, server)
/// group summary at publish time. Emitted once per tuple per A2I publish so
/// the columnar store (and traces) carry the full exported stream.
struct A2IQoeSampleEvent {
  TimePoint t = 0.0;
  ProviderId from;  ///< publishing AppP
  IspId isp;
  CdnId cdn;
  ServerId server;
  double mean_buffering_ratio = 0.0;
  double p90_buffering_ratio = 0.0;
  BitsPerSecond mean_bitrate = 0.0;
  double mean_engagement = 0.0;
  std::uint64_t sessions = 0;

  static constexpr std::string_view kType = "a2i_qoe_sample";
  static void fields(auto& e, auto& f) {
    f("from", e.from);
    f("isp", e.isp);
    f("cdn", e.cdn);
    f("server", e.server);
    f("mean_buffering_ratio", e.mean_buffering_ratio);
    f("p90_buffering_ratio", e.p90_buffering_ratio);
    f("mean_bitrate", e.mean_bitrate);
    f("mean_engagement", e.mean_engagement);
    f("sessions", e.sessions);
  }
};

/// One v2 A2I traffic-volume forecast tuple as published on the wire.
struct A2IForecastSampleEvent {
  TimePoint t = 0.0;
  ProviderId from;
  IspId isp;
  CdnId cdn;
  BitsPerSecond expected_rate = 0.0;

  static constexpr std::string_view kType = "a2i_forecast_sample";
  static void fields(auto& e, auto& f) {
    f("from", e.from);
    f("isp", e.isp);
    f("cdn", e.cdn);
    f("expected_rate", e.expected_rate);
  }
};

/// One periodic link utilization sample from control::LinkMonitor. `rate`
/// is utilization x effective capacity -- the carried-demand estimate the
/// provisioning forecaster trends on.
struct LinkSampleEvent {
  TimePoint t = 0.0;
  LinkId link;
  double utilization = 0.0;
  BitsPerSecond rate = 0.0;
  BitsPerSecond capacity = 0.0;

  static constexpr std::string_view kType = "link_sample";
  static void fields(auto& e, auto& f) {
    f("link", e.link);
    f("utilization", e.utilization);
    f("rate", e.rate);
    f("capacity", e.capacity);
  }
};

// --- the event list --------------------------------------------------------

/// A list of event types, for code generated over each of them.
template <typename... E>
struct EventList {
  /// Calls f.template operator()<T>() for each listed type T, in order.
  static void for_each(auto&& f) { (f.template operator()<E>(), ...); }
};

/// Every bus event type, in taxonomy order: the types a trace holds.
using AllEvents =
    EventList<LinkSaturationEvent, RateRecomputeEvent, TransferAbortedEvent,
              FaultEvent, ReportPublishedEvent, ReportDroppedEvent,
              ReportDeliveredEvent, ReportServedEvent, SteeringEvent,
              MigrationEvent, ProvisionEvent, SessionStartedEvent,
              SessionStalledEvent, SessionFinishedEvent,
              SessionStrandedEvent, SessionResumedEvent, A2IQoeSampleEvent,
              A2IForecastSampleEvent, LinkSampleEvent>;

}  // namespace eona::sim
