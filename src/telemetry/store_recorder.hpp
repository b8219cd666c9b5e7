// Bus-to-store bridge: subscribes to the event stream and maps each
// observable fact to narrow rows in a ColumnStore.
//
// The mapping lives in the static ingest() overloads so there is exactly one
// definition of "what row does event X become". The live recorder (this
// file) and the offline trace replayer (store_replay.hpp) both call the same
// overloads, which is what makes a store fed live and a store replayed from
// a --trace JSONL file byte-identical (pinned by trace_determinism_test).
//
// Only events whose payload fully survives the JSONL trace are mapped --
// anything ingested live must be reconstructible offline. High-volume
// bookkeeping events (rate recomputes, report channel hops) have no
// ingest() overload: they are deliberately left out of the store.
#pragma once

#include <string>

#include "sim/event_bus.hpp"
#include "sim/events.hpp"
#include "telemetry/column_store.hpp"

namespace eona::telemetry {

/// Live store feeder. Keep alive at least as long as the bus dispatches.
class StoreRecorder {
 public:
  explicit StoreRecorder(ColumnStore& store) : store_(store) {}
  StoreRecorder(const StoreRecorder&) = delete;
  StoreRecorder& operator=(const StoreRecorder&) = delete;

  /// Subscribe to each event type with an ingest() overload; once per bus.
  void subscribe_all(sim::EventBus& bus) {
    sim::AllEvents::for_each([&]<typename E>() {
      if constexpr (maps<E>())
        bus.subscribe<E>([this](const E& e) { ingest(store_, e); });
    });
  }

  /// Whether events of type E become rows (have an ingest() overload).
  template <typename E>
  static constexpr bool maps() {
    return requires(ColumnStore& s, const E& e) { ingest(s, e); };
  }

  // --- the event -> row mapping (one overload per mapped type) ---------

  static void ingest(ColumnStore& s, const sim::LinkSaturationEvent& e) {
    s.append(e.t, Dimensions{}, "link_saturation", e.link.value(),
             e.utilization);
  }
  static void ingest(ColumnStore& s, const sim::TransferAbortedEvent& e) {
    s.append(e.t, Dimensions{}, "transfer_aborted", e.flow.value(), 1.0);
  }
  static void ingest(ColumnStore& s, const sim::FaultEvent& e) {
    s.append(e.t, Dimensions{}, std::string("fault_") + e.kind,
             e.link.value(), e.factor);
  }
  static void ingest(ColumnStore& s, const sim::ReportServedEvent& e) {
    s.append(e.t, Dimensions{}, std::string(e.kind) + "_served_age",
             e.consumer.value(), e.age);
  }
  static void ingest(ColumnStore& s, const sim::SteeringEvent& e) {
    Dimensions dims;
    dims.cdn = e.to;
    s.append(e.t, dims, "steering", e.appp.value(), e.held ? 0.0 : 1.0);
  }
  static void ingest(ColumnStore& s, const sim::MigrationEvent& e) {
    Dimensions dims;
    dims.cdn = e.cdn;
    s.append(e.t, dims, "migration_flows", e.infp.value(),
             static_cast<double>(e.flows));
  }
  static void ingest(ColumnStore& s, const sim::ProvisionEvent& e) {
    s.append(e.t, Dimensions{}, std::string("provision_") + e.phase,
             e.link.value(), e.to_capacity);
  }
  static void ingest(ColumnStore& s, const sim::SessionStartedEvent& e) {
    s.append(e.t, Dimensions{}, "session_started", e.session.value(), 1.0);
  }
  static void ingest(ColumnStore& s, const sim::SessionStalledEvent& e) {
    s.append(e.t, Dimensions{}, "session_stalled", e.session.value(),
             static_cast<double>(e.stall_count));
  }
  static void ingest(ColumnStore& s, const sim::SessionFinishedEvent& e) {
    s.append(e.t, Dimensions{}, "session_finished", e.session.value(),
             static_cast<double>(e.stalls));
  }
  static void ingest(ColumnStore& s, const sim::SessionStrandedEvent& e) {
    s.append(e.t, Dimensions{}, "session_stranded", e.session.value(), 1.0);
  }
  static void ingest(ColumnStore& s, const sim::SessionResumedEvent& e) {
    s.append(e.t, Dimensions{}, "session_resumed", e.session.value(),
             e.outage);
  }
  static void ingest(ColumnStore& s, const sim::A2IQoeSampleEvent& e) {
    Dimensions dims;
    dims.isp = e.isp;
    dims.cdn = e.cdn;
    dims.server = e.server;
    const std::uint64_t from = e.from.value();
    s.append(e.t, dims, "a2i_mean_buffering", from, e.mean_buffering_ratio);
    s.append(e.t, dims, "a2i_p90_buffering", from, e.p90_buffering_ratio);
    s.append(e.t, dims, "a2i_mean_bitrate", from, e.mean_bitrate);
    s.append(e.t, dims, "a2i_mean_engagement", from, e.mean_engagement);
    s.append(e.t, dims, "a2i_sessions", from,
             static_cast<double>(e.sessions));
  }
  static void ingest(ColumnStore& s, const sim::A2IForecastSampleEvent& e) {
    Dimensions dims;
    dims.isp = e.isp;
    dims.cdn = e.cdn;
    s.append(e.t, dims, "a2i_forecast_rate", e.from.value(),
             e.expected_rate);
  }
  static void ingest(ColumnStore& s, const sim::LinkSampleEvent& e) {
    s.append(e.t, Dimensions{}, "link_rate", e.link.value(), e.rate);
    s.append(e.t, Dimensions{}, "link_util", e.link.value(), e.utilization);
  }

 private:
  ColumnStore& store_;
};

}  // namespace eona::telemetry
