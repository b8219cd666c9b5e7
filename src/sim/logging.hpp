// Minimal leveled logger stamped with simulated time. Quiet by default so
// benches stay clean; examples turn it up to narrate scenarios.
//
// Components no longer call Log::write directly: they publish typed events
// on the sim::EventBus and the LogSink below renders the interesting ones
// as human-readable lines -- same thresholds, same format, but the console
// is now just one more subscriber next to the counters and the trace.
#pragma once

#include <iostream>
#include <sstream>
#include <string>

#include "common/units.hpp"
#include "sim/event_bus.hpp"
#include "sim/events.hpp"

namespace eona::sim {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Process-wide log sink configuration. A deliberate, tiny exception to the
/// "no globals" rule (Core Guidelines I.2 allows cerr-like channels): logging
/// is observational and never feeds back into behaviour.
class Log {
 public:
  static LogLevel& threshold() {
    static LogLevel level = LogLevel::kWarn;
    return level;
  }

  static void set_threshold(LogLevel level) { threshold() = level; }

  static bool enabled(LogLevel level) { return level >= threshold(); }

  static void write(LogLevel level, TimePoint now, const std::string& msg) {
    if (!enabled(level)) return;
    std::ostream& os = (level >= LogLevel::kWarn) ? std::cerr : std::cout;
    os << "[" << label(level) << " t=" << now << "] " << msg << '\n';
  }

 private:
  static const char* label(LogLevel level) {
    switch (level) {
      case LogLevel::kTrace: return "TRACE";
      case LogLevel::kDebug: return "DEBUG";
      case LogLevel::kInfo: return "INFO ";
      case LogLevel::kWarn: return "WARN ";
      case LogLevel::kError: return "ERROR";
      case LogLevel::kOff: return "OFF  ";
    }
    return "?";
  }
};

/// Renders bus events as leveled console lines through Log::write (which
/// applies the process-wide threshold, kWarn by default -- so a wired world
/// stays silent unless a scenario turns the level up).
class LogSink {
 public:
  LogSink() = default;
  LogSink(const LogSink&) = delete;
  LogSink& operator=(const LogSink&) = delete;

  /// Subscribe the sink to the narratable event types on `bus`. The
  /// subscriptions live as long as the bus; call once per bus.
  void subscribe_all(EventBus& bus) {
    bus.subscribe<LinkSaturationEvent>([](const LinkSaturationEvent& e) {
      if (!Log::enabled(LogLevel::kDebug)) return;
      std::ostringstream os;
      os << "link " << e.link.value()
         << (e.saturated ? " saturated" : " drained")
         << " (util=" << e.utilization << ")";
      Log::write(LogLevel::kDebug, e.t, os.str());
    });
    bus.subscribe<SteeringEvent>([](const SteeringEvent& e) {
      LogLevel level = e.held ? LogLevel::kDebug : LogLevel::kInfo;
      if (!Log::enabled(level)) return;
      std::ostringstream os;
      if (e.held)
        os << "appp " << e.appp.value() << " held primary cdn "
           << e.to.value() << " (" << e.reason << ")";
      else
        os << "appp " << e.appp.value() << " steered primary cdn "
           << e.from.value() << " -> " << e.to.value() << " (" << e.reason
           << ")";
      Log::write(level, e.t, os.str());
    });
    bus.subscribe<MigrationEvent>([](const MigrationEvent& e) {
      if (!Log::enabled(LogLevel::kInfo)) return;
      std::ostringstream os;
      os << "infp " << e.infp.value() << " moved cdn " << e.cdn.value()
         << " egress " << e.from.value() << " -> " << e.to.value() << " ("
         << e.flows << " flows, " << e.reason << ")";
      Log::write(LogLevel::kInfo, e.t, os.str());
    });
    bus.subscribe<ReportDroppedEvent>([](const ReportDroppedEvent& e) {
      if (!Log::enabled(LogLevel::kDebug)) return;
      std::ostringstream os;
      os << e.kind << " report " << e.from.value() << " -> " << e.to.value()
         << (e.outage ? " lost to outage" : " dropped");
      Log::write(LogLevel::kDebug, e.t, os.str());
    });
    bus.subscribe<SessionStalledEvent>([](const SessionStalledEvent& e) {
      if (!Log::enabled(LogLevel::kTrace)) return;
      std::ostringstream os;
      os << "session " << e.session.value() << " stalled (#" << e.stall_count
         << ")";
      Log::write(LogLevel::kTrace, e.t, os.str());
    });
  }
};

}  // namespace eona::sim
