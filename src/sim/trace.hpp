// Deterministic JSONL trace of the event stream: one line per bus event,
// {"t":...,"type":"<kType>",<its fields in the order events.hpp lists>},
// appended to an in-memory buffer (never directly to a file, so sweep jobs
// can run concurrently and collate buffers in job order). For a fixed seed
// the buffer is bit-identical run-to-run and across sweep thread counts
// (pinned by tests/trace_determinism_test.cpp).
#pragma once

#include <string>
#include <string_view>
#include <utility>

#include "sim/event_bus.hpp"
#include "sim/events.hpp"
#include "sim/jsonl.hpp"

namespace eona::sim {

/// Subscribes to every event type in events.hpp and renders each to one
/// JSONL line. Keep alive at least as long as the bus dispatches.
class TraceWriter {
 public:
  TraceWriter() = default;
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Subscribe this writer to all event types on `bus`. The subscriptions
  /// live as long as the bus; call once per bus.
  void subscribe_all(EventBus& bus) {
    AllEvents::for_each([&]<typename E>() {
      bus.subscribe<E>([this](const E& e) { write(e); });
    });
  }

  /// The JSONL buffer accumulated so far ('\n'-terminated lines).
  [[nodiscard]] const std::string& buffer() const { return out_; }
  [[nodiscard]] std::size_t line_count() const { return lines_; }

 private:
  template <typename E>
  void write(const E& e) {
    LineWriter line(out_, e.t);
    line("type", E::kType);
    E::fields(e, line);
    line.end();
    ++lines_;
  }

  std::string out_;
  std::size_t lines_ = 0;
};

/// Reads the rest of a trace line whose time `in` has read -- its type
/// token, then that type's fields -- and calls f(event) with the typed
/// event. An unknown type token is a CodecError like any garbled field.
template <typename F>
void read_event(LineReader& in, F&& f) {
  std::string_view type;
  in("type", type);
  bool known = false;
  AllEvents::for_each([&]<typename E>() {
    if (known || type != E::kType) return;
    known = true;
    E e;
    e.t = in.t();
    E::fields(e, in);
    in.end();
    f(std::as_const(e));
  });
  if (!known) in.fail("type", "unknown type '" + std::string(type) + "'");
}

}  // namespace eona::sim
