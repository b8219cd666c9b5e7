// Offline ingestion: rebuild a ColumnStore from JSONL text, either a store
// row dump (ColumnStore::dump_rows) or a raw event trace (sim::TraceWriter
// buffer, the eona_lab --trace format), both read strictly by the
// sim/jsonl.hpp codec. A trace line names its "type" after `t`; a row
// does not.
//
// Trace lines are read back into the sim event structs through their field
// lists and fed through the same StoreRecorder::ingest overloads the live
// recorder uses, so a replayed store is byte-identical to one fed live:
// doubles round-trip through "%.17g", integers are exact, and line order
// equals publish order equals append order. Lines of unmapped types (rate
// recomputes, report channel hops) are read in full, then skipped.
#pragma once

#include <string_view>

#include "sim/jsonl.hpp"
#include "sim/trace.hpp"
#include "telemetry/column_store.hpp"
#include "telemetry/store_recorder.hpp"

namespace eona::telemetry {

/// Replays one JSONL line, line `line_no` of its file, into `store`.
/// Returns true if the line produced rows (a store row, or a trace event
/// the recorder maps), false if skipped; throws CodecError if malformed.
inline bool replay_jsonl_line(ColumnStore& store, std::string_view line,
                              std::size_t line_no = 1) {
  if (line.empty()) return false;
  sim::LineReader in(line, line_no);
  if (!store.holds_time(in.t())) in.fail("t", "outside the store's range");
  if (!in.next_is("type")) {
    RowLine row;
    row.t = in.t();
    RowLine::fields(row, in);
    in.end();
    store.append(row.t, row.dims, row.metric, row.entity, row.value);
    return true;
  }
  bool mapped = false;
  sim::read_event(in, [&]<typename E>(const E& e) {
    if constexpr (StoreRecorder::maps<E>()) {
      StoreRecorder::ingest(store, e);
      mapped = true;
    }
  });
  return mapped;
}

/// Replays a whole JSONL buffer; returns the number of lines that produced
/// rows. Throws CodecError at the first malformed line.
inline std::size_t replay_jsonl(ColumnStore& store, std::string_view text) {
  std::size_t ingested = 0;
  std::size_t start = 0;
  for (std::size_t line_no = 1; start < text.size(); ++line_no) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) nl = text.size();
    if (replay_jsonl_line(store, text.substr(start, nl - start), line_no))
      ++ingested;
    start = nl + 1;
  }
  return ingested;
}

}  // namespace eona::telemetry
