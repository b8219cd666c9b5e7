// Strict JSONL replay (telemetry/store_replay.hpp over the sim/jsonl.hpp
// line codec): malformed lines are CodecErrors naming the line and the
// field, every event type reads back bit-identical through its own field
// list, and a seeded mutation fuzz finds no third outcome.
#include "telemetry/store_replay.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "scenarios/lab.hpp"
#include "sim/event_bus.hpp"
#include "sim/trace.hpp"
#include "telemetry/column_store.hpp"
#include "telemetry/store_recorder.hpp"

namespace eona::telemetry {
namespace {

// --- malformed lines -------------------------------------------------------

const std::string kRow =
    "{\"t\":12.5,\"isp\":1,\"cdn\":2,\"server\":3,\"region\":0,\"entity\":7,"
    "\"metric\":\"link_util\",\"value\":0.5}";
const std::string kEvent =
    "{\"t\":3,\"type\":\"session_started\",\"session\":9}";

/// Replays `bad` as line 3 of a dump after two good lines; returns the
/// CodecError's message, or "loaded" if the dump loaded.
std::string error_of(const std::string& bad) {
  ColumnStore store;
  try {
    replay_jsonl(store, kRow + "\n" + kEvent + "\n" + bad + "\n");
  } catch (const CodecError& e) {
    return e.what();
  }
  return "loaded";
}

/// `bad` with `from` replaced by `to` (which must occur in it).
std::string with(std::string line, std::string_view from,
                 std::string_view to) {
  const std::size_t at = line.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return line.replace(at, from.size(), to);
}

void expect_rejected(const std::string& bad, std::string_view names) {
  const std::string msg = error_of(bad);
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find(names), std::string::npos) << msg;
}

TEST(StoreReplayStrict, RejectsAMisspelledField) {
  expect_rejected(with(kRow, "\"value\"", "\"valeu\""), "'value'");
}

TEST(StoreReplayStrict, RejectsAnIdPast32Bits) {
  expect_rejected(with(kRow, "\"isp\":1", "\"isp\":4294967296"), "'isp'");
}

TEST(StoreReplayStrict, RejectsANegativeEntity) {
  expect_rejected(with(kRow, "\"entity\":7", "\"entity\":-1"), "'entity'");
}

TEST(StoreReplayStrict, RejectsAGarbledNumber) {
  expect_rejected(with(kRow, "\"value\":0.5", "\"value\":0x"), "'value'");
}

TEST(StoreReplayStrict, RejectsAnUnknownEventType) {
  expect_rejected(with(kEvent, "session_started", "session_startd"),
                  "session_startd");
}

TEST(StoreReplayStrict, RejectsARowCutOffMidLine) {
  expect_rejected(kRow.substr(0, kRow.find("\"server\"") + 4), "'server'");
}

TEST(StoreReplayStrict, RejectsBytesAfterTheClosingBrace) {
  expect_rejected(kRow + "x", "'value'");
}

TEST(StoreReplayStrict, RejectsALineWithoutATime) {
  // Once skipped as an unmapped "log" event: it has no t and no real field.
  expect_rejected("{\"type\":\"log\",\"msg\":\"x\"}", "'t'");
}

TEST(StoreReplayStrict, RejectsATimeTheStoreCannotPartition) {
  expect_rejected(with(kRow, "12.5", "1e300"), "'t'");
  expect_rejected(with(kRow, "12.5", "nan"), "'t'");
}

TEST(StoreReplayStrict, RejectsAnExtraField) {
  expect_rejected(with(kEvent, "}", ",\"extra\":1}"), "'session'");
}

// --- every event type round-trips ----------------------------------------

constexpr std::array kLabels = {
    "",          "a2i",          "i2a",           "link_down",
    "link_up",   "brownout",     "server_crash",  "server_restart",
    "exchange_crash",            "exchange_restart",
    "ordered",   "delivered",    "reactive",      "forecast",
    "link-down", "operator",     "pinned",        "failover",
    "forecast-fit",              "flee-hot-peering",
    "return-to-preferred",       "bad-qoe-trial-switch"};

/// Fills every field of an event from a seed: field k takes entry
/// (seed + k) of its type's awkward values -- so seeds 0..N-1 give every
/// field every value -- or, past the list, a random one.
class Filler {
 public:
  explicit Filler(std::uint64_t seed) : seed_(seed), rng_(seed) {}

  void operator()(std::string_view, double& v) {
    const std::array<double, 10> special = {
        -0.0,
        1e-300,
        0.1 + 0.2,
        1.0 / 3.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()};
    const std::size_t k = next();
    if (k < special.size()) {
      v = special[k];
      return;
    }
    do {
      v = std::bit_cast<double>(rng_());
    } while (v != v);  // any bit pattern but NaN
  }
  void operator()(std::string_view, bool& v) { v = next() % 2 == 1; }
  template <std::unsigned_integral U>
  void operator()(std::string_view, U& v) {
    const std::array<U, 3> special = {0, 1, std::numeric_limits<U>::max()};
    const std::size_t k = next();
    v = k < special.size() ? special[k] : static_cast<U>(rng_());
  }
  template <typename Tag, typename Rep>
  void operator()(std::string_view key, StrongId<Tag, Rep>& id) {
    Rep raw = 0;
    (*this)(key, raw);
    // The maximum is the invalid id; max - 1 the largest valid one.
    if (raw == 1) raw = StrongId<Tag, Rep>::kInvalid - 1;
    id = StrongId<Tag, Rep>(raw);
  }
  void operator()(std::string_view, const char*& label) {
    label = kLabels[next() % kLabels.size()];
  }

  /// A time the store can partition: awkward values, then random ones.
  [[nodiscard]] double time() {
    const std::array<double, 4> special = {0.0, -0.0, 1e-300, 0.1 + 0.2};
    const std::size_t k = next();
    return k < special.size()
               ? special[k]
               : std::uniform_real_distribution<double>(0.0, 1e6)(rng_);
  }

 private:
  std::size_t next() { return (seed_ + field_++) % 32; }

  std::uint64_t seed_;
  std::size_t field_ = 0;
  std::mt19937_64 rng_;
};

/// An event's fields as (key, bytes), read through the same field list:
/// numbers by their bits, labels by their text.
class Fields {
 public:
  template <typename E>
  explicit Fields(const E& e) {
    (*this)("t", e.t);
    E::fields(e, *this);
  }

  void operator()(std::string_view key, double v) {
    add(key, std::to_string(std::bit_cast<std::uint64_t>(v)));
  }
  void operator()(std::string_view key, bool v) { add(key, v ? "1" : "0"); }
  template <std::unsigned_integral U>
  void operator()(std::string_view key, U v) {
    add(key, std::to_string(v));
  }
  template <typename Tag, typename Rep>
  void operator()(std::string_view key, StrongId<Tag, Rep> id) {
    add(key, std::to_string(id.value()));
  }
  void operator()(std::string_view key, const char* label) {
    add(key, label);
  }

  friend bool operator==(const Fields&, const Fields&) = default;
  friend std::ostream& operator<<(std::ostream& os, const Fields& f) {
    for (const auto& [key, bytes] : f.fields_) os << key << '=' << bytes << ' ';
    return os;
  }

 private:
  void add(std::string_view key, std::string bytes) {
    fields_.emplace_back(std::string(key), std::move(bytes));
  }
  std::vector<std::pair<std::string, std::string>> fields_;
};

struct RoundTripCounts {
  std::size_t types = 0;
  std::size_t mapped = 0;
  std::size_t lines = 0;
};

template <typename E>
void round_trip(RoundTripCounts& counts) {
  ++counts.types;
  if (StoreRecorder::maps<E>()) ++counts.mapped;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Filler fill(seed);
    E sent;
    sent.t = fill.time();
    E::fields(sent, fill);

    sim::EventBus bus;
    sim::TraceWriter trace;
    trace.subscribe_all(bus);
    ColumnStore live;
    StoreRecorder recorder(live);
    recorder.subscribe_all(bus);
    bus.publish(sent);
    ASSERT_EQ(trace.line_count(), 1u);
    ++counts.lines;

    const std::string& text = trace.buffer();
    sim::LineReader in(std::string_view(text).substr(0, text.size() - 1), 1);
    bool read = false;
    sim::read_event(in, [&]<typename Back>(const Back& back) {
      if constexpr (std::is_same_v<Back, E>) {
        EXPECT_EQ(Fields(back), Fields(sent)) << text;
        read = true;
      }
    });
    EXPECT_TRUE(read) << "read back as another type: " << text;

    ColumnStore replayed;
    EXPECT_EQ(replay_jsonl(replayed, text),
              StoreRecorder::maps<E>() ? 1u : 0u);
    EXPECT_EQ(replayed.row_count(), live.row_count()) << text;
    EXPECT_EQ(replayed.dump_rows(), live.dump_rows()) << text;
    EXPECT_EQ(live.row_count() > 0, StoreRecorder::maps<E>()) << text;
  }
}

TEST(StoreReplayRoundTrip, EveryEventTypeReadsBackBitIdentical) {
  RoundTripCounts counts;
  sim::AllEvents::for_each([&]<typename E>() { round_trip<E>(counts); });
  EXPECT_EQ(counts.types, 19u);
  EXPECT_EQ(counts.mapped, 15u);
  EXPECT_EQ(counts.lines, 19u * 64u);
}

// --- mutation fuzz ---------------------------------------------------------

/// The lines of a JSONL buffer.
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// One random single-line mutation: a bit flip, a truncation, a byte
/// inserted or deleted, or two fields swapped.
std::string mutate(const std::string& line, std::mt19937_64& rng) {
  std::string out = line;
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  constexpr std::string_view kBytes = "0123456789-+.eE\"{},:tx\\ ";
  switch (pick(5)) {
    case 0:
      out[pick(out.size())] ^= static_cast<char>(1u << pick(8));
      break;
    case 1:
      out.resize(pick(out.size()));
      break;
    case 2: {
      const char byte = pick(2) == 0 ? kBytes[pick(kBytes.size())]
                                     : static_cast<char>(pick(256));
      out.insert(pick(out.size() + 1), 1, byte);
      break;
    }
    case 3:
      out.erase(pick(out.size()), 1);
      break;
    default: {
      // Fields are the stretches that start at each `,"`; the last one
      // stops before the closing brace.
      std::vector<std::size_t> starts;
      for (std::size_t at = out.find(",\""); at != std::string::npos;
           at = out.find(",\"", at + 1))
        starts.push_back(at);
      if (starts.size() < 2) break;
      starts.push_back(out.size() - 1);
      const std::size_t a = pick(starts.size() - 1);
      const std::size_t b = pick(starts.size() - 1);
      if (a == b) break;
      const std::size_t i = std::min(a, b), j = std::max(a, b);
      auto field = [&](std::size_t k) {
        return out.substr(starts[k], starts[k + 1] - starts[k]);
      };
      const std::string first = field(i), second = field(j);
      out = out.substr(0, starts[i]) + second +
            out.substr(starts[i + 1], starts[j] - starts[i + 1]) + first +
            out.substr(starts[j + 1]);
      break;
    }
  }
  return out;
}

TEST(StoreReplayFuzz, MutatedLinesLoadOrThrowCodecError) {
  sim::TraceWriter trace;
  ColumnStore store;
  (void)scenarios::run_scenario_json(
      "quickstart", {{"mode", "eona"}, {"seed", "1"}, {"run_duration", "130"}},
      nullptr, &trace, &store);
  std::vector<std::string> lines = lines_of(trace.buffer());
  const std::vector<std::string> rows = lines_of(store.dump_rows());
  ASSERT_FALSE(lines.empty());
  ASSERT_FALSE(rows.empty());
  lines.insert(lines.end(), rows.begin(), rows.end());

  constexpr std::size_t kMutations = 1'000'000;
  std::mt19937_64 rng(20240617);
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  std::optional<ColumnStore> target;
  for (std::size_t i = 0; i < kMutations; ++i) {
    if (i % 4096 == 0) target.emplace();  // bound the store's growth
    const std::string line = mutate(lines[rng() % lines.size()], rng);
    try {
      (void)replay_jsonl_line(*target, line, i + 1);
      ++loaded;
    } catch (const CodecError&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "mutation " << i << " threw " << e.what() << ": " << line;
    }
  }
  EXPECT_EQ(loaded + rejected, kMutations);
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace eona::telemetry
