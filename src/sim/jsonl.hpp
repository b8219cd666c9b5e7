// The flat JSONL line codec of event traces (sim/trace.hpp) and store row
// dumps (telemetry::ColumnStore::dump_rows): {"t":<time>,"<key>":<value>,...}
// per line. A type lists its fields once, as `fields(obj, f)` calling
// f(key, member) in line order; LineWriter and LineReader are the two
// visitors, so what is written and what is read cannot drift apart. Values
// are unsigned integers and strong ids, "%.17g" doubles (as in the JSON
// codec), true/false, and quoted labels -- static identifiers, so there is
// no escape path.
//
// The reader reads strictly left to right, in writing order: a missing,
// renamed, garbled or out-of-range field, or a byte after the closing
// brace, is a CodecError naming the 1-based line and the field. It is not
// core::JsonValue on purpose: a tree per line loads rows several times
// slower (DESIGN.md, "Strict replay").
#pragma once

#include <array>
#include <charconv>
#include <concepts>
#include <cstdio>
#include <string>
#include <string_view>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/strong_id.hpp"

namespace eona::sim {

/// Appends one line to `out`: the constructor writes the time, each call a
/// field, end() the closing brace and newline.
class LineWriter {
 public:
  LineWriter(std::string& out, double t) : out_(out) {
    out_ += "{\"t\":";
    number(t);
  }

  void operator()(std::string_view key, double v) {
    open(key);
    number(v);
  }
  void operator()(std::string_view key, bool v) {
    open(key);
    out_ += v ? "true" : "false";
  }
  template <std::unsigned_integral U>
    requires(!std::same_as<U, bool>)
  void operator()(std::string_view key, U v) {
    open(key);
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  }
  template <typename Tag, typename Rep>
  void operator()(std::string_view key, StrongId<Tag, Rep> id) {
    (*this)(key, id.value());
  }
  void operator()(std::string_view key, std::string_view label) {
    open(key);
    out_ += '"';
    out_ += label;
    out_ += '"';
  }
  void operator()(std::string_view key, const char* label) {
    (*this)(key, std::string_view(label));
  }

  void end() { out_ += "}\n"; }

 private:
  void open(std::string_view key) {
    out_ += ",\"";
    out_ += key;
    out_ += "\":";
  }
  void number(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
  }

  std::string& out_;
};

/// Reads one line (without its '\n') as LineWriter wrote it: the
/// constructor reads the time, each call the named field, end() the
/// closing brace, which must end the line.
class LineReader {
 public:
  LineReader(std::string_view line, std::size_t line_no)
      : rest_(line), line_no_(line_no) {
    open("t", '{');
    number(t_, "not a number");
  }

  [[nodiscard]] double t() const { return t_; }

  /// Whether the line continues with field `key`; reads nothing.
  [[nodiscard]] bool next_is(std::string_view key, char sep = ',') const {
    return rest_.size() >= key.size() + 4 && rest_[0] == sep &&
           rest_[1] == '"' && rest_.substr(2, key.size()) == key &&
           rest_.substr(2 + key.size(), 2) == "\":";
  }

  void operator()(std::string_view key, double& v) {
    open(key);
    number(v, "not a number");
  }
  void operator()(std::string_view key, bool& v) {
    open(key);
    v = rest_.starts_with("true");
    if (!v && !rest_.starts_with("false")) fail(key, "not true or false");
    consume(v ? 4 : 5);
  }
  template <std::unsigned_integral U>
    requires(!std::same_as<U, bool>)
  void operator()(std::string_view key, U& v) {
    open(key);
    number(v, "not an unsigned integer");
  }
  template <typename Tag, typename Rep>
  void operator()(std::string_view key, StrongId<Tag, Rep>& id) {
    Rep raw = 0;
    (*this)(key, raw);
    id = StrongId<Tag, Rep>(raw);
  }
  /// A label, as a view into the line.
  void operator()(std::string_view key, std::string_view& label) {
    open(key);
    const std::size_t close = rest_.find('"', 1);
    if (!rest_.starts_with('"') || close == std::string_view::npos)
      fail(key, "not a label, " + found());
    label = rest_.substr(1, close - 1);
    for (const char c : label)
      if (static_cast<unsigned char>(c) < 0x20 || c == '\\')
        fail(key, "label holds an escape or control byte");
    consume(close + 1);
  }
  /// A label copied into storage this reader owns, for event fields that
  /// hold a `const char*`; valid while the reader lives.
  void operator()(std::string_view key, const char*& label) {
    EONA_EXPECTS(labels_used_ < labels_.size());
    std::string_view view;
    (*this)(key, view);
    label = labels_[labels_used_++].assign(view).c_str();
  }

  void end() const {
    if (rest_ != "}") fail(key_, "expected '}' to end the line, " + found());
  }

  /// Throws the CodecError for field `key` on this line.
  [[noreturn]] void fail(std::string_view key, const std::string& what) const {
    throw CodecError("line " + std::to_string(line_no_) + ": field '" +
                     std::string(key) + "': " + what);
  }

 private:
  void open(std::string_view key, char sep = ',') {
    if (!next_is(key, sep)) fail(key, "missing, " + found());
    key_ = key;
    rest_.remove_prefix(key.size() + 4);
  }
  /// std::from_chars takes no sign on unsigned types, no '+' or space, and
  /// reports overflow.
  template <typename T>
  void number(T& v, const char* not_a) {
    const auto [end, ec] =
        std::from_chars(rest_.data(), rest_.data() + rest_.size(), v);
    if (end == rest_.data()) fail(key_, not_a);
    if (ec != std::errc{}) fail(key_, "out of range");
    consume(static_cast<std::size_t>(end - rest_.data()));
  }
  /// Drops a value of `n` bytes, which a separator or '}' must follow.
  void consume(std::size_t n) {
    rest_.remove_prefix(n);
    if (!rest_.starts_with(',') && !rest_.starts_with('}'))
      fail(key_, "garbled value, " + found());
  }
  [[nodiscard]] std::string found() const {
    if (rest_.empty()) return "the line ends";
    return "found '" + std::string(rest_.substr(0, 24)) + "'";
  }

  std::string_view rest_;  ///< the unread part of the line
  std::size_t line_no_;
  std::string_view key_ = "t";  ///< the field being or last read
  double t_ = 0.0;
  std::array<std::string, 2> labels_;  ///< ProvisionEvent has two
  std::size_t labels_used_ = 0;
};

}  // namespace eona::sim
