// Human-readable JSON codec for EONA reports.
//
// The binary wire format (wire.hpp) is what crosses the A2I/I2A boundary in
// volume; the JSON form is what a "looking glass" serves to humans and
// debugging tools (the paper imagines queryable looking-glass servers).
// Self-contained: a minimal JSON value model + parser sufficient for the
// report schema, with strict validation (CodecError on malformed input).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "eona/messages.hpp"
#include "telemetry/delivery_health.hpp"

namespace eona::core {

/// Minimal JSON value: null, bool, number (double), string, array, object.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  static JsonValue boolean(bool v);
  static JsonValue number(double v);
  static JsonValue string(std::string v);
  static JsonValue array();
  static JsonValue object();

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }

  // Checked accessors; CodecError on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& as_array() const;
  [[nodiscard]] const std::map<std::string, JsonValue>& as_object() const;

  // Builders.
  void push_back(JsonValue v);                      ///< array append
  void set(const std::string& key, JsonValue v);    ///< object insert

  /// Object field lookup; CodecError when missing.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
  [[nodiscard]] bool has(const std::string& key) const;

  /// Serialise (stable field order: objects are sorted maps).
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Deepest array/object nesting parse() accepts. The parser recurses
  /// once per level, so the cap bounds its stack use on hostile input.
  static constexpr int kMaxDepth = 256;

  /// Parse; throws CodecError on any malformed input, trailing garbage, or
  /// nesting deeper than kMaxDepth (naming the byte offset).
  static JsonValue parse(const std::string& text);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Report <-> JSON. Round-trip safe for all field values the schema allows.
[[nodiscard]] std::string to_json(const A2IReport& report, int indent = 2);
[[nodiscard]] std::string to_json(const I2AReport& report, int indent = 2);
[[nodiscard]] A2IReport a2i_from_json(const std::string& text);
[[nodiscard]] I2AReport i2a_from_json(const std::string& text);

/// Delivery-health snapshot <-> JSON (what the lab tool prints).
[[nodiscard]] std::string to_json(const telemetry::DeliveryHealthSnapshot& h,
                                  int indent = 2);
[[nodiscard]] telemetry::DeliveryHealthSnapshot delivery_health_from_json(
    const std::string& text);

}  // namespace eona::core
