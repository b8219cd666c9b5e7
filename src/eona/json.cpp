#include "eona/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace eona::core {

// ---------------------------------------------------------------------------
// JsonValue
// ---------------------------------------------------------------------------

JsonValue JsonValue::boolean(bool v) {
  JsonValue value;
  value.kind_ = Kind::kBool;
  value.bool_ = v;
  return value;
}
JsonValue JsonValue::number(double v) {
  JsonValue value;
  value.kind_ = Kind::kNumber;
  value.number_ = v;
  return value;
}
JsonValue JsonValue::string(std::string v) {
  JsonValue value;
  value.kind_ = Kind::kString;
  value.string_ = std::move(v);
  return value;
}
JsonValue JsonValue::array() {
  JsonValue value;
  value.kind_ = Kind::kArray;
  return value;
}
JsonValue JsonValue::object() {
  JsonValue value;
  value.kind_ = Kind::kObject;
  return value;
}

namespace {
[[noreturn]] void kind_error(const char* want) {
  throw CodecError(std::string("json: expected ") + want);
}
}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("bool");
  return bool_;
}
double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) kind_error("number");
  return number_;
}
const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) kind_error("string");
  return string_;
}
const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) kind_error("array");
  return array_;
}
const std::map<std::string, JsonValue>& JsonValue::as_object() const {
  if (kind_ != Kind::kObject) kind_error("object");
  return object_;
}

void JsonValue::push_back(JsonValue v) {
  if (kind_ != Kind::kArray) kind_error("array");
  array_.push_back(std::move(v));
}
void JsonValue::set(const std::string& key, JsonValue v) {
  if (kind_ != Kind::kObject) kind_error("object");
  object_[key] = std::move(v);
}
const JsonValue& JsonValue::at(const std::string& key) const {
  const auto& obj = as_object();
  auto it = obj.find(key);
  if (it == obj.end()) throw CodecError("json: missing field '" + key + "'");
  return it->second;
}
bool JsonValue::has(const std::string& key) const {
  return as_object().count(key) > 0;
}

// --- serialisation -----------------------------------------------------------

namespace {

void escape_into(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void number_into(std::ostringstream& out, double v) {
  if (!std::isfinite(v)) throw CodecError("json: non-finite number");
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    out << static_cast<long long>(v);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out << buf;
  }
}

void dump_into(std::ostringstream& out, const JsonValue& value, int indent,
               int depth) {
  auto pad = [&](int d) {
    if (indent > 0) {
      out << '\n';
      for (int i = 0; i < indent * d; ++i) out << ' ';
    }
  };
  switch (value.kind()) {
    case JsonValue::Kind::kNull: out << "null"; break;
    case JsonValue::Kind::kBool: out << (value.as_bool() ? "true" : "false"); break;
    case JsonValue::Kind::kNumber: number_into(out, value.as_number()); break;
    case JsonValue::Kind::kString: escape_into(out, value.as_string()); break;
    case JsonValue::Kind::kArray: {
      const auto& items = value.as_array();
      if (items.empty()) {
        out << "[]";
        break;
      }
      out << '[';
      bool first = true;
      for (const auto& item : items) {
        if (!first) out << ',';
        first = false;
        pad(depth + 1);
        dump_into(out, item, indent, depth + 1);
      }
      pad(depth);
      out << ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      const auto& fields = value.as_object();
      if (fields.empty()) {
        out << "{}";
        break;
      }
      out << '{';
      bool first = true;
      for (const auto& [key, item] : fields) {
        if (!first) out << ',';
        first = false;
        pad(depth + 1);
        escape_into(out, key);
        out << (indent > 0 ? ": " : ":");
        dump_into(out, item, indent, depth + 1);
      }
      pad(depth);
      out << '}';
      break;
    }
  }
}

}  // namespace

std::string JsonValue::dump(int indent) const {
  std::ostringstream out;
  dump_into(out, *this, indent, 0);
  return out.str();
}

// --- parsing -------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue run() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) throw CodecError("json: trailing garbage");
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) throw CodecError("json: unexpected end");
    return text_[pos_];
  }

  char take() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c)
      throw CodecError(std::string("json: expected '") + c + "'");
  }

  void expect_literal(const char* literal) {
    for (const char* p = literal; *p; ++p) expect(*p);
  }

  JsonValue parse_value() {
    skip_ws();
    char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == JsonValue::kMaxDepth)
          throw CodecError("json: nesting deeper than " +
                           std::to_string(JsonValue::kMaxDepth) +
                           " at byte " + std::to_string(pos_));
        ++depth_;
        JsonValue nested = c == '{' ? parse_object() : parse_array();
        --depth_;
        return nested;
      }
      case '"': return JsonValue::string(parse_string());
      case 't':
        expect_literal("true");
        return JsonValue::boolean(true);
      case 'f':
        expect_literal("false");
        return JsonValue::boolean(false);
      case 'n':
        expect_literal("null");
        return JsonValue{};
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      take();
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(key, parse_value());
      skip_ws();
      char c = take();
      if (c == '}') return obj;
      if (c != ',') throw CodecError("json: expected ',' or '}'");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      take();
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      char c = take();
      if (c == ']') return arr;
      if (c != ',') throw CodecError("json: expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      char c = take();
      if (c == '"') return out;
      if (c == '\\') {
        char esc = take();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = take();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else throw CodecError("json: bad \\u escape");
            }
            if (code > 0x7F)
              throw CodecError("json: non-ASCII \\u escape unsupported");
            out += static_cast<char>(code);
            break;
          }
          default: throw CodecError("json: bad escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        throw CodecError("json: raw control character in string");
      } else {
        out += c;
      }
    }
  }

  JsonValue parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    auto digits = [&] {
      std::size_t before = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
      if (pos_ == before) throw CodecError("json: bad number");
    };
    digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      digits();
    }
    try {
      return JsonValue::number(std::stod(text_.substr(start, pos_ - start)));
    } catch (const std::out_of_range&) {  // over- or underflows a double
      throw CodecError("json: number out of range at byte " +
                       std::to_string(start));
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays/objects open around pos_
};

}  // namespace

JsonValue JsonValue::parse(const std::string& text) {
  return Parser(text).run();
}

// ---------------------------------------------------------------------------
// Report <-> JSON
// ---------------------------------------------------------------------------

namespace {

/// Invalid ids serialise as null so wildcards survive the round trip.
template <typename IdType>
JsonValue id_to_json(IdType id) {
  if (!id.valid()) return JsonValue{};
  return JsonValue::number(static_cast<double>(id.value()));
}

/// The whole number under `key`, in [0, max]. A fraction, a negative value
/// or one past `max` would be truncated, wrapped or undefined in the
/// integer cast, so each is a CodecError naming the key. (`max` is either
/// 2^64 - 1, which rounds up to 2^64 as a double, or exactly representable;
/// the exclusive bound max + 1 is right for both.)
std::uint64_t whole_from_json(
    const JsonValue& obj, const char* key,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const double raw = obj.at(key).as_number();
  if (!(raw >= 0.0 && raw == std::floor(raw) &&
        raw < static_cast<double>(max) + 1.0))
    throw CodecError("json: " + std::string(key) +
                     " must be a whole number in [0, " + std::to_string(max) +
                     "], got " + JsonValue::number(raw).dump());
  return static_cast<std::uint64_t>(raw);
}

/// An id under `key`: null is the invalid (wildcard) id, anything else a
/// whole number below the invalid sentinel.
template <typename IdType>
IdType id_from_json(const JsonValue& obj, const char* key) {
  if (obj.at(key).is_null()) return IdType{};
  return IdType(static_cast<typename IdType::rep_type>(
      whole_from_json(obj, key, IdType::kInvalid - 1)));
}

}  // namespace

std::string to_json(const A2IReport& report, int indent) {
  JsonValue root = JsonValue::object();
  root.set("kind", JsonValue::string("a2i"));
  root.set("from", id_to_json(report.from));
  root.set("generated_at", JsonValue::number(report.generated_at));
  JsonValue groups = JsonValue::array();
  for (const auto& g : report.groups) {
    JsonValue item = JsonValue::object();
    item.set("isp", id_to_json(g.isp));
    item.set("cdn", id_to_json(g.cdn));
    item.set("server", id_to_json(g.server));
    item.set("mean_buffering_ratio", JsonValue::number(g.mean_buffering_ratio));
    item.set("p90_buffering_ratio", JsonValue::number(g.p90_buffering_ratio));
    item.set("mean_bitrate", JsonValue::number(g.mean_bitrate));
    item.set("mean_join_time", JsonValue::number(g.mean_join_time));
    item.set("mean_engagement", JsonValue::number(g.mean_engagement));
    item.set("sessions", JsonValue::number(static_cast<double>(g.sessions)));
    groups.push_back(std::move(item));
  }
  root.set("groups", std::move(groups));
  JsonValue forecasts = JsonValue::array();
  for (const auto& f : report.forecasts) {
    JsonValue item = JsonValue::object();
    item.set("isp", id_to_json(f.isp));
    item.set("cdn", id_to_json(f.cdn));
    item.set("expected_rate", JsonValue::number(f.expected_rate));
    forecasts.push_back(std::move(item));
  }
  root.set("forecasts", std::move(forecasts));
  return root.dump(indent);
}

A2IReport a2i_from_json(const std::string& text) {
  JsonValue root = JsonValue::parse(text);
  if (root.at("kind").as_string() != "a2i")
    throw CodecError("json: not an a2i report");
  A2IReport report;
  report.from = id_from_json<ProviderId>(root, "from");
  report.generated_at = root.at("generated_at").as_number();
  for (const auto& item : root.at("groups").as_array()) {
    QoeGroupReport g;
    g.isp = id_from_json<IspId>(item, "isp");
    g.cdn = id_from_json<CdnId>(item, "cdn");
    g.server = id_from_json<ServerId>(item, "server");
    g.mean_buffering_ratio = item.at("mean_buffering_ratio").as_number();
    g.p90_buffering_ratio = item.at("p90_buffering_ratio").as_number();
    g.mean_bitrate = item.at("mean_bitrate").as_number();
    g.mean_join_time = item.at("mean_join_time").as_number();
    g.mean_engagement = item.at("mean_engagement").as_number();
    g.sessions = whole_from_json(item, "sessions");
    report.groups.push_back(g);
  }
  for (const auto& item : root.at("forecasts").as_array()) {
    TrafficForecast f;
    f.isp = id_from_json<IspId>(item, "isp");
    f.cdn = id_from_json<CdnId>(item, "cdn");
    f.expected_rate = item.at("expected_rate").as_number();
    report.forecasts.push_back(f);
  }
  return report;
}

std::string to_json(const I2AReport& report, int indent) {
  JsonValue root = JsonValue::object();
  root.set("kind", JsonValue::string("i2a"));
  root.set("from", id_to_json(report.from));
  root.set("generated_at", JsonValue::number(report.generated_at));
  JsonValue peerings = JsonValue::array();
  for (const auto& p : report.peerings) {
    JsonValue item = JsonValue::object();
    item.set("peering", id_to_json(p.peering));
    item.set("isp", id_to_json(p.isp));
    item.set("cdn", id_to_json(p.cdn));
    item.set("capacity", JsonValue::number(p.capacity));
    item.set("utilization", JsonValue::number(p.utilization));
    item.set("congested", JsonValue::boolean(p.congested));
    item.set("selected", JsonValue::boolean(p.selected));
    peerings.push_back(std::move(item));
  }
  root.set("peerings", std::move(peerings));
  JsonValue hints = JsonValue::array();
  for (const auto& h : report.server_hints) {
    JsonValue item = JsonValue::object();
    item.set("cdn", id_to_json(h.cdn));
    item.set("server", id_to_json(h.server));
    item.set("load", JsonValue::number(h.load));
    item.set("online", JsonValue::boolean(h.online));
    hints.push_back(std::move(item));
  }
  root.set("server_hints", std::move(hints));
  JsonValue congestion = JsonValue::array();
  for (const auto& c : report.congestion) {
    JsonValue item = JsonValue::object();
    item.set("isp", id_to_json(c.isp));
    const char* scope = c.scope == CongestionScope::kAccess ? "access"
                        : c.scope == CongestionScope::kPeering ? "peering"
                                                               : "backbone";
    item.set("scope", JsonValue::string(scope));
    item.set("peering", id_to_json(c.peering));
    item.set("severity", JsonValue::number(c.severity));
    congestion.push_back(std::move(item));
  }
  root.set("congestion", std::move(congestion));
  return root.dump(indent);
}

I2AReport i2a_from_json(const std::string& text) {
  JsonValue root = JsonValue::parse(text);
  if (root.at("kind").as_string() != "i2a")
    throw CodecError("json: not an i2a report");
  I2AReport report;
  report.from = id_from_json<ProviderId>(root, "from");
  report.generated_at = root.at("generated_at").as_number();
  for (const auto& item : root.at("peerings").as_array()) {
    PeeringStatus p;
    p.peering = id_from_json<PeeringId>(item, "peering");
    p.isp = id_from_json<IspId>(item, "isp");
    p.cdn = id_from_json<CdnId>(item, "cdn");
    p.capacity = item.at("capacity").as_number();
    p.utilization = item.at("utilization").as_number();
    p.congested = item.at("congested").as_bool();
    p.selected = item.at("selected").as_bool();
    report.peerings.push_back(p);
  }
  for (const auto& item : root.at("server_hints").as_array()) {
    ServerHint h;
    h.cdn = id_from_json<CdnId>(item, "cdn");
    h.server = id_from_json<ServerId>(item, "server");
    h.load = item.at("load").as_number();
    h.online = item.at("online").as_bool();
    report.server_hints.push_back(h);
  }
  for (const auto& item : root.at("congestion").as_array()) {
    CongestionSignal c;
    c.isp = id_from_json<IspId>(item, "isp");
    const std::string& scope = item.at("scope").as_string();
    if (scope == "access") c.scope = CongestionScope::kAccess;
    else if (scope == "peering") c.scope = CongestionScope::kPeering;
    else if (scope == "backbone") c.scope = CongestionScope::kBackbone;
    else throw CodecError("json: bad congestion scope '" + scope + "'");
    c.peering = id_from_json<PeeringId>(item, "peering");
    c.severity = item.at("severity").as_number();
    report.congestion.push_back(c);
  }
  return report;
}

std::string to_json(const telemetry::DeliveryHealthSnapshot& h, int indent) {
  JsonValue root = JsonValue::object();
  root.set("kind", JsonValue::string("delivery_health"));
  auto count = [](std::uint64_t v) {
    return JsonValue::number(static_cast<double>(v));
  };
  root.set("publishes", count(h.publishes));
  root.set("deliveries", count(h.deliveries));
  root.set("drops", count(h.drops));
  root.set("duplicates", count(h.duplicates));
  root.set("fetch_attempts", count(h.fetch_attempts));
  root.set("retries", count(h.retries));
  root.set("fresh_hits", count(h.fresh_hits));
  root.set("stale_hits", count(h.stale_hits));
  root.set("misses", count(h.misses));
  root.set("stale_serves", count(h.stale_serves));
  root.set("staleness_p90", JsonValue::number(h.staleness_p90));
  return root.dump(indent);
}

telemetry::DeliveryHealthSnapshot delivery_health_from_json(
    const std::string& text) {
  JsonValue root = JsonValue::parse(text);
  if (root.at("kind").as_string() != "delivery_health")
    throw CodecError("json: not a delivery-health snapshot");
  auto count = [&](const char* key) { return whole_from_json(root, key); };
  telemetry::DeliveryHealthSnapshot h;
  h.publishes = count("publishes");
  h.deliveries = count("deliveries");
  h.drops = count("drops");
  h.duplicates = count("duplicates");
  h.fetch_attempts = count("fetch_attempts");
  h.retries = count("retries");
  h.fresh_hits = count("fresh_hits");
  h.stale_hits = count("stale_hits");
  h.misses = count("misses");
  h.stale_serves = count("stale_serves");
  h.staleness_p90 = root.at("staleness_p90").as_number();
  if (h.staleness_p90 < 0.0) throw CodecError("json: negative staleness_p90");
  return h;
}

}  // namespace eona::core
