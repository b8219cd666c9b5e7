#include "eona/wire.hpp"

#include <bit>
#include <cstring>
#include <string>

#include "telemetry/interner.hpp"
#include "telemetry/session_record.hpp"

namespace eona::core {

namespace {

constexpr std::uint32_t kMagic = 0x454F4E41;  // "EONA"

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t len) {
  std::uint64_t hash = 1469598103934665603ull;
  for (std::size_t i = 0; i < len; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

template <typename IdType>
void put_id(WireWriter& w, IdType id) {
  if constexpr (sizeof(typename IdType::rep_type) == 8)
    w.u64(id.value());
  else
    w.u32(id.value());
}

template <typename IdType>
IdType get_id32(WireReader& r) {
  return IdType(r.u32());
}

/// A section's element count, checked against the bytes left before the
/// checksum: a count the frame cannot hold is rejected before anything is
/// reserved for it.
std::uint32_t get_count(WireReader& r, std::size_t element_bytes,
                        const char* what) {
  const std::uint32_t count = r.u32();
  const std::size_t body = r.remaining() >= 8 ? r.remaining() - 8 : 0;
  if (count > body / element_bytes)
    throw CodecError(std::string(what) + " count " + std::to_string(count) +
                     " exceeds the frame");
  return count;
}

// Encoded size of one element of each counted section.
constexpr std::size_t kTupleBytes = 3 * 4;               // 3 ids
constexpr std::size_t kGroupBytes = 4 + 5 * 8 + 8;        // index, 5 f64, u64
constexpr std::size_t kForecastBytes = 4 + 8;             // index, f64
constexpr std::size_t kPeeringBytes = 3 * 4 + 2 * 8 + 2;  // 3 ids, 2 f64, 2 b
constexpr std::size_t kHintBytes = 2 * 4 + 8 + 1;         // 2 ids, f64, bool
constexpr std::size_t kCongestionBytes = 4 + 1 + 4 + 8;   // id, u8, id, f64

}  // namespace

void WireWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes_.push_back((v >> (8 * i)) & 0xFF);
}

void WireWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes_.push_back((v >> (8 * i)) & 0xFF);
}

void WireWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void WireReader::need(std::size_t n) const {
  if (remaining() < n) throw CodecError("truncated frame");
}

std::uint8_t WireReader::u8() {
  need(1);
  return (*bytes_)[pos_++];
}

std::uint32_t WireReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>((*bytes_)[pos_++]) << (8 * i);
  return v;
}

std::uint64_t WireReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>((*bytes_)[pos_++]) << (8 * i);
  return v;
}

double WireReader::f64() {
  std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

namespace {

void write_header(WireWriter& w, MessageKind kind) {
  w.u32(kMagic);
  w.u8(kWireVersion);
  w.u8(static_cast<std::uint8_t>(kind));
}

/// Appends the checksum over everything written so far.
WireBytes seal(WireWriter&& w) {
  WireBytes bytes = w.take();
  std::uint64_t checksum = fnv1a(bytes.data(), bytes.size());
  for (int i = 0; i < 8; ++i)
    bytes.push_back((checksum >> (8 * i)) & 0xFF);
  return bytes;
}

/// Validates length, checksum, magic and version, and returns a reader
/// positioned at the kind byte.
WireReader open_frame(const WireBytes& bytes) {
  if (bytes.size() < 4 + 1 + 1 + 8) throw CodecError("frame too short");
  std::uint64_t stored = 0;
  for (int i = 0; i < 8; ++i)
    stored |= static_cast<std::uint64_t>(bytes[bytes.size() - 8 + i]) << (8 * i);
  if (fnv1a(bytes.data(), bytes.size() - 8) != stored)
    throw CodecError("checksum mismatch");
  WireReader r(bytes);
  if (r.u32() != kMagic) throw CodecError("bad magic");
  if (r.u8() != kWireVersion) throw CodecError("unsupported version");
  return r;
}

/// open_frame plus the kind check; the reader is left after the header.
WireReader open_frame(const WireBytes& bytes, MessageKind expected) {
  WireReader r = open_frame(bytes);
  if (static_cast<MessageKind>(r.u8()) != expected)
    throw CodecError("unexpected message kind");
  return r;
}

}  // namespace

MessageKind peek_kind(const WireBytes& bytes) {
  WireReader r = open_frame(bytes);
  auto kind = static_cast<MessageKind>(r.u8());
  if (kind != MessageKind::kA2I && kind != MessageKind::kI2A)
    throw CodecError("unknown message kind");
  return kind;
}

namespace {

constexpr telemetry::Dim kTupleMask =
    telemetry::Dim::kIsp | telemetry::Dim::kCdn | telemetry::Dim::kServer;

telemetry::Dimensions tuple_of(IspId isp, CdnId cdn, ServerId server) {
  telemetry::Dimensions d;
  d.isp = isp;
  d.cdn = cdn;
  d.server = server;
  return d;
}

}  // namespace

WireBytes encode(const A2IReport& report) {
  // Intern every (ISP, CDN, server) tuple the frame mentions; groups and
  // forecasts then carry 4-byte dictionary indexes. Forecast tuples are
  // interned with an invalid server so they coincide with the CDN-level
  // group tuples they mirror.
  telemetry::DimensionInterner interner(kTupleMask);
  std::vector<telemetry::GroupId> group_ids;
  group_ids.reserve(report.groups.size());
  for (const auto& g : report.groups)
    group_ids.push_back(interner.intern(tuple_of(g.isp, g.cdn, g.server)));
  std::vector<telemetry::GroupId> forecast_ids;
  forecast_ids.reserve(report.forecasts.size());
  for (const auto& f : report.forecasts)
    forecast_ids.push_back(interner.intern(tuple_of(f.isp, f.cdn, ServerId())));

  WireWriter w;
  write_header(w, MessageKind::kA2I);
  put_id(w, report.from);
  w.f64(report.generated_at);
  w.u32(static_cast<std::uint32_t>(interner.size()));
  for (telemetry::GroupId id = 0; id < interner.size(); ++id) {
    const telemetry::Dimensions& d = interner.dims_of(id);
    put_id(w, d.isp);
    put_id(w, d.cdn);
    put_id(w, d.server);
  }
  w.u32(static_cast<std::uint32_t>(report.groups.size()));
  for (std::size_t i = 0; i < report.groups.size(); ++i) {
    const auto& g = report.groups[i];
    w.u32(group_ids[i]);
    w.f64(g.mean_buffering_ratio);
    w.f64(g.p90_buffering_ratio);
    w.f64(g.mean_bitrate);
    w.f64(g.mean_join_time);
    w.f64(g.mean_engagement);
    w.u64(g.sessions);
  }
  w.u32(static_cast<std::uint32_t>(report.forecasts.size()));
  for (std::size_t i = 0; i < report.forecasts.size(); ++i) {
    w.u32(forecast_ids[i]);
    w.f64(report.forecasts[i].expected_rate);
  }
  return seal(std::move(w));
}

A2IReport decode_a2i(const WireBytes& bytes) {
  WireReader r = open_frame(bytes, MessageKind::kA2I);
  A2IReport report;
  report.from = get_id32<ProviderId>(r);
  report.generated_at = r.f64();
  std::uint32_t tuple_count = get_count(r, kTupleBytes, "A2I tuple");
  std::vector<telemetry::Dimensions> tuples;
  tuples.reserve(tuple_count);
  for (std::uint32_t i = 0; i < tuple_count; ++i) {
    IspId isp = get_id32<IspId>(r);
    CdnId cdn = get_id32<CdnId>(r);
    ServerId server = get_id32<ServerId>(r);
    tuples.push_back(tuple_of(isp, cdn, server));
  }
  auto tuple_at = [&](std::uint32_t index) -> const telemetry::Dimensions& {
    if (index >= tuples.size()) throw CodecError("dict index out of range");
    return tuples[index];
  };
  std::uint32_t group_count = get_count(r, kGroupBytes, "A2I group");
  report.groups.reserve(group_count);
  for (std::uint32_t i = 0; i < group_count; ++i) {
    QoeGroupReport g;
    const telemetry::Dimensions& d = tuple_at(r.u32());
    g.isp = d.isp;
    g.cdn = d.cdn;
    g.server = d.server;
    g.mean_buffering_ratio = r.f64();
    g.p90_buffering_ratio = r.f64();
    g.mean_bitrate = r.f64();
    g.mean_join_time = r.f64();
    g.mean_engagement = r.f64();
    g.sessions = r.u64();
    report.groups.push_back(g);
  }
  std::uint32_t forecast_count = get_count(r, kForecastBytes, "A2I forecast");
  report.forecasts.reserve(forecast_count);
  for (std::uint32_t i = 0; i < forecast_count; ++i) {
    TrafficForecast f;
    const telemetry::Dimensions& d = tuple_at(r.u32());
    f.isp = d.isp;
    f.cdn = d.cdn;
    f.expected_rate = r.f64();
    report.forecasts.push_back(f);
  }
  if (r.remaining() != 8) throw CodecError("trailing bytes in A2I frame");
  return report;
}

WireBytes encode(const I2AReport& report) {
  WireWriter w;
  write_header(w, MessageKind::kI2A);
  put_id(w, report.from);
  w.f64(report.generated_at);
  w.u32(static_cast<std::uint32_t>(report.peerings.size()));
  for (const auto& p : report.peerings) {
    put_id(w, p.peering);
    put_id(w, p.isp);
    put_id(w, p.cdn);
    w.f64(p.capacity);
    w.f64(p.utilization);
    w.boolean(p.congested);
    w.boolean(p.selected);
  }
  w.u32(static_cast<std::uint32_t>(report.server_hints.size()));
  for (const auto& h : report.server_hints) {
    put_id(w, h.cdn);
    put_id(w, h.server);
    w.f64(h.load);
    w.boolean(h.online);
  }
  w.u32(static_cast<std::uint32_t>(report.congestion.size()));
  for (const auto& c : report.congestion) {
    put_id(w, c.isp);
    w.u8(static_cast<std::uint8_t>(c.scope));
    put_id(w, c.peering);
    w.f64(c.severity);
  }
  return seal(std::move(w));
}

I2AReport decode_i2a(const WireBytes& bytes) {
  WireReader r = open_frame(bytes, MessageKind::kI2A);
  I2AReport report;
  report.from = get_id32<ProviderId>(r);
  report.generated_at = r.f64();
  std::uint32_t peering_count = get_count(r, kPeeringBytes, "I2A peering");
  report.peerings.reserve(peering_count);
  for (std::uint32_t i = 0; i < peering_count; ++i) {
    PeeringStatus p;
    p.peering = get_id32<PeeringId>(r);
    p.isp = get_id32<IspId>(r);
    p.cdn = get_id32<CdnId>(r);
    p.capacity = r.f64();
    p.utilization = r.f64();
    p.congested = r.boolean();
    p.selected = r.boolean();
    report.peerings.push_back(p);
  }
  std::uint32_t hint_count = get_count(r, kHintBytes, "I2A hint");
  report.server_hints.reserve(hint_count);
  for (std::uint32_t i = 0; i < hint_count; ++i) {
    ServerHint h;
    h.cdn = get_id32<CdnId>(r);
    h.server = get_id32<ServerId>(r);
    h.load = r.f64();
    h.online = r.boolean();
    report.server_hints.push_back(h);
  }
  std::uint32_t congestion_count =
      get_count(r, kCongestionBytes, "I2A congestion");
  report.congestion.reserve(congestion_count);
  for (std::uint32_t i = 0; i < congestion_count; ++i) {
    CongestionSignal c;
    c.isp = get_id32<IspId>(r);
    auto scope = r.u8();
    if (scope > 2) throw CodecError("bad congestion scope");
    c.scope = static_cast<CongestionScope>(scope);
    c.peering = get_id32<PeeringId>(r);
    c.severity = r.f64();
    report.congestion.push_back(c);
  }
  if (r.remaining() != 8) throw CodecError("trailing bytes in I2A frame");
  return report;
}

}  // namespace eona::core
