#include "scenarios/chaos.hpp"

#include <charconv>
#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "eona/exchange.hpp"
#include "scenarios/world.hpp"

namespace eona::sim {

namespace {

/// Where a plan token sits: its clause and the clause's byte position
/// (1-based) in the plan string.
std::string in_clause(const std::string& clause, std::size_t pos) {
  return "in '" + clause + "' at position " + std::to_string(pos + 1);
}

/// Every parse error names the offending token, the clause it sits in, and
/// the clause's byte position, so a bad clause in a long plan is findable
/// -- and never silently skipped.
[[noreturn]] void parse_fail(const std::string& what, const std::string& clause,
                             std::size_t pos) {
  throw ConfigError("fault plan: " + what + " " + in_clause(clause, pos));
}

FaultAction::Kind parse_kind(const std::string& word,
                             const std::string& clause, std::size_t pos) {
  if (word == "down") return FaultAction::Kind::kLinkDown;
  if (word == "up") return FaultAction::Kind::kLinkUp;
  if (word == "brownout") return FaultAction::Kind::kBrownout;
  if (word == "crash") return FaultAction::Kind::kServerCrash;
  if (word == "restart") return FaultAction::Kind::kServerRestart;
  parse_fail("unknown kind '" + word + "'", clause, pos);
}

const char* kind_name(FaultAction::Kind kind) {
  switch (kind) {
    case FaultAction::Kind::kLinkDown: return "link_down";
    case FaultAction::Kind::kLinkUp: return "link_up";
    case FaultAction::Kind::kBrownout: return "brownout";
    case FaultAction::Kind::kServerCrash: return "server_crash";
    case FaultAction::Kind::kServerRestart: return "server_restart";
    case FaultAction::Kind::kExchangeCrash: return "exchange_crash";
    case FaultAction::Kind::kExchangeRestart: return "exchange_restart";
  }
  return "unknown";
}

/// The whole of `text` as a finite number, read as the override parser
/// reads one (std::from_chars: no leading space or '+', no hex, no inf or
/// nan). `where` places the token for the error message.
double parse_number(const std::string& text, const std::string& where) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || !std::isfinite(value))
    throw ConfigError("fault plan: bad number '" + text + "' " + where);
  return value;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(';', start);
    if (end == std::string::npos) end = spec.size();
    const std::size_t pos = start;  // clause's byte offset in the plan
    std::string clause = spec.substr(start, end - start);
    start = end + 1;
    // Empty clauses (";;", trailing ';') are CLI artifacts, not plans --
    // skipped so "" and ";;" both yield the empty plan.
    if (clause.empty()) continue;

    FaultAction action;
    std::size_t colon = clause.find(':');
    if (colon == std::string::npos)
      parse_fail("missing ':'", clause, pos);
    action.kind = parse_kind(clause.substr(0, colon), clause, pos);

    // Targets (link names) legitimately contain '@' ("X@B"), so the time
    // separator is the LAST '@' of the clause.
    std::string rest = clause.substr(colon + 1);
    std::size_t at = rest.rfind('@');
    if (at == std::string::npos || at == 0)
      parse_fail("missing '@time'", clause, pos);
    action.target = rest.substr(0, at);

    std::string tail = rest.substr(at + 1);
    std::size_t factor_sep = tail.find(':');
    if (factor_sep != std::string::npos) {
      if (action.kind != FaultAction::Kind::kBrownout)
        parse_fail("factor only valid for brownout", clause, pos);
      action.factor =
          parse_number(tail.substr(factor_sep + 1), in_clause(clause, pos));
      tail = tail.substr(0, factor_sep);
    }
    action.at = parse_number(tail, in_clause(clause, pos));

    if (action.at < 0.0)
      parse_fail("negative time", clause, pos);
    if (action.kind == FaultAction::Kind::kBrownout &&
        (action.factor <= 0.0 || action.factor > 1.0))
      parse_fail("brownout factor must be in (0, 1]", clause, pos);
    // The broker is addressed by the literal target "exchange"; the kind
    // words stay crash/restart, shared with the server faults.
    if (action.target == "exchange") {
      if (action.kind == FaultAction::Kind::kServerCrash)
        action.kind = FaultAction::Kind::kExchangeCrash;
      else if (action.kind == FaultAction::Kind::kServerRestart)
        action.kind = FaultAction::Kind::kExchangeRestart;
      else
        parse_fail("only crash/restart apply to the exchange", clause, pos);
    }
    plan.actions.push_back(std::move(action));
  }
  return plan;
}

ChaosEngine::ChaosEngine(Scheduler& sched, EventBus& bus,
                         net::Network& network,
                         const app::CdnDirectory* cdns)
    : sched_(sched),
      bus_(bus),
      network_(network),
      cdns_(cdns),
      gate_(sched.open_gate()) {}

ChaosEngine::~ChaosEngine() { sched_.close_gate(gate_); }

ChaosEngine::Resolved ChaosEngine::resolve(const FaultAction& action) const {
  Resolved r;
  r.kind = action.kind;
  r.factor = action.factor;
  if (action.kind == FaultAction::Kind::kExchangeCrash ||
      action.kind == FaultAction::Kind::kExchangeRestart) {
    if (exchange_ == nullptr)
      throw ConfigError("fault plan: exchange fault but no exchange attached");
    return r;  // no link: the broker is not a topology element
  }
  if (action.kind == FaultAction::Kind::kServerCrash ||
      action.kind == FaultAction::Kind::kServerRestart) {
    std::size_t slash = action.target.find('/');
    if (slash == std::string::npos)
      throw ConfigError("fault plan: server target must be 'cdn/index', got '" +
                        action.target + "'");
    std::string cdn_name = action.target.substr(0, slash);
    const std::string index_text = action.target.substr(slash + 1);
    const double index =
        parse_number(index_text, "in '" + action.target + "'");
    if (cdns_ == nullptr)
      throw ConfigError("fault plan: server fault but no CDN directory");
    for (app::Cdn* cdn : cdns_->all()) {
      if (cdn->name() != cdn_name) continue;
      const auto& servers = cdn->servers();
      // Checked as a double: a negative, fractional or huge index must not
      // reach the integer cast.
      if (!(index >= 0.0 && index == std::floor(index) &&
            index < static_cast<double>(servers.size())))
        throw ConfigError("fault plan: cdn '" + cdn_name + "' has no server " +
                          index_text);
      const auto& server = servers[static_cast<std::size_t>(index)];
      r.cdn = cdn;
      r.server = server.id;
      r.link = server.egress;
      return r;
    }
    throw ConfigError("fault plan: unknown cdn '" + cdn_name + "'");
  }
  // Link kinds: resolve by topology link name (exact match).
  for (const net::Link& link : network_.topology().links()) {
    if (link.name == action.target) {
      r.link = link.id;
      return r;
    }
  }
  throw ConfigError("fault plan: unknown link '" + action.target + "'");
}

void ChaosEngine::schedule(const FaultPlan& plan) {
  // Group same-time actions (plan order preserved within a group): one
  // scheduler event and one Network batch per instant, so e.g. a scheduled
  // partition lands as a single consistent topology mutation.
  std::map<TimePoint, std::vector<Resolved>> groups;
  for (const FaultAction& action : plan.actions)
    groups[action.at].push_back(resolve(action));
  for (auto& [at, group] : groups)
    sched_.post_at(at, gate_,
                   [this, group = std::move(group)] { execute(group); });
}

void ChaosEngine::execute(const std::vector<Resolved>& group) {
  {
    // All mutations of the instant land as one batch: one rate recompute,
    // one consistent dirty set for the incremental solver.
    net::Network::Batch batch(network_);
    for (const Resolved& r : group) {
      switch (r.kind) {
        case FaultAction::Kind::kLinkDown:
          network_.set_link_up(r.link, false);
          break;
        case FaultAction::Kind::kLinkUp:
          network_.set_link_up(r.link, true);
          break;
        case FaultAction::Kind::kBrownout:
          network_.set_link_capacity(
              r.link, r.factor * network_.configured_link_capacity(r.link));
          break;
        case FaultAction::Kind::kServerCrash:
          r.cdn->set_online(r.server, false);
          network_.set_link_up(r.link, false);
          break;
        case FaultAction::Kind::kServerRestart:
          r.cdn->set_online(r.server, true);
          network_.set_link_up(r.link, true);
          break;
        case FaultAction::Kind::kExchangeCrash:
          exchange_->crash();
          break;
        case FaultAction::Kind::kExchangeRestart:
          exchange_->restart();
          break;
      }
    }
  }
  // Publish after the batch committed: subscribers (EONA InfP failover,
  // monitors, the trace) observe the post-fault data plane, and any reroutes
  // they issue run before the stranded-transfer sweep fires. Broker faults
  // carry an invalid LinkId; link-keyed subscribers ignore them.
  for (const Resolved& r : group) {
    ++fault_count_;
    bus_.publish(FaultEvent{sched_.now(), kind_name(r.kind), r.link,
                            r.factor});
  }
}

std::unique_ptr<ChaosEngine> schedule_faults(World& world,
                                             const FaultPlan& plan) {
  if (plan.empty()) return nullptr;
  auto chaos = std::make_unique<ChaosEngine>(world.sched(), world.bus(),
                                             world.network(),
                                             &world.directory());
  if (world.has_exchange()) chaos->set_exchange(&world.exchange());
  chaos->schedule(plan);
  return chaos;
}

std::unique_ptr<ChaosEngine> schedule_faults(World& world,
                                             const std::string& spec) {
  return schedule_faults(world, FaultPlan::parse(spec));
}

}  // namespace eona::sim
