// Property sweep for the incremental data-plane solver over 200 seeded
// random mutation sequences. Each sequence drives three views of the same
// history on a random topology:
//
//  * an incremental Network (the default: dirty-component re-solve),
//  * a from-scratch twin (RecomputeMode::kFullSolve, every commit re-solves
//    every flow),
//  * a mirror of plain FlowSpecs solved by max_min_allocation directly.
//
// After every commit the three rate vectors must agree EXACTLY (==, not
// within a tolerance): the solver water-fills connected components
// independently, so the dirty component's arithmetic is identical no matter
// how much of the network is handed to it. The two networks must also agree
// exactly on every link's allocated sum and on each rates-changed report,
// classes (route, rate) and flows (flow, rate, tag, route, moved) in order;
// and every link's flows_on() must list the mirror's flows on that link in
// ascending id order. Route classes rest on one more property, checked on
// all three views: every live elastic flow of one route carries the same
// rate bits. Mutations cover flow
// arrival, departure, demand changes, reroutes, capacity changes (including
// to zero), topology-epoch link down/up flips (the oracle mirrors a down
// link as effective capacity 0), and randomly sized batches.
//
// Two path generators drive the same history:
//  * random paths over the whole arena (general components: the sort and
//    the full water-fill),
//  * a pool of 1-3 shared paths, some repeating a link, with mostly elastic
//    demand: the shape of an access bottleneck, where the incremental
//    network skips the sort (one link's index is the solve order) and
//    water-fills one-path components in one pass. The kFullSolve twin
//    never takes those shortcuts, so it checks them.
//
// Solo routes: the test also predicts, from its own record of what each
// commit dirtied, which commits must skip the BFS -- those whose component
// (closed over the mirror) is the elastic flows of one path and whose
// dirty links all lie on that path -- and requires Network's count of such
// commits to move by exactly that. A sweep over all 200 seeds reports the
// share of commits that take the shortcut and requires it to be nonzero on
// the shared-path histories.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "net/fairshare.hpp"
#include "net/network.hpp"
#include "sim/rng.hpp"

namespace eona::net {
namespace {

struct Arena {
  Topology topo;
  std::vector<LinkId> links;
};

Arena random_arena(sim::Rng& rng) {
  Arena arena;
  const int node_count = static_cast<int>(rng.uniform_int(3, 10));
  std::vector<NodeId> nodes;
  for (int i = 0; i < node_count; ++i)
    nodes.push_back(
        arena.topo.add_node(NodeKind::kRouter, "n" + std::to_string(i)));
  for (int i = 0; i + 1 < node_count; ++i)
    arena.links.push_back(arena.topo.add_link(nodes[i], nodes[i + 1],
                                              mbps(rng.uniform(1, 200)), 0.0));
  const int shortcuts = static_cast<int>(rng.uniform_int(0, node_count / 2));
  for (int s = 0; s < shortcuts; ++s) {
    int i = static_cast<int>(rng.uniform_int(0, node_count - 1));
    int j = static_cast<int>(rng.uniform_int(0, node_count - 1));
    if (i == j) continue;
    arena.links.push_back(arena.topo.add_link(nodes[i], nodes[j],
                                              mbps(rng.uniform(1, 200)), 0.0));
  }
  return arena;
}

Path random_path(sim::Rng& rng, const std::vector<LinkId>& links) {
  Path path;
  for (LinkId l : links)
    if (rng.bernoulli(0.3)) path.push_back(l);
  if (path.empty())
    path.push_back(links[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(links.size()) - 1))]);
  return path;
}

BitsPerSecond random_demand(sim::Rng& rng) {
  return rng.bernoulli(0.4) ? kElasticDemand : mbps(rng.uniform(0.05, 80));
}

/// How a history draws the path and demand of an arrival or reroute.
struct Draws {
  std::function<Path(sim::Rng&)> path;
  std::function<BitsPerSecond(sim::Rng&)> demand;
};

Draws random_draws(const Arena& arena) {
  return Draws{
      [&arena](sim::Rng& rng) { return random_path(rng, arena.links); },
      random_demand};
}

/// A pool of 1-3 short paths; about a third of them cross one link twice.
/// 90% of demands are elastic.
Draws shared_path_draws(sim::Rng& rng, const Arena& arena) {
  auto pick = [&] {
    return arena.links[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(arena.links.size()) - 1))];
  };
  std::vector<Path> pool(static_cast<std::size_t>(rng.uniform_int(1, 3)));
  for (Path& path : pool) {
    path.push_back(pick());
    if (rng.bernoulli(0.5)) path.push_back(pick());
    if (rng.bernoulli(0.35))
      path.push_back(path[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(path.size()) - 1))]);
  }
  return Draws{[pool](sim::Rng& r) {
                 return pool[static_cast<std::size_t>(r.uniform_int(
                     0, static_cast<std::int64_t>(pool.size()) - 1))];
               },
               [](sim::Rng& r) {
                 return r.bernoulli(0.9) ? kElasticDemand
                                         : mbps(r.uniform(0.05, 80));
               }};
}

/// Commits of one history, and how many of them skipped the BFS.
struct SoloCount {
  std::uint64_t commits = 0;
  std::uint64_t solo = 0;
};

/// True when the commit that dirtied `flows` and `links` must take the
/// solo-route shortcut: its component, closed over `mirror`, is not empty,
/// holds only elastic flows of one path, and every dirty link lies on that
/// path.
bool expect_solo(const std::map<FlowId, FlowSpec>& mirror,
                 const std::set<FlowId>& flows, const std::set<LinkId>& links) {
  std::set<FlowId> component;
  std::set<LinkId> seen(links.begin(), links.end());
  std::vector<FlowId> frontier;
  for (FlowId id : flows)
    if (mirror.count(id) > 0) frontier.push_back(id);
  for (LinkId link : links)
    for (const auto& [id, spec] : mirror)
      if (std::find(spec.path.begin(), spec.path.end(), link) !=
          spec.path.end())
        frontier.push_back(id);
  while (!frontier.empty()) {
    FlowId id = frontier.back();
    frontier.pop_back();
    if (!component.insert(id).second) continue;
    for (LinkId link : mirror.at(id).path) {
      if (!seen.insert(link).second) continue;
      for (const auto& [other, spec] : mirror)
        if (std::find(spec.path.begin(), spec.path.end(), link) !=
            spec.path.end())
          frontier.push_back(other);
    }
  }
  if (component.empty()) return false;
  const Path& path = mirror.at(*component.begin()).path;
  for (FlowId id : component) {
    const FlowSpec& spec = mirror.at(id);
    if (spec.demand != kElasticDemand || spec.path != path) return false;
  }
  for (LinkId link : links)
    if (std::find(path.begin(), path.end(), link) == path.end()) return false;
  return true;
}

/// 40 steps of random mutations (some batched), applied identically to an
/// incremental network, its kFullSolve twin and a FlowSpec mirror, with
/// every check in the file comment after each step.
SoloCount run_history(std::uint64_t seed, sim::Rng& rng, const Arena& arena,
                      const Draws& draw) {
  SoloCount count;
  Network inc(arena.topo);  // incremental (default)
  Network full(arena.topo, Network::RecomputeMode::kFullSolve);
  std::map<FlowId, FlowSpec> mirror;  // ordered: ascending-id solve order
  std::map<FlowId, std::uint32_t> tags;
  std::uint32_t next_tag = 7;  // unlike slot numbers, so a mix-up shows
  std::vector<BitsPerSecond> caps(arena.topo.link_count());  // configured
  for (std::size_t l = 0; l < arena.topo.link_count(); ++l)
    caps[l] =
        arena.topo.link(LinkId(static_cast<LinkId::rep_type>(l))).capacity;
  std::vector<char> up(arena.topo.link_count(), 1);
  std::vector<FlowId> live;
  // What the step's mutations dirtied, as the network records it.
  std::set<FlowId> dirty_flows;
  std::set<LinkId> dirty_links;
  std::uint64_t recomputes = 0;
  std::uint64_t solo = 0;

  std::vector<RateReport> inc_reports;
  std::vector<RateReport> full_reports;
  inc.set_rates_changed_hook(
      [&](const RateReport& report) { inc_reports.push_back(report); });
  full.set_rates_changed_hook(
      [&](const RateReport& report) { full_reports.push_back(report); });
  std::map<FlowId, BitsPerSecond> before;  // rates when the step began

  // One report pair. The twin re-solves every flow, so besides the
  // incremental report, in the same order, it may only list classes and
  // flows that were already stranded at rate 0 (a zero rate on a down path
  // is always reported); everything outside the dirty component kept its
  // rate.
  auto compare_reports = [&](const RateReport& inc_report,
                             const RateReport& full_report) {
    std::size_t next = 0;
    for (const ClassRate& change : full_report.classes) {
      if (next < inc_report.classes.size() &&
          inc_report.classes[next].route == change.route) {
        ASSERT_EQ(inc_report.classes[next].rate, change.rate)
            << "seed " << seed << ": report rate of route " << change.route;
        ++next;
        continue;
      }
      ASSERT_EQ(change.rate, 0.0)
          << "seed " << seed << ": incremental report misses route "
          << change.route;
      ASSERT_FALSE(full.path_up(full.route_path(change.route)))
          << "seed " << seed;
      for (const auto& [id, spec] : mirror) {
        if (spec.demand != kElasticDemand || inc.route(id) != change.route)
          continue;
        ASSERT_TRUE(before.count(id) > 0 && before.at(id) == 0.0)
            << "seed " << seed << ": incremental report misses route "
            << change.route;
      }
    }
    ASSERT_EQ(next, inc_report.classes.size())
        << "seed " << seed << ": incremental classes out of order or extra";
    next = 0;
    for (const FlowRate& change : full_report.flows) {
      ASSERT_EQ(change.tag, tags.at(change.flow)) << "seed " << seed;
      if (next < inc_report.flows.size() &&
          inc_report.flows[next].flow == change.flow) {
        const FlowRate& mine = inc_report.flows[next];
        ASSERT_EQ(mine.rate, change.rate)
            << "seed " << seed << ": report rate of flow "
            << change.flow.value();
        ASSERT_EQ(mine.tag, change.tag) << "seed " << seed;
        ASSERT_EQ(mine.route, change.route) << "seed " << seed;
        ASSERT_EQ(mine.moved, change.moved) << "seed " << seed;
        ++next;
        continue;
      }
      auto was = before.find(change.flow);
      ASSERT_EQ(change.rate, 0.0)
          << "seed " << seed << ": incremental report misses flow "
          << change.flow.value();
      ASSERT_TRUE(was != before.end() && was->second == 0.0)
          << "seed " << seed << ": incremental report misses flow "
          << change.flow.value();
      ASSERT_FALSE(full.path_up(full.path(change.flow))) << "seed " << seed;
    }
    ASSERT_EQ(next, inc_report.flows.size())
        << "seed " << seed << ": incremental flows out of order or extra";
  };

  auto check = [&] {
    std::vector<FlowSpec> specs;
    std::vector<FlowId> ids;
    specs.reserve(mirror.size());
    for (const auto& [id, spec] : mirror) {
      ids.push_back(id);
      specs.push_back(spec);
    }
    // The oracle sees effective capacity: a down link is a zero-cap link.
    std::vector<BitsPerSecond> effective(caps.size());
    for (std::size_t l = 0; l < caps.size(); ++l)
      effective[l] = up[l] ? caps[l] : 0.0;
    std::vector<BitsPerSecond> oracle =
        max_min_allocation(arena.topo, specs, effective);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ASSERT_EQ(inc.rate(ids[i]), oracle[i])
          << "seed " << seed << ": incremental vs from-scratch oracle "
          << "diverged on flow " << ids[i].value();
      ASSERT_EQ(inc.rate(ids[i]), full.rate(ids[i]))
          << "seed " << seed << ": incremental vs kFullSolve twin "
          << "diverged on flow " << ids[i].value();
    }
    // One rate per route class: the first live elastic flow of each route
    // sets the bits every later one must carry, in the oracle's solve and
    // in both networks.
    std::map<std::uint32_t, std::size_t> first_of_route;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (specs[i].demand != kElasticDemand) continue;
      ASSERT_EQ(inc.route(ids[i]), full.route(ids[i])) << "seed " << seed;
      const auto [it, first] = first_of_route.emplace(inc.route(ids[i]), i);
      if (first) continue;
      const FlowId head = ids[it->second];
      ASSERT_EQ(std::bit_cast<std::uint64_t>(oracle[i]),
                std::bit_cast<std::uint64_t>(oracle[it->second]))
          << "seed " << seed << ": flows " << head.value() << " and "
          << ids[i].value() << " share a route but not a rate";
      ASSERT_EQ(std::bit_cast<std::uint64_t>(inc.rate(ids[i])),
                std::bit_cast<std::uint64_t>(inc.rate(head)))
          << "seed " << seed;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(full.rate(ids[i])),
                std::bit_cast<std::uint64_t>(full.rate(head)))
          << "seed " << seed;
    }

    for (std::size_t l = 0; l < arena.topo.link_count(); ++l) {
      LinkId link(static_cast<LinkId::rep_type>(l));
      ASSERT_EQ(inc.link_allocated(link), full.link_allocated(link))
          << "seed " << seed << ": link_allocated diverged on link " << l;
      std::vector<FlowId> expected;
      for (const auto& [id, spec] : mirror)
        if (std::find(spec.path.begin(), spec.path.end(), link) !=
            spec.path.end())
          expected.push_back(id);
      ASSERT_EQ(inc.flows_on(link), expected)
          << "seed " << seed << ": flows_on out of id order on link " << l;
    }

    ASSERT_EQ(inc_reports.size(), full_reports.size()) << "seed " << seed;
    for (std::size_t r = 0; r < inc_reports.size(); ++r)
      compare_reports(inc_reports[r], full_reports[r]);

    const bool solo_expected = expect_solo(mirror, dirty_flows, dirty_links);
    ASSERT_EQ(inc.solo_route_count() - solo, solo_expected ? 1u : 0u)
        << "seed " << seed << ": solo-route shortcut "
        << (solo_expected ? "missed" : "taken wrongly");
    count.commits += inc.recompute_count() - recomputes;
    count.solo += inc.solo_route_count() - solo;
    recomputes = inc.recompute_count();
    solo = inc.solo_route_count();
    dirty_flows.clear();
    dirty_links.clear();
    inc_reports.clear();
    full_reports.clear();
    before.clear();
    for (FlowId id : ids) before[id] = inc.rate(id);
  };

  // One mutation applied identically to the incremental network, the
  // from-scratch twin, and the spec mirror.
  auto mutate = [&] {
    int op = static_cast<int>(rng.uniform_int(0, 5));
    if (live.empty() && (op == 1 || op == 2 || op == 3)) op = 0;
    switch (op) {
      case 0: {  // arrival
        Path path = draw.path(rng);
        BitsPerSecond demand = draw.demand(rng);
        const std::uint32_t tag = next_tag++;
        FlowId id = inc.add_flow(path, demand, tag);
        FlowId twin = full.add_flow(path, demand, tag);
        ASSERT_EQ(id, twin);
        dirty_flows.insert(id);
        mirror.emplace(id, FlowSpec{std::move(path), demand});
        tags.emplace(id, tag);
        live.push_back(id);
        break;
      }
      case 1: {  // departure
        std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1));
        FlowId id = live[pick];
        live[pick] = live.back();
        live.pop_back();
        inc.remove_flow(id);
        full.remove_flow(id);
        dirty_links.insert(mirror.at(id).path.begin(),
                           mirror.at(id).path.end());
        mirror.erase(id);
        break;
      }
      case 2: {  // demand change
        FlowId id = live[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1))];
        BitsPerSecond demand = draw.demand(rng);
        inc.set_demand(id, demand);
        full.set_demand(id, demand);
        if (mirror.at(id).demand != demand) dirty_flows.insert(id);
        mirror.at(id).demand = demand;
        break;
      }
      case 3: {  // reroute
        FlowId id = live[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1))];
        Path path = draw.path(rng);
        inc.reroute(id, path);
        full.reroute(id, path);
        dirty_links.insert(mirror.at(id).path.begin(),
                           mirror.at(id).path.end());
        dirty_flows.insert(id);
        mirror.at(id).path = std::move(path);
        break;
      }
      case 4: {  // capacity change (occasionally a dead link)
        LinkId link = arena.links[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(arena.links.size()) - 1))];
        BitsPerSecond cap =
            rng.bernoulli(0.1) ? 0.0 : mbps(rng.uniform(0.5, 200));
        inc.set_link_capacity(link, cap);
        full.set_link_capacity(link, cap);
        if (caps[link.value()] != cap) dirty_links.insert(link);
        caps[link.value()] = cap;
        break;
      }
      case 5: {  // link down/up flip (bumps the topology epoch)
        LinkId link = arena.links[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(arena.links.size()) - 1))];
        bool new_up = !up[link.value()];
        inc.set_link_up(link, new_up);
        full.set_link_up(link, new_up);
        dirty_links.insert(link);
        up[link.value()] = new_up ? 1 : 0;
        ASSERT_EQ(inc.topology_epoch(), full.topology_epoch());
        break;
      }
    }
  };

  const int steps = 40;
  for (int step = 0; step < steps; ++step) {
    if (rng.bernoulli(0.3)) {
      // A batch: several mutations, one commit on both networks.
      auto burst = rng.uniform_int(2, 6);
      {
        Network::Batch inc_batch(inc);
        Network::Batch full_batch(full);
        for (std::int64_t i = 0; i < burst; ++i) mutate();
      }
    } else {
      mutate();
    }
    check();
    if (::testing::Test::HasFatalFailure()) return count;
  }
  return count;
}

/// Report a history's solo-route commits on the test's XML record.
void record(const SoloCount& count) {
  ::testing::Test::RecordProperty("commits", static_cast<int>(count.commits));
  ::testing::Test::RecordProperty("solo_route_commits",
                                  static_cast<int>(count.solo));
}

class IncrementalPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

SoloCount random_history(std::uint64_t seed) {
  sim::Rng rng(seed ^ 0x1C0DEull);
  Arena arena = random_arena(rng);
  return run_history(seed, rng, arena, random_draws(arena));
}

SoloCount shared_path_history(std::uint64_t seed) {
  sim::Rng rng(seed ^ 0x5A4EDull);
  Arena arena = random_arena(rng);
  Draws draws = shared_path_draws(rng, arena);
  return run_history(seed, rng, arena, draws);
}

TEST_P(IncrementalPropertyTest, MatchesFromScratchAfterEveryCommit) {
  record(random_history(GetParam()));
}

TEST_P(IncrementalPropertyTest, SharedPathsMatchFromScratch) {
  record(shared_path_history(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 200));

// The whole sweep, both generators: the share of commits that skip the
// BFS. Shared paths must take the shortcut somewhere.
TEST(IncrementalPropertySweep, SoloRouteShareOverAllSeeds) {
  SoloCount random, shared;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const SoloCount r = random_history(seed);
    const SoloCount s = shared_path_history(seed);
    ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
    random.commits += r.commits;
    random.solo += r.solo;
    shared.commits += s.commits;
    shared.solo += s.solo;
  }
  auto share = [](const SoloCount& c) {
    return static_cast<double>(c.solo) / static_cast<double>(c.commits);
  };
  std::cout << "solo-route commits: random paths " << random.solo << "/"
            << random.commits << " (" << 100.0 * share(random)
            << "%), shared paths " << shared.solo << "/" << shared.commits
            << " (" << 100.0 * share(shared) << "%)\n";
  RecordProperty("random_paths_solo_share", std::to_string(share(random)));
  RecordProperty("shared_paths_solo_share", std::to_string(share(shared)));
  EXPECT_GT(shared.solo, 0u);
}

}  // namespace
}  // namespace eona::net
