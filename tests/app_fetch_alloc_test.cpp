// Allocation pin for the chunk-fetch path: once warm, planning a cache-hit
// fetch through a peering book, starting transfers on its path, running
// them to completion and publishing the data plane's recompute events to a
// subscriber allocate nothing. A counting replacement of the global
// operator new sees every heap allocation the process makes, so this test
// is its own binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "app/cdn.hpp"
#include "net/network.hpp"
#include "net/peering.hpp"
#include "net/routing.hpp"
#include "net/transfer.hpp"
#include "sim/event_bus.hpp"
#include "sim/events.hpp"
#include "sim/scheduler.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Out of line, so the compiler never pairs an inlined free() with a visible
// operator new call (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace eona::app {
namespace {

TEST(FetchAllocation, SteadyStateChunkCyclesAllocateNothing) {
  net::Topology topo;
  NodeId client = topo.add_node(net::NodeKind::kClientPop, "client");
  NodeId edge = topo.add_node(net::NodeKind::kRouter, "edge");
  NodeId server = topo.add_node(net::NodeKind::kCdnServer, "server");
  NodeId origin = topo.add_node(net::NodeKind::kOrigin, "origin");
  topo.add_link(edge, client, mbps(100), milliseconds(1));
  LinkId egress = topo.add_link(server, edge, mbps(50), milliseconds(1));
  topo.add_link(origin, server, mbps(20), milliseconds(10));

  sim::Scheduler sched;
  sim::EventBus bus;
  net::Network network(topo);
  network.set_event_bus(&bus, &sched);
  std::uint64_t recomputes = 0;
  bus.subscribe<sim::RateRecomputeEvent>(
      [&recomputes](const sim::RateRecomputeEvent&) { ++recomputes; });
  net::Routing routing(topo);
  routing.attach_link_state(&network);
  net::TransferManager transfers(sched, network);
  net::PeeringBook book(topo);
  const IspId isp(0);
  Cdn cdn(CdnId(0), "cdn", origin);
  book.add(isp, cdn.id(), egress, "egress");
  cdn.set_peering_book(&book);
  ServerId srv = cdn.add_server(server, egress, 4);
  const ContentId content(3);
  cdn.warm_cache(srv, {content});

  int completed = 0;
  int misses = 0;
  auto cycle = [&] {
    FetchPlan plan = cdn.plan_fetch(content, srv, client, isp, routing);
    if (!plan.cache_hit) ++misses;
    for (int k = 1; k <= 3; ++k)
      transfers.start(plan.path, megabits(k),
                      [&completed](net::TransferId) { ++completed; });
    while (sched.step()) {
    }
  };

  // Warm up: routes cached and interned, every vector at its working size.
  for (int i = 0; i < 20; ++i) cycle();
  const std::uint64_t recomputes_before = recomputes;
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) cycle();
  const std::uint64_t allocations = g_allocations.load() - before;

  EXPECT_EQ(allocations, 0u) << "per cycle: " << allocations / 1000.0;
  EXPECT_EQ(completed, 3 * 1020);
  EXPECT_EQ(misses, 0);
  // Each cycle recomputes on every start and every completion.
  EXPECT_EQ(recomputes - recomputes_before, 6u * 1000u);
  EXPECT_EQ(transfers.active_count(), 0u);
  EXPECT_EQ(network.flow_count(), 0u);
}

TEST(FetchAllocation, TheCounterSeesHeapAllocations) {
  // Guards the pin above against a replacement that counts nothing.
  const std::uint64_t before = g_allocations.load();
  std::uint64_t* volatile box = new std::uint64_t(7);  // kept: volatile
  const std::uint64_t after = g_allocations.load();
  delete box;
  EXPECT_EQ(after - before, 1u);
}

}  // namespace
}  // namespace eona::app
