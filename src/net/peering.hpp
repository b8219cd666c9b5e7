// Peering points: the interconnects between ISPs and CDNs, and the ISP's
// selectable mapping of "which peering point carries traffic from CDN X".
//
// In the paper's Figure 5 an ISP peers with CDN X at a local point B and at
// a public IXP C, and the InfP's knob is the per-CDN egress/ingress choice.
// Content flows CDN -> ISP, so a peering point is anchored on the directed
// link entering the ISP.
#pragma once

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/ids.hpp"
#include "net/topology.hpp"

namespace eona::net {

/// One interconnect between a CDN and an ISP.
struct PeeringPoint {
  PeeringId id;
  IspId isp;
  CdnId cdn;
  /// Directed link CDN-side -> ISP-side carrying the content traffic.
  LinkId ingress_link;
  std::string name;
};

/// Registry of peering points plus the ISP's current per-CDN selection.
/// The selection is an InfP-owned knob: only the InfP controller mutates it,
/// other parties may observe it exclusively through EONA-I2A.
class PeeringBook {
 public:
  explicit PeeringBook(const Topology& topo) : topo_(&topo) {}

  PeeringId add(IspId isp, CdnId cdn, LinkId ingress_link, std::string name) {
    EONA_EXPECTS(topo_->contains(ingress_link));
    PeeringId id(static_cast<PeeringId::rep_type>(points_.size()));
    points_.push_back(PeeringPoint{id, isp, cdn, ingress_link, std::move(name)});
    of_isp_[isp].push_back(id);
    // The first registered point for a (isp, cdn) pair becomes the default
    // selection, mirroring a static BGP preference.
    auto key = pair_key(isp, cdn);
    if (selected_.find(key) == selected_.end()) selected_[key] = id;
    return id;
  }

  [[nodiscard]] const PeeringPoint& point(PeeringId id) const {
    if (!id.valid() || id.value() >= points_.size())
      throw NotFoundError("peering point " + std::to_string(id.value()));
    return points_[id.value()];
  }

  /// All peering points between the pair, in registration order.
  [[nodiscard]] std::vector<PeeringId> points_between(IspId isp,
                                                      CdnId cdn) const {
    std::vector<PeeringId> result;
    for (const auto& p : points_)
      if (p.isp == isp && p.cdn == cdn) result.push_back(p.id);
    return result;
  }

  /// True when the pair has at least one peering point (the same answer
  /// as !points_between(isp, cdn).empty(), without building the list): a
  /// pair's first point made its default selection.
  [[nodiscard]] bool has_peering(IspId isp, CdnId cdn) const {
    return selected_.contains(pair_key(isp, cdn));
  }

  /// All peering points of the ISP, in registration order. A view of a
  /// list `add` keeps, valid until the next `add`: InfP control ticks walk
  /// it without building a vector.
  [[nodiscard]] std::span<const PeeringId> points_of_isp(IspId isp) const {
    auto it = of_isp_.find(isp);
    if (it == of_isp_.end()) return {};
    return it->second;
  }

  /// The peering point the ISP currently uses for traffic from `cdn`.
  [[nodiscard]] PeeringId selected(IspId isp, CdnId cdn) const {
    auto it = selected_.find(pair_key(isp, cdn));
    if (it == selected_.end())
      throw NotFoundError("no peering between isp " +
                          std::to_string(isp.value()) + " and cdn " +
                          std::to_string(cdn.value()));
    return it->second;
  }

  /// InfP knob: select which peering point carries the CDN's traffic.
  void select(PeeringId id) {
    const PeeringPoint& p = point(id);
    selected_[pair_key(p.isp, p.cdn)] = id;
  }

  [[nodiscard]] std::size_t size() const { return points_.size(); }

 private:
  static std::uint64_t pair_key(IspId isp, CdnId cdn) {
    return (static_cast<std::uint64_t>(isp.value()) << 32) | cdn.value();
  }

  const Topology* topo_;
  std::vector<PeeringPoint> points_;
  std::unordered_map<IspId, std::vector<PeeringId>> of_isp_;
  std::unordered_map<std::uint64_t, PeeringId> selected_;
};

}  // namespace eona::net
