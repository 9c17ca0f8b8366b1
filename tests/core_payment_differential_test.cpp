// Differential tests pinning the rewired payment engines to the pre-PR
// allocating implementations. Each reference below replicates the old
// engine body verbatim on top of the frozen allocating Dijkstra loop
// (tests/reference/dijkstra_reference.hpp); the live engines (built on
// DijkstraWorkspace + MaskedSptDelta) must agree bit for bit — same
// payments, same metrics, same monopoly/skip counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/edge_vcg.hpp"
#include "core/link_vcg.hpp"
#include "core/neighbor_collusion.hpp"
#include "core/overpayment.hpp"
#include "core/transit.hpp"
#include "core/vcg_unicast.hpp"
#include "graph/generators.hpp"
#include "spath/avoiding.hpp"
#include "dijkstra_reference.hpp"
#include "spath/dijkstra.hpp"

namespace tc::core {
namespace {

using graph::Cost;
using graph::kInfCost;
using graph::kInvalidNode;
using graph::NodeId;

constexpr std::uint64_t kSeeds = 40;

void expect_bits_equal(const std::vector<Cost>& a, const std::vector<Cost>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(Cost)), 0);
}

// --- pre-PR reference implementations ------------------------------------

PaymentResult ref_vcg_payments_naive(const graph::NodeGraph& g, NodeId source,
                                     NodeId target) {
  PaymentResult result;
  result.payments.assign(g.num_nodes(), 0.0);
  const spath::SptResult spt = spath::reference::dijkstra_node(g, source);
  if (!spt.reached(target)) return result;
  result.path = spt.path_to(target);
  result.path_cost = spt.dist[target];
  for (std::size_t i = 1; i + 1 < result.path.size(); ++i) {
    const NodeId k = result.path[i];
    graph::NodeMask mask(g.num_nodes());
    mask.block(k);
    const spath::SptResult avoid =
        spath::reference::dijkstra_node(g, source, mask);
    const Cost cost = avoid.reached(target) ? avoid.dist[target] : kInfCost;
    result.payments[k] = graph::finite_cost(cost)
                             ? cost - result.path_cost + g.node_cost(k)
                             : kInfCost;
  }
  return result;
}

PaymentResult ref_neighbor_resistant(const graph::NodeGraph& g, NodeId source,
                                     NodeId target) {
  PaymentResult result;
  result.payments.assign(g.num_nodes(), 0.0);
  const spath::SptResult spt = spath::reference::dijkstra_node(g, source);
  if (!spt.reached(target)) return result;
  result.path = spt.path_to(target);
  result.path_cost = spt.dist[target];
  std::vector<bool> on_path(g.num_nodes(), false);
  for (std::size_t i = 1; i + 1 < result.path.size(); ++i)
    on_path[result.path[i]] = true;
  for (NodeId k = 0; k < g.num_nodes(); ++k) {
    if (k == source || k == target) continue;
    graph::NodeMask mask(g.num_nodes());
    for (NodeId v : closed_neighborhood(g, k)) {
      if (v != source && v != target) mask.block(v);
    }
    const spath::SptResult avoid =
        spath::reference::dijkstra_node(g, source, mask);
    const Cost avoid_cost =
        avoid.reached(target) ? avoid.dist[target] : kInfCost;
    if (!graph::finite_cost(avoid_cost)) {
      result.payments[k] = kInfCost;
      continue;
    }
    result.payments[k] = (on_path[k] ? g.node_cost(k) : 0.0) +
                         (avoid_cost - result.path_cost);
  }
  return result;
}

PaymentResult ref_link_vcg(const graph::LinkGraph& g, NodeId source,
                           NodeId target) {
  PaymentResult result;
  result.payments.assign(g.num_nodes(), 0.0);
  const spath::SptResult spt = spath::reference::dijkstra_link(g, source);
  if (!spt.reached(target)) return result;
  result.path = spt.path_to(target);
  result.path_cost = spt.dist[target];
  for (std::size_t i = 1; i + 1 < result.path.size(); ++i) {
    const NodeId k = result.path[i];
    graph::NodeMask mask(g.num_nodes());
    mask.block(k);
    const spath::SptResult avoid =
        spath::reference::dijkstra_link(g, source, mask);
    const Cost avoid_cost =
        avoid.reached(target) ? avoid.dist[target] : kInfCost;
    if (!graph::finite_cost(avoid_cost)) {
      result.payments[k] = kInfCost;
      continue;
    }
    const Cost own = node_arc_cost_on_path(g, result.path, k);
    result.payments[k] = own + (avoid_cost - result.path_cost);
  }
  return result;
}

EdgeVcgResult ref_edge_vcg_naive(const graph::LinkGraph& g, NodeId source,
                                 NodeId target) {
  EdgeVcgResult result;
  const spath::SptResult spt = spath::reference::dijkstra_link(g, source);
  if (!spt.reached(target)) return result;
  result.path = spt.path_to(target);
  result.path_cost = spt.dist[target];
  graph::LinkGraph work = g;
  for (std::size_t i = 0; i + 1 < result.path.size(); ++i) {
    const NodeId u = result.path[i];
    const NodeId v = result.path[i + 1];
    const Cost w = g.arc_cost(u, v);
    work.set_arc_cost(u, v, kInfCost);
    work.set_arc_cost(v, u, kInfCost);
    const spath::SptResult detour =
        spath::reference::dijkstra_link(work, source);
    work.set_arc_cost(u, v, w);
    work.set_arc_cost(v, u, w);
    EdgePayment payment;
    payment.u = u;
    payment.v = v;
    payment.declared = w;
    payment.payment = detour.reached(target)
                          ? detour.dist[target] - result.path_cost + w
                          : kInfCost;
    result.payments.push_back(payment);
  }
  return result;
}

/// Replica of the pre-PR study_from_tree (overpayment.cpp) with the old
/// full-masked-Dijkstra avoid_dist lambdas.
template <typename AvoidDistFn, typename RelayChargeFn, typename SourceOwnFn>
OverpaymentResult ref_study_from_tree(std::size_t n, NodeId ap,
                                      const spath::SptResult& to_ap,
                                      AvoidDistFn&& avoid_dist,
                                      RelayChargeFn&& relay_charge,
                                      SourceOwnFn&& source_own_cost) {
  OverpaymentResult result;
  std::size_t skipped = 0;
  std::size_t monopolies = 0;
  std::vector<bool> is_relay(n, false);
  for (NodeId i = 0; i < n; ++i) {
    if (i == ap || !to_ap.reached(i)) continue;
    const NodeId p = to_ap.parent[i];
    if (p != kInvalidNode && p != ap) is_relay[p] = true;
  }
  std::vector<std::vector<Cost>> avoid_cache(n);
  auto avoid_for = [&](NodeId k) -> const std::vector<Cost>& {
    if (avoid_cache[k].empty()) avoid_cache[k] = avoid_dist(k);
    return avoid_cache[k];
  };
  for (NodeId i = 0; i < n; ++i) {
    if (i == ap) continue;
    if (!to_ap.reached(i)) {
      ++skipped;
      continue;
    }
    SourceOverpayment src;
    src.source = i;
    const Cost full_cost = to_ap.dist[i];
    src.lcp_cost = full_cost - source_own_cost(i);
    bool monopoly = false;
    Cost payment = 0.0;
    std::size_t hops = 0;
    for (NodeId k = to_ap.parent[i]; k != kInvalidNode && !monopoly;
         k = to_ap.parent[k]) {
      ++hops;
      if (k == ap) break;
      const Cost avoided = avoid_for(k)[i];
      if (!graph::finite_cost(avoided)) {
        monopoly = true;
        break;
      }
      payment += relay_charge(k) + (avoided - full_cost);
    }
    if (monopoly) {
      ++monopolies;
      continue;
    }
    src.payment = payment;
    src.hops = hops;
    if (src.hops <= 1) ++skipped;
    result.per_source.push_back(src);
  }
  result.metrics = summarize_overpayment(result.per_source, monopolies, skipped);
  return result;
}

OverpaymentResult ref_overpayment_node(const graph::NodeGraph& g, NodeId ap) {
  const spath::SptResult to_ap = spath::reference::dijkstra_node(g, ap);
  auto avoid_dist = [&](NodeId k) {
    graph::NodeMask mask(g.num_nodes());
    mask.block(k);
    return spath::reference::dijkstra_node(g, ap, mask).dist;
  };
  auto relay_charge = [&](NodeId k) { return g.node_cost(k); };
  auto source_own = [](NodeId) { return 0.0; };
  return ref_study_from_tree(g.num_nodes(), ap, to_ap, avoid_dist,
                             relay_charge, source_own);
}

OverpaymentResult ref_overpayment_link(const graph::LinkGraph& g, NodeId ap) {
  const graph::LinkGraph rev = spath::reference::reverse_graph(g);
  const spath::SptResult to_ap = spath::reference::dijkstra_link(rev, ap);
  auto avoid_dist = [&](NodeId k) {
    graph::NodeMask mask(g.num_nodes());
    mask.block(k);
    return spath::reference::dijkstra_link(rev, ap, mask).dist;
  };
  auto relay_charge = [&](NodeId k) { return g.arc_cost(k, to_ap.parent[k]); };
  auto source_own = [&](NodeId i) {
    const NodeId first_hop = to_ap.parent[i];
    return first_hop == kInvalidNode ? 0.0 : g.arc_cost(i, first_hop);
  };
  return ref_study_from_tree(g.num_nodes(), ap, to_ap, avoid_dist,
                             relay_charge, source_own);
}

TransitResult ref_transit(const graph::NodeGraph& g,
                          const TrafficMatrix& intensity) {
  const std::size_t n = g.num_nodes();
  TransitResult result;
  result.compensation.assign(n, 0.0);
  for (NodeId j = 0; j < n; ++j) {
    bool any_flow = false;
    for (NodeId i = 0; i < n; ++i) {
      if (i != j && intensity[i][j] > 0.0) {
        any_flow = true;
        break;
      }
    }
    if (!any_flow) continue;
    const spath::SptResult to_j = spath::reference::dijkstra_node(g, j);
    std::vector<std::vector<Cost>> avoid_cache(n);
    auto avoid_for = [&](NodeId k) -> const std::vector<Cost>& {
      if (avoid_cache[k].empty()) {
        graph::NodeMask mask(n);
        mask.block(k);
        avoid_cache[k] = spath::reference::dijkstra_node(g, j, mask).dist;
      }
      return avoid_cache[k];
    };
    for (NodeId i = 0; i < n; ++i) {
      if (i == j) continue;
      const double packets = intensity[i][j];
      if (packets <= 0.0) continue;
      if (!to_j.reached(i)) {
        ++result.unroutable_flows;
        continue;
      }
      Cost flow_payment = 0.0;
      bool monopoly = false;
      std::vector<std::pair<NodeId, Cost>> relay_shares;
      for (NodeId k = to_j.parent[i]; k != j && k != kInvalidNode;
           k = to_j.parent[k]) {
        const Cost avoided = avoid_for(k)[i];
        if (!graph::finite_cost(avoided)) {
          monopoly = true;
          break;
        }
        const Cost p = g.node_cost(k) + (avoided - to_j.dist[i]);
        relay_shares.emplace_back(k, p);
        flow_payment += p;
      }
      if (monopoly) {
        ++result.monopoly_flows;
        continue;
      }
      for (const auto& [k, p] : relay_shares) {
        result.compensation[k] += packets * p;
      }
      result.total_payment += packets * flow_payment;
      result.total_traffic_cost += packets * to_j.dist[i];
    }
  }
  return result;
}

// --- differential checks ---------------------------------------------------

void expect_same_payment(const PaymentResult& got, const PaymentResult& want) {
  EXPECT_EQ(got.path, want.path);
  EXPECT_EQ(got.path_cost, want.path_cost);
  expect_bits_equal(got.payments, want.payments);
}

graph::NodeGraph random_node_graph(std::uint64_t seed) {
  return graph::make_erdos_renyi(48, 0.12, 0.1, 9.0, seed);
}

TEST(PaymentDifferential, VcgNaiveMatchesReference) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto g = random_node_graph(seed);
    const NodeId s = static_cast<NodeId>(seed % g.num_nodes());
    const NodeId t = static_cast<NodeId>((seed * 17 + 5) % g.num_nodes());
    if (s == t) continue;
    expect_same_payment(vcg_payments_naive(g, s, t),
                        ref_vcg_payments_naive(g, s, t));
  }
}

TEST(PaymentDifferential, NeighborResistantMatchesReference) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto g = random_node_graph(seed);
    const NodeId s = static_cast<NodeId>(seed % g.num_nodes());
    const NodeId t = static_cast<NodeId>((seed * 17 + 5) % g.num_nodes());
    if (s == t) continue;
    expect_same_payment(neighbor_resistant_payments(g, s, t),
                        ref_neighbor_resistant(g, s, t));
  }
}

TEST(PaymentDifferential, LinkVcgMatchesReference) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    graph::HeteroParams params;
    params.n = 48;
    const auto g = graph::make_hetero_geometric(params, seed);
    const NodeId s = static_cast<NodeId>(seed % g.num_nodes());
    const NodeId t = static_cast<NodeId>((seed * 17 + 5) % g.num_nodes());
    if (s == t) continue;
    expect_same_payment(link_vcg_payments(g, s, t), ref_link_vcg(g, s, t));
  }
}

TEST(PaymentDifferential, EdgeVcgNaiveMatchesReference) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    graph::UdgParams params;
    params.n = 48;  // symmetric costs, as edge-agent VCG requires
    const auto g = graph::make_unit_disk_link(params, seed);
    const NodeId s = static_cast<NodeId>(seed % g.num_nodes());
    const NodeId t = static_cast<NodeId>((seed * 17 + 5) % g.num_nodes());
    if (s == t) continue;
    const EdgeVcgResult got = edge_vcg_payments_naive(g, s, t);
    const EdgeVcgResult want = ref_edge_vcg_naive(g, s, t);
    EXPECT_EQ(got.path, want.path);
    EXPECT_EQ(got.path_cost, want.path_cost);
    ASSERT_EQ(got.payments.size(), want.payments.size());
    for (std::size_t i = 0; i < got.payments.size(); ++i) {
      EXPECT_EQ(got.payments[i].u, want.payments[i].u);
      EXPECT_EQ(got.payments[i].v, want.payments[i].v);
      EXPECT_EQ(got.payments[i].declared, want.payments[i].declared);
      EXPECT_EQ(got.payments[i].payment, want.payments[i].payment);
    }
  }
}

void expect_same_overpayment(const OverpaymentResult& got,
                             const OverpaymentResult& want) {
  ASSERT_EQ(got.per_source.size(), want.per_source.size());
  for (std::size_t i = 0; i < got.per_source.size(); ++i) {
    EXPECT_EQ(got.per_source[i].source, want.per_source[i].source);
    EXPECT_EQ(got.per_source[i].payment, want.per_source[i].payment);
    EXPECT_EQ(got.per_source[i].lcp_cost, want.per_source[i].lcp_cost);
    EXPECT_EQ(got.per_source[i].hops, want.per_source[i].hops);
  }
  EXPECT_EQ(got.metrics.tor, want.metrics.tor);
  EXPECT_EQ(got.metrics.ior, want.metrics.ior);
  EXPECT_EQ(got.metrics.worst, want.metrics.worst);
  EXPECT_EQ(got.metrics.sources_counted, want.metrics.sources_counted);
  EXPECT_EQ(got.metrics.sources_skipped, want.metrics.sources_skipped);
  EXPECT_EQ(got.metrics.monopoly_sources, want.metrics.monopoly_sources);
}

TEST(PaymentDifferential, OverpaymentNodeModelMatchesReference) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto g = random_node_graph(seed);
    expect_same_overpayment(overpayment_node_model(g, 0),
                            ref_overpayment_node(g, 0));
  }
}

TEST(PaymentDifferential, OverpaymentLinkModelMatchesReference) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    graph::UdgParams params;
    params.n = 64;
    const auto g = graph::make_unit_disk_link(params, seed);
    expect_same_overpayment(overpayment_link_model(g, 0),
                            ref_overpayment_link(g, 0));
  }
}

TEST(PaymentDifferential, OverpaymentHeteroLinkMatchesReference) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    graph::HeteroParams params;
    params.n = 64;
    const auto g = graph::make_hetero_geometric(params, seed);
    expect_same_overpayment(overpayment_link_model(g, 0),
                            ref_overpayment_link(g, 0));
  }
}

TEST(PaymentDifferential, TransitMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto g = graph::make_erdos_renyi(24, 0.2, 0.1, 9.0, seed);
    const TrafficMatrix traffic = uniform_traffic(g.num_nodes(), 1.0);
    const TransitResult got = transit_payments(g, traffic);
    const TransitResult want = ref_transit(g, traffic);
    expect_bits_equal(got.compensation, want.compensation);
    EXPECT_EQ(got.total_payment, want.total_payment);
    EXPECT_EQ(got.total_traffic_cost, want.total_traffic_cost);
    EXPECT_EQ(got.unroutable_flows, want.unroutable_flows);
    EXPECT_EQ(got.monopoly_flows, want.monopoly_flows);
  }
}

}  // namespace
}  // namespace tc::core
