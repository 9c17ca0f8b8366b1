#include "spath/dijkstra.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "graph/generators.hpp"
#include "spath/workspace.hpp"
#include "util/rng.hpp"

namespace tc::spath {
namespace {

using graph::Cost;
using graph::kInfCost;
using graph::kInvalidNode;
using graph::NodeId;

TEST(DijkstraNode, PathCostExcludesEndpoints) {
  // 0 - 1 - 2 - 3 with unit costs: interior cost of 0..3 is c1 + c2 = 2.
  const auto g = graph::make_path(4, 1.0);
  const SptResult r = dijkstra_node(g, 0);
  EXPECT_DOUBLE_EQ(r.dist[3], 2.0);
  EXPECT_DOUBLE_EQ(r.dist[1], 0.0);  // direct neighbor: no relays
  EXPECT_DOUBLE_EQ(r.dist[0], 0.0);
}

TEST(DijkstraNode, PicksCheaperRelay) {
  // 0 connects to 3 via 1 (cost 5) or 2 (cost 1).
  graph::NodeGraphBuilder b(4);
  b.set_node_cost(1, 5.0).set_node_cost(2, 1.0);
  b.add_edge(0, 1).add_edge(1, 3).add_edge(0, 2).add_edge(2, 3);
  const SptResult r = dijkstra_node(b.build(), 0);
  EXPECT_DOUBLE_EQ(r.dist[3], 1.0);
  EXPECT_EQ(r.path_to(3), (std::vector<NodeId>{0, 2, 3}));
}

TEST(DijkstraNode, ExpensiveSourceCostIgnored) {
  graph::NodeGraphBuilder b(3);
  b.set_node_cost(0, 1000.0).set_node_cost(1, 1.0).set_node_cost(2, 1000.0);
  b.add_edge(0, 1).add_edge(1, 2);
  const SptResult r = dijkstra_node(b.build(), 0);
  EXPECT_DOUBLE_EQ(r.dist[2], 1.0);  // endpoints' costs excluded
}

TEST(DijkstraNode, UnreachableIsInfinite) {
  graph::NodeGraphBuilder b(4);
  b.add_edge(0, 1);
  const SptResult r = dijkstra_node(b.build(), 0);
  EXPECT_FALSE(r.reached(3));
  EXPECT_TRUE(r.path_to(3).empty());
}

TEST(DijkstraNode, MaskBlocksRelay) {
  const auto g = graph::make_path(4, 1.0);
  graph::NodeMask mask(4);
  mask.block(1);
  const SptResult r = dijkstra_node(g, 0, mask);
  EXPECT_FALSE(r.reached(3));
}

TEST(DijkstraNode, MaskForcesDetour) {
  // Square 0-1-2 and 0-3-2; block 1.
  graph::NodeGraphBuilder b(4);
  b.set_node_cost(1, 1.0).set_node_cost(3, 7.0);
  b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 3).add_edge(3, 2);
  graph::NodeMask mask(4);
  mask.block(1);
  const SptResult r = dijkstra_node(b.build(), 0, mask);
  EXPECT_DOUBLE_EQ(r.dist[2], 7.0);
  EXPECT_EQ(r.path_to(2), (std::vector<NodeId>{0, 3, 2}));
}

TEST(DijkstraNode, ZeroCostRelays) {
  const auto g = graph::make_path(5, 0.0);
  const SptResult r = dijkstra_node(g, 0);
  EXPECT_DOUBLE_EQ(r.dist[4], 0.0);
  EXPECT_EQ(r.path_to(4).size(), 5u);
}

TEST(DijkstraNode, QuadHeapAgrees) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto g = graph::make_erdos_renyi(60, 0.1, 0.1, 9.0, seed);
    const SptResult a = dijkstra_node(g, 0);
    DijkstraWorkspace ws;
    dijkstra_node_into(ws, g, 0, {}, kInvalidNode, HeapKind::kQuad);
    const SptResult b = ws.to_result();
    for (NodeId v = 0; v < 60; ++v) {
      if (a.reached(v)) {
        EXPECT_NEAR(a.dist[v], b.dist[v], 1e-12);
      } else {
        EXPECT_FALSE(b.reached(v));
      }
    }
  }
}

TEST(DijkstraNode, PathIsValidWalk) {
  const auto g = graph::make_erdos_renyi(40, 0.15, 0.5, 4.0, 3);
  const SptResult r = dijkstra_node(g, 0);
  for (NodeId t = 1; t < 40; ++t) {
    if (!r.reached(t)) continue;
    const auto path = r.path_to(t);
    ASSERT_GE(path.size(), 2u);
    EXPECT_EQ(path.front(), 0u);
    EXPECT_EQ(path.back(), t);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      EXPECT_TRUE(g.has_edge(path[i], path[i + 1]));
    }
    EXPECT_NEAR(path_interior_cost(g, path), r.dist[t], 1e-9);
  }
}

TEST(DijkstraLink, DirectedCosts) {
  graph::LinkGraphBuilder b(3);
  b.add_arc(0, 1, 2.0).add_arc(1, 2, 3.0).add_arc(2, 0, 1.0);
  const SptResult r = dijkstra_link(b.build(), 0);
  EXPECT_DOUBLE_EQ(r.dist[2], 5.0);
  EXPECT_FALSE(std::isinf(r.dist[1]));
}

TEST(DijkstraLink, RespectsDirection) {
  graph::LinkGraphBuilder b(2);
  b.add_arc(0, 1, 1.0);
  const SptResult r = dijkstra_link(b.build(), 1);
  EXPECT_FALSE(r.reached(0));
}

TEST(DijkstraLink, InfiniteArcsUnusable) {
  graph::LinkGraphBuilder b(3);
  b.add_arc(0, 1, kInfCost).add_arc(0, 2, 1.0).add_arc(2, 1, 1.0);
  const SptResult r = dijkstra_link(b.build(), 0);
  EXPECT_DOUBLE_EQ(r.dist[1], 2.0);  // must detour via 2
}

TEST(DijkstraLink, ToTargetMatchesForwardOnReverse) {
  util::Rng rng(4);
  graph::LinkGraphBuilder b(30);
  for (int e = 0; e < 150; ++e) {
    const auto u = static_cast<NodeId>(rng.next_below(30));
    const auto v = static_cast<NodeId>(rng.next_below(30));
    if (u != v) b.add_arc(u, v, rng.uniform(0.1, 5.0));
  }
  const graph::LinkGraph g = b.build();
  const SptResult to_zero = dijkstra_link_to_target(g, 0);
  // Check against per-source forward searches.
  for (NodeId s = 1; s < 30; ++s) {
    const SptResult fwd = dijkstra_link(g, s);
    if (fwd.reached(0)) {
      EXPECT_NEAR(to_zero.dist[s], fwd.dist[0], 1e-9) << "source " << s;
    } else {
      EXPECT_FALSE(to_zero.reached(s));
    }
  }
}

TEST(DijkstraLink, NodeModelEquivalence) {
  // dist in to_link_graph differs from node-model dist by exactly the
  // source's node cost (the lifted arc charges the sender).
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto g = graph::make_erdos_renyi(25, 0.2, 0.5, 5.0, seed);
    const auto lg = graph::to_link_graph(g);
    const SptResult node = dijkstra_node(g, 3);
    const SptResult link = dijkstra_link(lg, 3);
    for (NodeId v = 0; v < 25; ++v) {
      if (v == 3 || !node.reached(v)) continue;
      // Link path cost counts every sender: source + relays; node path
      // cost counts relays only.
      EXPECT_NEAR(link.dist[v], node.dist[v] + g.node_cost(3), 1e-9);
    }
  }
}

TEST(PathCosts, ArcCostOfBrokenPathInfinite) {
  graph::LinkGraphBuilder b(3);
  b.add_arc(0, 1, 1.0);
  const auto g = b.build();
  EXPECT_TRUE(std::isinf(path_arc_cost(g, {0, 1, 2})));
  EXPECT_DOUBLE_EQ(path_arc_cost(g, {0, 1}), 1.0);
}

TEST(ReverseGraph, ArcsFlipped) {
  graph::LinkGraphBuilder b(3);
  b.add_arc(0, 1, 2.0).add_arc(1, 2, 3.0);
  const auto g = b.build();
  const auto& rev = g.reverse();
  EXPECT_DOUBLE_EQ(rev.arc_cost(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(rev.arc_cost(2, 1), 3.0);
  EXPECT_TRUE(std::isinf(rev.arc_cost(0, 1)));
}

// The wrappers run on their own per-thread workspace: a caller holding
// thread_local_workspace() readings across them keeps those readings.
TEST(DijkstraWrapper, LeavesThreadLocalWorkspaceReadings) {
  const auto g = graph::make_erdos_renyi(40, 0.12, 0.5, 4.0, 21);
  DijkstraWorkspace& ws = thread_local_workspace();
  dijkstra_node_into(ws, g, 3);
  std::vector<Cost> dist(g.num_nodes());
  std::vector<NodeId> parent(g.num_nodes());
  std::vector<std::vector<NodeId>> paths(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    dist[v] = ws.dist(v);
    parent[v] = ws.parent(v);
    paths[v] = ws.path_to(v);
  }

  const auto other = graph::make_erdos_renyi(70, 0.1, 0.5, 4.0, 22);
  graph::HeteroParams params;
  params.n = 60;
  const auto link = graph::make_hetero_geometric(params, 23);
  (void)dijkstra_node(other, 5);
  (void)dijkstra_link(link, 7);
  (void)dijkstra_link_to_target(link, 2);

  ASSERT_EQ(ws.size(), g.num_nodes());
  EXPECT_EQ(ws.source(), 3u);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const Cost now = ws.dist(v);
    EXPECT_EQ(std::memcmp(&now, &dist[v], sizeof(Cost)), 0) << "node " << v;
    EXPECT_EQ(ws.parent(v), parent[v]) << "node " << v;
    EXPECT_EQ(ws.path_to(v), paths[v]) << "node " << v;
  }
}

// Both wrappers reject a bad source before touching any state.
TEST(DijkstraWrapperDeathTest, OutOfRangeSource) {
  const auto g = graph::make_path(4, 1.0);
  const auto lg = graph::to_link_graph(g);
  EXPECT_DEATH((void)dijkstra_node(g, 4), "source out of range");
  EXPECT_DEATH((void)dijkstra_link(lg, 9), "source out of range");
}

TEST(DijkstraWrapperDeathTest, MaskedOutSource) {
  const auto g = graph::make_path(4, 1.0);
  const auto lg = graph::to_link_graph(g);
  graph::NodeMask mask(4);
  mask.block(2);
  EXPECT_DEATH((void)dijkstra_node(g, 2, mask), "source is masked out");
  EXPECT_DEATH((void)dijkstra_link(lg, 2, mask), "source is masked out");
}

}  // namespace
}  // namespace tc::spath
