// Differential tests for the spath kernels: every `_into` run, row run,
// allocating wrapper, batch driver, and MaskedSptDelta evaluation must be
// bit-identical to the frozen allocating loop in
// tests/reference/dijkstra_reference.hpp.
#include "spath/workspace.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "dijkstra_reference.hpp"
#include "graph/generators.hpp"
#include "spath/avoiding.hpp"
#include "spath/batch.hpp"
#include "spath/dijkstra.hpp"
#include "util/rng.hpp"

namespace tc::spath {
namespace {

using graph::Cost;
using graph::kInfCost;
using graph::kInvalidNode;
using graph::NodeId;

constexpr std::uint64_t kSeeds = 100;

void expect_bits_equal(const std::vector<Cost>& a, const std::vector<Cost>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(Cost)), 0);
}

void expect_same_spt(const SptResult& a, const SptResult& b) {
  EXPECT_EQ(a.source, b.source);
  expect_bits_equal(a.dist, b.dist);
  EXPECT_EQ(a.parent, b.parent);
}

graph::NodeGraph random_node_graph(std::uint64_t seed) {
  // p below the connectivity threshold for some seeds, so unreachable
  // nodes are exercised too.
  return graph::make_erdos_renyi(60, 0.08, 0.1, 9.0, seed);
}

graph::NodeMask random_mask(std::size_t n, NodeId source, std::uint64_t seed) {
  util::Rng rng(seed);
  graph::NodeMask mask(n);
  for (int i = 0; i < 6; ++i) {
    const NodeId v = static_cast<NodeId>(rng.next_below(n));
    if (v != source) mask.block(v);
  }
  return mask;
}

// The heaps whose parent witnesses match the reference loop exactly
// (kBucket is checked dist-only below).
constexpr HeapKind kExactHeaps[] = {HeapKind::kBinary, HeapKind::kQuad,
                                    HeapKind::kPairing};

SptResult reference_node(const graph::NodeGraph& g, NodeId source,
                         const graph::NodeMask& mask, HeapKind heap) {
  switch (heap) {
    case HeapKind::kQuad:
      return reference::dijkstra_node_quad(g, source, mask);
    case HeapKind::kPairing:
      return reference::dijkstra_node_pairing(g, source, mask);
    default:
      return reference::dijkstra_node(g, source, mask);
  }
}

SptResult reference_link(const graph::LinkGraph& g, NodeId source,
                         const graph::NodeMask& mask, HeapKind heap) {
  switch (heap) {
    case HeapKind::kQuad:
      return reference::dijkstra_link_impl<QuadHeap>(g, source, mask);
    case HeapKind::kPairing:
      return reference::dijkstra_link_impl<PairingHeap>(g, source, mask);
    default:
      return reference::dijkstra_link_impl<BinaryHeap>(g, source, mask);
  }
}

SptResult sized_result(NodeId source, std::size_t n) {
  SptResult r;
  r.source = source;
  r.dist.resize(n);
  r.parent.resize(n);
  return r;
}

// The `_into` kernel, the row kernel and (for the binary heap it uses) the
// allocating wrapper, each against the reference loop on the same heap.
void expect_node_kernels_match(DijkstraWorkspace& ws,
                               const graph::NodeGraph& g, NodeId source,
                               const graph::NodeMask& mask, HeapKind heap) {
  SCOPED_TRACE(testing::Message() << "heap " << static_cast<int>(heap));
  const SptResult want = reference_node(g, source, mask, heap);
  dijkstra_node_into(ws, g, source, mask, kInvalidNode, heap);
  expect_same_spt(ws.to_result(), want);
  SptResult row = sized_result(source, g.num_nodes());
  dijkstra_node_row_into(ws, g, source, row.dist, row.parent, mask, heap);
  expect_same_spt(row, want);
  if (heap == HeapKind::kBinary) {
    expect_same_spt(dijkstra_node(g, source, mask), want);
  }
}

void expect_link_kernels_match(DijkstraWorkspace& ws,
                               const graph::LinkGraph& g, NodeId source,
                               const graph::NodeMask& mask, HeapKind heap) {
  SCOPED_TRACE(testing::Message() << "heap " << static_cast<int>(heap));
  const SptResult want = reference_link(g, source, mask, heap);
  dijkstra_link_into(ws, g, source, mask, kInvalidNode, heap);
  expect_same_spt(ws.to_result(), want);
  SptResult row = sized_result(source, g.num_nodes());
  dijkstra_link_row_into(ws, g, source, row.dist, row.parent, mask, heap);
  expect_same_spt(row, want);
  if (heap == HeapKind::kBinary) {
    expect_same_spt(dijkstra_link(g, source, mask), want);
  }
}

TEST(WorkspaceDifferential, NodeAllHeapsMatchAllocating) {
  DijkstraWorkspace ws;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto g = random_node_graph(seed);
    const NodeId source = static_cast<NodeId>(seed % g.num_nodes());
    for (const HeapKind heap : kExactHeaps) {
      expect_node_kernels_match(ws, g, source, {}, heap);
    }
  }
}

TEST(WorkspaceDifferential, NodeMaskedMatchesAllocating) {
  DijkstraWorkspace ws;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto g = random_node_graph(seed);
    const NodeId source = static_cast<NodeId>(seed % g.num_nodes());
    const graph::NodeMask mask = random_mask(g.num_nodes(), source, seed * 7);
    for (const HeapKind heap : kExactHeaps) {
      expect_node_kernels_match(ws, g, source, mask, heap);
    }
  }
}

TEST(WorkspaceDifferential, LinkMatchesAllocating) {
  DijkstraWorkspace ws;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    graph::HeteroParams params;
    params.n = 50;
    const auto g = graph::make_hetero_geometric(params, seed);
    const NodeId source = static_cast<NodeId>(seed % g.num_nodes());
    const graph::NodeMask mask = random_mask(g.num_nodes(), source, seed * 3);
    for (const HeapKind heap : kExactHeaps) {
      expect_link_kernels_match(ws, g, source, {}, heap);
      expect_link_kernels_match(ws, g, source, mask, heap);
    }
  }
}

TEST(WorkspaceDifferential, LinkToTargetMatchesAllocating) {
  DijkstraWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    graph::HeteroParams params;
    params.n = 50;
    const auto g = graph::make_hetero_geometric(params, seed);
    const NodeId target = static_cast<NodeId>(seed % g.num_nodes());
    const SptResult want = reference::dijkstra_link_to_target(g, target);
    dijkstra_link_to_target_into(ws, g, target);
    expect_same_spt(ws.to_result(), want);
    expect_same_spt(dijkstra_link_to_target(g, target), want);
  }
}

TEST(WorkspaceDifferential, EarlyStopSettlesTarget) {
  DijkstraWorkspace ws;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto g = random_node_graph(seed);
    const std::size_t n = g.num_nodes();
    const NodeId source = static_cast<NodeId>(seed % n);
    const NodeId target = static_cast<NodeId>((seed * 31) % n);
    if (source == target) continue;
    const SptResult full = reference::dijkstra_node(g, source);

    dijkstra_node_into(ws, g, source, {}, /*stop_at=*/target);
    ASSERT_EQ(ws.reached(target), full.reached(target));
    if (full.reached(target)) {
      EXPECT_EQ(ws.dist(target), full.dist[target]);
      EXPECT_EQ(ws.path_to(target), full.path_to(target));
    }
    // An early-stopped run must not poison the next full run.
    dijkstra_node_into(ws, g, source);
    expect_same_spt(ws.to_result(), full);
  }
}

TEST(Workspace, ReuseAcrossGraphSizes) {
  DijkstraWorkspace ws;
  for (const std::size_t n : {50u, 200u, 10u, 120u}) {
    const auto g = graph::make_erdos_renyi(n, 0.1, 0.1, 9.0, n);
    dijkstra_node_into(ws, g, 0);
    expect_same_spt(ws.to_result(), reference::dijkstra_node(g, 0));
  }
}

TEST(Workspace, EpochWraparoundStaysCorrect) {
  DijkstraWorkspace ws;
  const auto g = random_node_graph(5);
  const SptResult want = reference::dijkstra_node(g, 0);
  dijkstra_node_into(ws, g, 0);  // leaves stale stamps behind
  ws.debug_set_epoch(0xffffffffu - 1);
  for (int run = 0; run < 4; ++run) {  // crosses the wraparound clear
    dijkstra_node_into(ws, g, 0);
    expect_same_spt(ws.to_result(), want);
  }
}

TEST(Workspace, ScratchMaskStartsAllAllowed) {
  DijkstraWorkspace ws;
  graph::NodeMask& mask = ws.scratch_mask(16);
  for (NodeId v = 0; v < 16; ++v) EXPECT_TRUE(mask.allowed(v));
  mask.block(3);
  mask.clear_blocks();
  EXPECT_TRUE(ws.scratch_mask(16).allowed(3));
}

TEST(MaskedSptDelta, NodeSingleRemovalMatchesFullMaskedRun) {
  DijkstraWorkspace ws;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto g = random_node_graph(seed);
    const std::size_t n = g.num_nodes();
    const NodeId source = static_cast<NodeId>(seed % n);
    const SptResult base = reference::dijkstra_node(g, source);
    SptChildren children;
    children.build(base);
    MaskedSptDelta delta(g, base, children, ws);
    std::vector<Cost> got;
    for (NodeId k = 0; k < n; ++k) {
      if (k == source) continue;
      graph::NodeMask mask(n);
      mask.block(k);
      const SptResult want = reference::dijkstra_node(g, source, mask);
      delta.eval_one(k);
      delta.dist_into(got);
      expect_bits_equal(got, want.dist);
      EXPECT_EQ(delta.dist(k), kInfCost);
    }
  }
}

TEST(MaskedSptDelta, NodeMultiRemovalMatchesFullMaskedRun) {
  DijkstraWorkspace ws;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto g = random_node_graph(seed);
    const std::size_t n = g.num_nodes();
    const NodeId source = static_cast<NodeId>(seed % n);
    const SptResult base = reference::dijkstra_node(g, source);
    SptChildren children;
    children.build(base);
    MaskedSptDelta delta(g, base, children, ws);

    util::Rng rng(seed * 1000003);
    std::vector<NodeId> removed;
    graph::NodeMask mask(n);
    for (int trial = 0; trial < 8; ++trial) {
      removed.clear();
      const std::size_t count = 1 + rng.next_below(5);
      for (std::size_t i = 0; i < count; ++i) {
        const NodeId v = static_cast<NodeId>(rng.next_below(n));
        if (v == source) continue;
        removed.push_back(v);  // duplicates allowed: eval must dedup
        mask.block(v);
      }
      if (removed.empty()) continue;
      const SptResult want = reference::dijkstra_node(g, source, mask);
      delta.eval(removed);
      std::vector<Cost> got;
      delta.dist_into(got);
      expect_bits_equal(got, want.dist);
      for (NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(delta.dist(v), want.dist[v]);
        if (!delta.affected(v)) {
          EXPECT_EQ(delta.dist(v), base.dist[v]);
        }
      }
      mask.clear_blocks();
    }
  }
}

TEST(MaskedSptDelta, LinkRemovalMatchesFullMaskedRun) {
  DijkstraWorkspace ws;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    graph::HeteroParams params;
    params.n = 50;
    const auto g = graph::make_hetero_geometric(params, seed);
    const std::size_t n = g.num_nodes();
    const NodeId source = static_cast<NodeId>(seed % n);
    const SptResult base = reference::dijkstra_link(g, source);
    SptChildren children;
    children.build(base);
    MaskedSptDelta delta(g, g.reverse(), base, children, ws);
    std::vector<Cost> got;
    for (NodeId k = 0; k < n; ++k) {
      if (k == source) continue;
      graph::NodeMask mask(n);
      mask.block(k);
      const SptResult want = reference::dijkstra_link(g, source, mask);
      delta.eval_one(k);
      delta.dist_into(got);
      expect_bits_equal(got, want.dist);
    }
  }
}

TEST(MaskedSptDelta, ReverseRunUsesForwardGraphAsInArcs) {
  // The overpayment link study runs its base SPT on g.reverse(); the
  // in-arc mate is then g itself.
  DijkstraWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    graph::HeteroParams params;
    params.n = 40;
    const auto g = graph::make_hetero_geometric(params, seed);
    const graph::LinkGraph& rev = g.reverse();
    const SptResult base = reference::dijkstra_link(rev, 0);
    SptChildren children;
    children.build(base);
    MaskedSptDelta delta(rev, g, base, children, ws);
    std::vector<Cost> got;
    for (NodeId k = 1; k < g.num_nodes(); ++k) {
      graph::NodeMask mask(g.num_nodes());
      mask.block(k);
      const SptResult want = reference::dijkstra_link(rev, 0, mask);
      delta.eval_one(k);
      delta.dist_into(got);
      expect_bits_equal(got, want.dist);
    }
  }
}

TEST(Batch, AvoidingPathsBatchMatchesSingles) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto g = random_node_graph(seed);
    const std::size_t n = g.num_nodes();
    const NodeId s = static_cast<NodeId>(seed % n);
    const NodeId t = static_cast<NodeId>((seed * 13 + 7) % n);
    if (s == t) continue;
    std::vector<NodeId> avoid;
    for (NodeId v = 0; v < n; ++v) {
      if (v != s && v != t) avoid.push_back(v);
    }
    const std::vector<Cost> batch = avoiding_paths_batch(g, s, t, avoid);
    ASSERT_EQ(batch.size(), avoid.size());
    for (std::size_t i = 0; i < avoid.size(); ++i) {
      const AvoidingPath single = avoiding_path_node(g, s, t, avoid[i]);
      EXPECT_EQ(batch[i], single.cost) << "avoid " << avoid[i];
    }
  }
}

// -- bucket queue: bit-identical dist, tie-break-valid parents ------------

// kBucket's contract (see HeapKind): distances match every other heap bit
// for bit; parent witnesses may differ on distance ties but must still be
// exact shortest-path witnesses on the graph.
void expect_valid_node_tree(const graph::NodeGraph& g, const SptResult& got) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == got.source) {
      EXPECT_EQ(got.parent[v], kInvalidNode);
      continue;
    }
    if (!got.reached(v)) continue;
    const NodeId p = got.parent[v];
    ASSERT_NE(p, kInvalidNode) << "reached node without a parent: " << v;
    ASSERT_TRUE(got.reached(p));
    EXPECT_TRUE(g.has_edge(p, v));
    const Cost through =
        got.dist[p] + (p == got.source ? 0.0 : g.node_cost(p));
    EXPECT_EQ(through, got.dist[v]) << "parent " << p << " -> " << v;
  }
}

void expect_valid_link_tree(const graph::LinkGraph& g, const SptResult& got) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == got.source) {
      EXPECT_EQ(got.parent[v], kInvalidNode);
      continue;
    }
    if (!got.reached(v)) continue;
    const NodeId p = got.parent[v];
    ASSERT_NE(p, kInvalidNode) << "reached node without a parent: " << v;
    ASSERT_TRUE(got.reached(p));
    bool witnessed = false;
    for (const graph::Arc& a : g.out_arcs(p)) {
      if (a.to == v && got.dist[p] + a.cost == got.dist[v]) {
        witnessed = true;
        break;
      }
    }
    EXPECT_TRUE(witnessed) << "parent " << p << " -> " << v;
  }
}

TEST(BucketDifferential, NodeDistMatchesBinary) {
  DijkstraWorkspace ws;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto g = random_node_graph(seed);
    const NodeId source = static_cast<NodeId>(seed % g.num_nodes());
    const SptResult ref = reference::dijkstra_node(g, source);

    dijkstra_node_into(ws, g, source, {}, kInvalidNode, HeapKind::kBucket);
    const SptResult got = ws.to_result();
    expect_bits_equal(got.dist, ref.dist);
    expect_valid_node_tree(g, got);
  }
}

TEST(BucketDifferential, NodeMaskedDistMatchesBinary) {
  DijkstraWorkspace ws;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto g = random_node_graph(seed);
    const NodeId source = static_cast<NodeId>(seed % g.num_nodes());
    const graph::NodeMask mask = random_mask(g.num_nodes(), source, seed * 7);
    const SptResult ref = reference::dijkstra_node(g, source, mask);

    dijkstra_node_into(ws, g, source, mask, kInvalidNode, HeapKind::kBucket);
    const SptResult got = ws.to_result();
    expect_bits_equal(got.dist, ref.dist);
    expect_valid_node_tree(g, got);
  }
}

TEST(BucketDifferential, LinkDistMatchesBinary) {
  DijkstraWorkspace ws;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    graph::HeteroParams params;
    params.n = 50;
    const auto g = graph::make_hetero_geometric(params, seed);
    const NodeId source = static_cast<NodeId>(seed % g.num_nodes());
    const SptResult ref = reference::dijkstra_link(g, source);

    dijkstra_link_into(ws, g, source, {}, kInvalidNode, HeapKind::kBucket);
    const SptResult got = ws.to_result();
    expect_bits_equal(got.dist, ref.dist);
    expect_valid_link_tree(g, got);

    const graph::NodeMask mask = random_mask(g.num_nodes(), source, seed * 3);
    const SptResult mref = reference::dijkstra_link(g, source, mask);
    dijkstra_link_into(ws, g, source, mask, kInvalidNode, HeapKind::kBucket);
    const SptResult mgot = ws.to_result();
    expect_bits_equal(mgot.dist, mref.dist);
    expect_valid_link_tree(g, mgot);
  }
}

TEST(BucketDifferential, EarlyStopSettlesTarget) {
  DijkstraWorkspace ws;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto g = random_node_graph(seed);
    const std::size_t n = g.num_nodes();
    const NodeId source = static_cast<NodeId>(seed % n);
    const NodeId target = static_cast<NodeId>((seed * 31) % n);
    if (source == target) continue;
    const SptResult full = reference::dijkstra_node(g, source);

    dijkstra_node_into(ws, g, source, {}, target, HeapKind::kBucket);
    ASSERT_EQ(ws.reached(target), full.reached(target));
    if (full.reached(target)) {
      EXPECT_EQ(ws.dist(target), full.dist[target]);
    }
  }
}

// -- multi-source batched kernel ------------------------------------------

TEST(Batch, SptMultiIntoMatchesIndependentSolves) {
  DijkstraWorkspace ws;
  SptMatrix m;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto g = random_node_graph(seed);
    const std::size_t n = g.num_nodes();
    std::vector<NodeId> roots;
    for (NodeId v = 0; v < n; v += 7) roots.push_back(v);

    spt_multi_into(ws, m, g, roots);
    ASSERT_EQ(m.num_roots(), roots.size());
    for (std::size_t i = 0; i < roots.size(); ++i) {
      EXPECT_EQ(m.source(i), roots[i]);
      expect_same_spt(m.to_result(i), reference::dijkstra_node(g, roots[i]));
    }

    const graph::NodeMask mask = random_mask(n, roots[0], seed * 11);
    std::vector<NodeId> allowed;
    for (const NodeId r : roots) {
      if (mask.allowed(r)) allowed.push_back(r);
    }
    spt_multi_into(ws, m, g, allowed, mask);
    for (std::size_t i = 0; i < allowed.size(); ++i) {
      expect_same_spt(m.to_result(i),
                      reference::dijkstra_node(g, allowed[i], mask));
    }

    // kBucket rows: bit-identical dist, witness-valid parents.
    spt_multi_into(ws, m, g, roots, {}, HeapKind::kBucket);
    for (std::size_t i = 0; i < roots.size(); ++i) {
      const SptResult got = m.to_result(i);
      expect_bits_equal(got.dist, reference::dijkstra_node(g, roots[i]).dist);
      expect_valid_node_tree(g, got);
    }
  }
}

TEST(Batch, SptMultiIntoLinkMatchesIndependentSolves) {
  DijkstraWorkspace ws;
  SptMatrix m;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    graph::HeteroParams params;
    params.n = 50;
    const auto g = graph::make_hetero_geometric(params, seed);
    std::vector<NodeId> roots;
    for (NodeId v = 0; v < g.num_nodes(); v += 5) roots.push_back(v);

    spt_multi_into(ws, m, g, roots);
    for (std::size_t i = 0; i < roots.size(); ++i) {
      expect_same_spt(m.to_result(i), reference::dijkstra_link(g, roots[i]));
    }

    spt_multi_into(ws, m, g, roots, {}, HeapKind::kBucket);
    for (std::size_t i = 0; i < roots.size(); ++i) {
      const SptResult got = m.to_result(i);
      expect_bits_equal(got.dist, reference::dijkstra_link(g, roots[i]).dist);
      expect_valid_link_tree(g, got);
    }
  }
}

}  // namespace
}  // namespace tc::spath
