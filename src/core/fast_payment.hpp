// Algorithm 1: fast VCG payment computation (paper Section III.B).
//
// Computes ||P_{-v_k}(s, t, d)|| for every relay v_k on the LCP in a single
// O(n log n + m) pass, instead of one Dijkstra per relay. Adapted from
// Hershberger-Suri's edge-weighted Vickrey payment algorithm to the
// node-weighted model, exactly as the paper describes:
//
//  1. Build SPT(s) and SPT(t); extract the LCP r_0..r_q and the labels
//     L(v) (relay cost s->v) and R(v) (relay cost v->t).
//  2. Assign every node a *level*: the index of the last LCP node on its
//     tree path to s in SPT(s). Removing r_l strands exactly the nodes of
//     level l (other than those hanging toward t).
//  3. For every off-path node v of level l, compute R^{-l}(v) =
//     ||P(v, t, G \ r_l)|| by a per-level restricted Dijkstra seeded from
//     higher-level neighbors (whose full-graph distance R already avoids
//     r_l, by the paper's Lemma 2); Lemma 3 justifies never stepping to a
//     lower level.
//  4. c^{-l} = cheapest s->t path that crosses into a level-l node from a
//     lower-level neighbor and continues via R^{-l}.
//  5. The cheapest path that jumps over level l through a "crossing" edge
//     (a, b) with level(a) < l < level(b), valued L(a)+c_a+c_b+R(b).
//     ||P_{-r_l}|| = min(cheapest crossing, c^{-l}).
//  6. p^{r_l} = ||P_{-r_l}|| - ||P|| + d_{r_l}.
//
// Engine layout (DESIGN.md §1.2.1): everything runs in one allocation-free
// kernel on a reusable PaymentScratch. Step 1 uses the spath row kernels;
// step 2 is a memoized walk up the parent array; one scan over the
// adjacency seeds step 3, collects step 4's lower-level entries and folds
// every crossing edge of step 5 into a range-min tree; one early-stopping
// restricted Dijkstra serves every level of steps 3 and 4. For node costs
// both arc loops (the scan and the relaxation) run as AVX-512
// gather/mask prefilters where the CPU has them, with bit-identical
// scalar twins elsewhere (fast_payment_scan.hpp, DESIGN.md §13.2).
// Payments are bit-for-bit those of the textbook per-level formulation
// (pinned by tests/core_fast_payment_bits_test.cpp).
//
// The same kernel prices the symmetric link-cost model (Section III.F):
// it is instantiated with a compile-time cost policy that says how a hop
// is priced, node cost c_v or arc cost w(u,v). fast_link_payments (node
// agents, fast_link_payment.hpp) and edge_vcg_payments_fast (edge agents,
// edge_vcg.hpp; only the range-min tree) wrap its link instantiation
// through internal::link_payments_into / internal::edge_payments_into.
//
// Differential-tested against vcg_payments_naive on thousands of random
// instances (tests/core_fast_payment_test.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/payment.hpp"
#include "graph/link_graph.hpp"
#include "graph/node_graph.hpp"
#include "spath/dijkstra.hpp"
#include "spath/heap.hpp"
#include "spath/workspace.hpp"

namespace tc::core {

struct PaymentKernel;
struct EdgeVcgResult;

/// Reusable working state of Algorithm 1: the step-1 rows, the per-node
/// arrays of steps 2-4, the per-level arrays and one indexed heap. Every
/// array is grow-only, so pricing allocates nothing after the first call
/// on a graph of a given size. Owns its own DijkstraWorkspace: readings a
/// caller holds from spath::thread_local_workspace() survive a pricing
/// call. Not thread-safe; use one per thread (vcg_payments_fast and the
/// link engines share a thread-local one).
class PaymentScratch {
 public:
  PaymentScratch() = default;
  PaymentScratch(const PaymentScratch&) = delete;
  PaymentScratch& operator=(const PaymentScratch&) = delete;

  /// SPT(s) / SPT(t) as step 1 of the last tree-solving
  /// fast_payments_into call left them, materialized as allocating-API
  /// trees (bit-identical to dijkstra_node). target_tree() is meaningful
  /// only when that call found the target reachable.
  [[nodiscard]] spath::SptResult source_tree() const;
  [[nodiscard]] spath::SptResult target_tree() const;

 private:
  friend struct PaymentKernel;

  spath::DijkstraWorkspace ws_;
  graph::NodeId tree_source_ = graph::kInvalidNode;
  graph::NodeId tree_target_ = graph::kInvalidNode;
  // Step 1: SPT(s) (L = relay cost s -> v) and SPT(t) (R = v -> t).
  std::vector<graph::Cost> dist_s_;
  std::vector<graph::NodeId> parent_s_;
  std::vector<graph::Cost> dist_t_;
  std::vector<graph::NodeId> parent_t_;
  // Step 2: levels, and the walk's stack.
  std::vector<std::uint32_t> level_;
  std::vector<graph::NodeId> stack_;
  // Per node: the interleaved pair L(v) + c_v, c_v + R(v) (node costs
  // only; 2n entries), R^{-l}(v) (tentative until settled), and low(v),
  // the best way into v from a lower-level neighbor.
  std::vector<graph::Cost> pair_;
  std::vector<graph::Cost> r_minus_;
  std::vector<graph::Cost> low_;
  // The restricted Dijkstra's relaxation candidates (node costs only).
  std::vector<graph::NodeId> relax_ids_;
  // Per level: min low over members, the running ||P_{-r_l}||, and
  // whether the level is still searching.
  std::vector<graph::Cost> min_low_;
  std::vector<graph::Cost> avoid_;
  std::vector<std::uint8_t> open_;
  // Range-min tree over levels holding the cheapest crossing edges.
  std::vector<graph::Cost> cross_;
  spath::BinaryHeap heap_{0};
};

/// The allocation-free core every vcg_payments_fast overload wraps: writes
/// the LCP, its cost and all VCG payments into `out` (replacing its
/// contents; profile_version is reset to 0), reusing `out`'s and the
/// scratch's capacity. With null trees, step 1 solves SPT(s) and SPT(t)
/// into the scratch (see PaymentScratch::source_tree). Otherwise both
/// trees must be passed and must equal dijkstra_node(g, source) /
/// dijkstra_node(g, target) on `g` as passed; their shape (source id,
/// dist and parent sizes) is checked, and SPT(t)'s only when the target
/// is reachable.
void fast_payments_into(PaymentScratch& scratch, const graph::NodeGraph& g,
                        graph::NodeId source, graph::NodeId target,
                        const spath::SptResult* spt_source,
                        const spath::SptResult* spt_target,
                        PaymentResult& out);

namespace internal {

/// The link-cost instantiations of the kernel, on the calling thread's
/// PaymentScratch: node-agent payments (as fast_link_payments) and
/// edge-agent payments (as edge_vcg_payments_fast). The link costs must be
/// symmetric; the public wrappers check that and throw.
void link_payments_into(const graph::LinkGraph& g, graph::NodeId source,
                        graph::NodeId target, PaymentResult& out);
void edge_payments_into(const graph::LinkGraph& g, graph::NodeId source,
                        graph::NodeId target, EdgeVcgResult& out);

}  // namespace internal

/// Computes the LCP and all VCG payments in O(n log n + m). Interprets the
/// graph's stored node costs as the declared vector d. Identical output to
/// vcg_payments_naive.
[[nodiscard]] PaymentResult vcg_payments_fast(const graph::NodeGraph& g,
                                              graph::NodeId source,
                                              graph::NodeId target);

/// As above, but additionally hands back the two shortest-path trees
/// step 1 builds anyway (non-null pointers are move-assigned). Callers
/// that need SPT(s)/SPT(t) alongside the payments — e.g. the serving
/// layer's invalidation certificates — avoid recomputing them. When the
/// target is unreachable only `spt_source_out` is produced.
[[nodiscard]] PaymentResult vcg_payments_fast(const graph::NodeGraph& g,
                                              graph::NodeId source,
                                              graph::NodeId target,
                                              spath::SptResult* spt_source_out,
                                              spath::SptResult* spt_target_out);

/// SPT-accepting overload: skips step 1 entirely by pricing from trees
/// the caller already holds — e.g. warm SPTs incrementally repaired by
/// spath::CostDelta after a re-declaration. `spt_source`/`spt_target`
/// must equal what dijkstra_node(g, source) / dijkstra_node(g, target)
/// would produce on `g` as passed (same dists and parents); this is the
/// caller's contract and is TC_DCHECK-audited via the payment invariants
/// in debug builds. The O(1) shape of each tree (source id, dist and
/// parent sizes) is TC_CHECKed in every build: a tree of the wrong graph
/// aborts instead of being read out of bounds. Identical output to the
/// from-scratch overloads.
[[nodiscard]] PaymentResult vcg_payments_fast(
    const graph::NodeGraph& g, graph::NodeId source, graph::NodeId target,
    const spath::SptResult& spt_source, const spath::SptResult& spt_target);

/// Internal structure exposed for testing: the level labelling of step 2.
/// levels[v] = index of the last LCP node on v's SPT(s) tree path; LCP
/// node r_l gets level l. Nodes unreachable from the source get
/// kInvalidLevel.
struct LevelLabels {
  static constexpr std::uint32_t kInvalidLevel = 0xffffffffu;
  std::vector<std::uint32_t> levels;
  std::vector<graph::NodeId> path;  ///< the LCP r_0..r_q
};

/// The step-2 walk shared by every level-based engine (node and link
/// Algorithm 1, edge-agent VCG): level[v] = index of the last `path` node
/// on v's tree path in `parent` (path[l] gets l),
/// LevelLabels::kInvalidLevel for nodes outside the tree.
/// So v is on the path iff level[v] is valid and path[level[v]] == v.
/// Overwrites `level` (resized to parent.size()); `stack` is scratch and
/// is left empty. O(n), no allocation once both vectors have capacity.
void label_levels(std::span<const graph::NodeId> parent,
                  std::span<const graph::NodeId> path,
                  std::vector<std::uint32_t>& level,
                  std::vector<graph::NodeId>& stack);

/// Computes the step-2 level labels (used by tests and by the distributed
/// verification protocol's audit step) with the same step-1 kernel and
/// step-2 walk as the pricing core.
[[nodiscard]] LevelLabels compute_levels(const graph::NodeGraph& g,
                                         graph::NodeId source,
                                         graph::NodeId target);

}  // namespace tc::core
