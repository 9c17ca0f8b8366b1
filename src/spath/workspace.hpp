// Reusable shortest-path workspace: allocation-free Dijkstra kernels.
//
// Every payment engine bottoms out in repeated Dijkstra runs over the same
// graph. These kernels are spath's only Dijkstra: a DijkstraWorkspace owns
// per-node state sized once per graph and reset in O(1) via epoch-stamped
// visitation, and the allocating API (dijkstra.hpp) is a thin wrapper
// that sizes an SptResult and runs the row kernel on a private
// per-thread workspace.
//
// Memory layout (DESIGN.md §13): each node's solve state lives in one
// 16-byte NodeLane packing {dist, parent, stamp}, so the relax inner loop
// touches exactly one cache line per neighbor (four lanes per 64-byte
// line) instead of gathering from three parallel arrays. Each run
// advances the epoch by 2: stamp == epoch means "touched, dist/parent
// tentative", stamp == epoch+1 means "settled, dist final", anything
// older means "untouched" — so "clearing" is a counter increment. On
// AVX-512 hardware the arc scan itself is vectorized: a gather/compare/
// compress prefilter emits improvement candidates 8-16 neighbors at a
// time, and a scalar re-check applies them in neighbor order, preserving
// the sequential kernels' bit-exact dist/parent (workspace.cpp). Larger-
// than-cache graphs additionally software-prefetch upcoming lanes in the
// scalar path (a measured *loss* at cache-resident sizes, so it is
// size-gated).
//
// Determinism contract: for identical (graph, source, mask, heap kind)
// inputs, the `_into` and row kernels perform exactly the same heap
// operations and floating-point additions as the original allocating
// loop, so dist and parent arrays are bit-identical to
// tests/reference/dijkstra_reference.hpp. HeapKind::kBucket is an exact
// queue with a different tie-break among equal keys: dist stays
// bit-identical to every other heap (Dijkstra's final distances are a
// heap-order-independent minimum over per-path cost sums accumulated left
// to right), while parent witnesses may differ on distance ties (see
// bucket_queue.hpp). MaskedSptDelta re-derives a masked run's *distances*
// from an unmasked base SPT (bit-identical by the min-fixed-point argument
// documented at the class); it does not expose parent witnesses, whose
// tie-breaks are evaluation-order dependent.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/link_graph.hpp"
#include "graph/mask.hpp"
#include "graph/node_graph.hpp"
#include "spath/bucket_queue.hpp"
#include "spath/dijkstra.hpp"
#include "spath/heap.hpp"
#include "spath/pairing_heap.hpp"
#include "util/check.hpp"

namespace tc::spath {

class CostDelta;
class DijkstraWorkspace;
class MaskedSptDelta;
struct WorkspaceKernels;

/// Heap selector for the `_into` and row kernels (the allocating wrappers
/// always use kBinary). kBucket is the monotone bucket queue
/// (bucket_queue.hpp): bit-identical dist, but parent witnesses may
/// differ from the comparison heaps on distance ties, so it is opt-in
/// rather than the default.
enum class HeapKind { kBinary, kQuad, kPairing, kBucket };

/// One node's solve state, packed so the relax loop touches a single
/// cache line per neighbor (4 lanes per 64-byte line).
struct alignas(16) NodeLane {
  graph::Cost dist;
  graph::NodeId parent;
  std::uint32_t stamp;
};
static_assert(sizeof(NodeLane) == 16, "lane must pack to one quarter line");

/// Runs node-weighted Dijkstra into `ws`, replacing its previous contents.
/// Same relaxation order and bit-identical dist/parent as the reference
/// loop on the same heap (kBucket caveat at HeapKind), and as
/// dijkstra_node(g, source, mask) for kBinary, but reuses the workspace's
/// arrays: no allocation after the first run on a graph of this size.
/// When `stop_at` is a valid node, the run terminates as soon as it
/// settles: ws.dist(stop_at) and the parent chain to it are final, but
/// other nodes may hold non-final tentative values (ws.complete() is
/// false and ws.to_result() is unavailable).
void dijkstra_node_into(DijkstraWorkspace& ws, const graph::NodeGraph& g,
                        graph::NodeId source, const graph::NodeMask& mask = {},
                        graph::NodeId stop_at = graph::kInvalidNode,
                        HeapKind heap = HeapKind::kBinary);

/// Link-weighted counterpart of dijkstra_node_into; mirrors
/// dijkstra_link(g, source, mask) bit for bit.
void dijkstra_link_into(DijkstraWorkspace& ws, const graph::LinkGraph& g,
                        graph::NodeId source, const graph::NodeMask& mask = {},
                        graph::NodeId stop_at = graph::kInvalidNode,
                        HeapKind heap = HeapKind::kBinary);

/// Reverse-graph run: ws.dist(v) = cost of the best directed path
/// v -> target in `g`. Uses the cached g.reverse() CSR instead of
/// rebuilding it per call.
void dijkstra_link_to_target_into(DijkstraWorkspace& ws,
                                  const graph::LinkGraph& g,
                                  graph::NodeId target,
                                  const graph::NodeMask& mask = {},
                                  graph::NodeId stop_at = graph::kInvalidNode,
                                  HeapKind heap = HeapKind::kBinary);

/// Row kernels: full Dijkstra written directly into caller-owned dist /
/// parent rows (each spanning g.num_nodes()), bit-identical to the
/// reference loop — including parent witnesses, because the relax
/// condition reads the prefilled row exactly as that loop does. The
/// allocating dijkstra_node / dijkstra_link wrap these. The workspace supplies only the heap and the
/// settled stamps, so the multi-source batch driver (spath/batch.hpp)
/// solves many roots into one flat matrix with no per-root allocation.
/// The workspace's own readings are unspecified afterward (complete() is
/// false); the rows are the output.
void dijkstra_node_row_into(DijkstraWorkspace& ws, const graph::NodeGraph& g,
                            graph::NodeId source, std::span<graph::Cost> dist,
                            std::span<graph::NodeId> parent,
                            const graph::NodeMask& mask = {},
                            HeapKind heap = HeapKind::kBinary);

/// Link-weighted row kernel, into the caller's rows.
void dijkstra_link_row_into(DijkstraWorkspace& ws, const graph::LinkGraph& g,
                            graph::NodeId source, std::span<graph::Cost> dist,
                            std::span<graph::NodeId> parent,
                            const graph::NodeMask& mask = {},
                            HeapKind heap = HeapKind::kBinary);

/// One Dijkstra run's worth of state, reusable across runs and graphs.
/// Not thread-safe; use one workspace per thread (thread_local_workspace).
/// All read accessors refer to the most recent `_into` run; starting a new
/// run (or MaskedSptDelta::eval) invalidates previous readings.
class DijkstraWorkspace {
 public:
  DijkstraWorkspace() = default;

  /// Node count of the most recent run's graph.
  std::size_t size() const { return n_; }
  graph::NodeId source() const { return source_; }
  /// True when the last run drained the heap (no early stop): every
  /// reachable node is settled and to_result() is meaningful.
  bool complete() const { return complete_; }

  /// True when v was reached by the last run's relaxations.
  bool touched(graph::NodeId v) const {
    TC_DCHECK(v < n_);
    // stamp is epoch_ (tentative) or epoch_ + 1 (settled); anything older
    // is a previous run's leftover.
    return lane_[v].stamp >= epoch_;
  }
  graph::Cost dist(graph::NodeId v) const {
    return touched(v) ? lane_[v].dist : graph::kInfCost;
  }
  graph::NodeId parent(graph::NodeId v) const {
    return touched(v) ? lane_[v].parent : graph::kInvalidNode;
  }
  bool reached(graph::NodeId v) const {
    return graph::finite_cost(dist(v));
  }

  /// Node sequence source..t inclusive; empty when t is unreachable. Valid
  /// after an early-stopped run only for t == stop_at (its parent chain is
  /// settled by then).
  [[nodiscard]] std::vector<graph::NodeId> path_to(graph::NodeId t) const;

  /// As path_to, but reuses the caller's vector (cleared first) — the
  /// allocation-free variant for loops that harvest many paths.
  void path_to_into(graph::NodeId t, std::vector<graph::NodeId>& out) const;

  /// Materializes the run as an allocating-API SptResult, bit-identical
  /// to the corresponding dijkstra_* call. Requires complete().
  [[nodiscard]] SptResult to_result() const;

  /// A scratch all-allowed mask sized for `n` nodes, for callers that
  /// block a few nodes around a run. Contract: leave it all-allowed
  /// (unblock what you blocked, or call clear_blocks()).
  graph::NodeMask& scratch_mask(std::size_t n);

  /// Test hook: fast-forwards the epoch counter to exercise wraparound.
  void debug_set_epoch(std::uint32_t epoch) { epoch_ = epoch; }

 private:
  friend struct WorkspaceKernels;
  friend class MaskedSptDelta;
  friend class CostDelta;

  /// Starts a new run: sizes arrays for n nodes and advances the epoch by
  /// 2 (O(1); a full stamp clear happens only near uint32 wraparound).
  void begin(std::size_t n, graph::NodeId source);

  std::size_t n_ = 0;
  std::uint32_t epoch_ = 0;  // always even after begin(); epoch_+1 = settled
  graph::NodeId source_ = graph::kInvalidNode;
  bool complete_ = false;
  std::vector<NodeLane> lane_;  // lane_[v]: {dist, parent, stamp}
  // Scratch for MaskedSptDelta (same epoch discipline; stamps compare
  // against the even epoch_ only).
  std::vector<std::uint32_t> member_;
  std::vector<std::uint32_t> removed_;
  std::vector<graph::NodeId> member_list_;
  std::vector<graph::NodeId> removed_list_;
  std::vector<graph::NodeId> stack_;
  // Candidate buffers for the vectorized arc scan (ids, and for the link
  // model the matching tentative costs); sized with lane_.
  std::vector<graph::NodeId> scan_ids_;
  std::vector<graph::Cost> scan_cand_;
  BinaryHeap bheap_{0};
  QuadHeap qheap_{0};
  PairingHeap pheap_{0};
  BucketQueue buq_{0};
  graph::NodeMask mask_;
};

/// Per-thread workspace for the common "one kernel at a time" pattern.
/// Payment engines and batch drivers share it; callers must not hold
/// workspace readings across calls into code that may also use it.
DijkstraWorkspace& thread_local_workspace();

/// CSR children lists of an SPT's parent forest; built once per base SPT
/// and shared by all delta evaluations against it.
class SptChildren {
 public:
  void build(const SptResult& base);

  std::span<const graph::NodeId> of(graph::NodeId v) const {
    TC_DCHECK(v + 1 < offsets_.size());
    return {child_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

 private:
  std::vector<std::size_t> offsets_;
  std::vector<graph::NodeId> child_;
};

/// Exact masked-SPT distances from an unmasked base SPT.
///
/// Removing a node set Q changes the distance of exactly the nodes whose
/// base tree path intersects Q (Q plus the union of Q's tree subtrees,
/// the "members"): any other node keeps its base distance bit for bit,
/// because its optimal path survives the removal (masked distances can
/// only grow, and its base path is still present), and Dijkstra's final
/// distances are a heap-order-independent minimum over per-path cost sums
/// accumulated left to right. eval() therefore recomputes only the
/// members, with a mini-Dijkstra seeded by crossing arcs from the
/// unaffected region, making per-removal cost O(affected subgraph)
/// instead of O(n + m).
///
/// Distances agree bit-for-bit with a full masked run; parent witnesses
/// are tie-break dependent and not exposed.
class MaskedSptDelta {
 public:
  /// Node-weighted model. `base` must be an unmasked binary-heap SPT on
  /// `g`; `children` must be built from `base`. All referents must
  /// outlive the delta, and `ws` must not be used by anything else
  /// between eval() and the subsequent reads.
  MaskedSptDelta(const graph::NodeGraph& g, const SptResult& base,
                 const SptChildren& children, DijkstraWorkspace& ws)
      : node_g_(&g), base_(&base), children_(&children), ws_(&ws) {}

  /// Link-weighted model. `run` is the graph `base` was computed on (its
  /// out-arcs drive relaxation); `in` must be its arc-reversed mate, so
  /// in.out_arcs(w) enumerates w's in-arcs in `run`. For a base SPT on
  /// g.reverse(), pass (g.reverse(), g) — no extra reversal needed.
  MaskedSptDelta(const graph::LinkGraph& run, const graph::LinkGraph& in,
                 const SptResult& base, const SptChildren& children,
                 DijkstraWorkspace& ws)
      : run_g_(&run), in_g_(&in), base_(&base), children_(&children),
        ws_(&ws) {}

  /// Recomputes distances with `removed` masked out (the base source must
  /// not be in it). Invalidates the previous eval's readings.
  void eval(std::span<const graph::NodeId> removed);
  void eval_one(graph::NodeId removed) { eval({&removed, 1}); }

  /// True when v's distance may differ from base: v is removed or in a
  /// removed node's subtree.
  bool affected(graph::NodeId v) const {
    return ws_->removed_[v] == ws_->epoch_ || ws_->member_[v] == ws_->epoch_;
  }

  /// Masked distance of v: kInfCost for removed nodes, the re-evaluated
  /// value for members, the base distance otherwise.
  graph::Cost dist(graph::NodeId v) const {
    if (ws_->removed_[v] == ws_->epoch_) return graph::kInfCost;
    if (ws_->member_[v] == ws_->epoch_) {
      return ws_->lane_[v].stamp >= ws_->epoch_ ? ws_->lane_[v].dist
                                                : graph::kInfCost;
    }
    return base_->dist[v];
  }

  /// Materializes the full masked distance vector (what the allocating
  /// masked run's .dist would be), for consumers that keep per-relay
  /// caches.
  void dist_into(std::vector<graph::Cost>& out) const;

  /// As above into a caller-owned row of exactly n entries (the flat
  /// avoid-matrix layout used by the fig3 overpayment sweep).
  void dist_into(std::span<graph::Cost> out) const;

 private:
  void seed_and_relax_members();

  const graph::NodeGraph* node_g_ = nullptr;
  const graph::LinkGraph* run_g_ = nullptr;
  const graph::LinkGraph* in_g_ = nullptr;
  const SptResult* base_ = nullptr;
  const SptChildren* children_ = nullptr;
  DijkstraWorkspace* ws_ = nullptr;
};

}  // namespace tc::spath
