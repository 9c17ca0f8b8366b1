#include "core/fast_payment.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <vector>

#include "core/audit_hooks.hpp"
#include "core/edge_vcg.hpp"
#include "core/fast_payment_scan.hpp"
#include "spath/dijkstra.hpp"
#include "spath/workspace.hpp"
#include "util/check.hpp"
#include "util/cpu_features.hpp"

namespace tc::core {

using graph::Arc;
using graph::Cost;
using graph::kInfCost;
using graph::kInvalidNode;
using graph::NodeId;
using internal::ScanMins;
using internal::stamp_levels;

namespace {

constexpr std::uint32_t kInvalidLevel = LevelLabels::kInvalidLevel;
// Step-2 walk markers; never left in the level array afterwards.
constexpr std::uint32_t kUnlabelled = kInvalidLevel - 1;
constexpr std::uint32_t kOnWalk = kInvalidLevel - 2;

PaymentScratch& thread_local_payment_scratch() {
  thread_local PaymentScratch scratch;
  return scratch;
}

/// The cheapest value stamped over level l.
Cost stamped_at(const Cost* tree, std::size_t width, std::size_t l) {
  Cost best = kInfCost;
  for (std::size_t p = width + l; p >= 1; p >>= 1) {
    best = std::min(best, tree[p]);
  }
  return best;
}

// How a hop is priced: the one difference between the node-cost model
// (Section III.B: an interior relay v costs c_v) and the symmetric
// link-cost model (Section III.F: a hop u-v costs w(u,v) = w(v,u)). The
// kernel is instantiated with one of the two. Each policy owns the two
// arc loops, the fused scan (`scan`) and the restricted Dijkstra's
// relaxation (`relax`), and each value it forms is the exact expression
// the per-level textbook formulation of that model evaluates, so both
// instantiations keep its association order (DESIGN.md §1.2.1).

struct NodeCosts {
  using Graph = graph::NodeGraph;

  static void solve_row(spath::DijkstraWorkspace& ws, const Graph& g,
                        NodeId root, std::span<Cost> dist,
                        std::span<NodeId> parent) {
    spath::dijkstra_node_row_into(ws, g, root, dist, parent);
  }

  /// Precomputes pair[2v] = L(v) + c_v and pair[2v + 1] = c_v + R(v)
  /// into `pair_buf`, sizes the relaxation's candidate buffer, and picks
  /// the AVX-512 or scalar arc loops (fast_payment_scan.hpp) for this CPU.
  NodeCosts(const Graph& g, NodeId s, NodeId t, std::span<const Cost> L,
            std::span<const Cost> R, const std::uint32_t* levels,
            std::vector<Cost>& pair_buf, std::vector<NodeId>& ids_buf)
      : in{levels, nullptr, g.costs().data(), R.data(), s, t} {
    const std::size_t n = g.num_nodes();
    pair_buf.resize(2 * n);
    ids_buf.resize(n);
    Cost* const pair = pair_buf.data();
    for (NodeId v = 0; v < n; ++v) {
      pair[2 * std::size_t{v}] = L[v] + interior(v);
      pair[2 * std::size_t{v} + 1] = interior(v) + R[v];
    }
    in.pair = pair;
    ids = ids_buf.data();
#if TC_AVX512_TARGET
    if (util::have_avx512()) {
      scan_hops = internal::fused_scan_avx512;
      candidates = internal::relax_candidates_avx512;
    }
#endif
  }

  /// A node's cost when it is interior on a candidate path; the
  /// endpoints' own costs are excluded by the path-cost convention.
  Cost interior(NodeId v) const {
    return (v == in.source || v == in.target) ? 0.0 : in.cost[v];
  }
  /// Fused scan of v: low(v) from lower-level neighbours w (L(w) + c_w),
  /// the seed from higher ones (c_w + R(w)), crossing edges
  /// L(v) + c_v + c_w + R(w) stamped into `cross`.
  ScanMins scan(const Graph& g, NodeId v, std::uint32_t lv, Cost* cross,
                std::size_t width) const {
    return scan_hops(in, v, lv, g.neighbors(v), cross, width);
  }
  /// Settled member v of level l at R^{-l}(v) = d offers c_v + d to its
  /// level-l neighbours other than r_l. The prefilter lists candidates;
  /// the re-check against live r_minus keeps the sequential loop's exact
  /// sequence of heap operations.
  void relax(const Graph& g, NodeId v, Cost d, std::uint32_t l, NodeId r_l,
             Cost* r_minus, spath::BinaryHeap& heap) const {
    const Cost through = in.cost[v] + d;
    const std::size_t cnt =
        candidates(in.level, r_minus, g.neighbors(v), l, r_l, through, ids);
    for (std::size_t j = 0; j < cnt; ++j) {
      const NodeId w = ids[j];
      if (through < r_minus[w]) {
        r_minus[w] = through;
        heap.push_or_decrease(w, through);
      }
    }
  }
  /// Step 4 through settled member v: enter(low(v), v) + R^{-l}(v).
  Cost enter(Cost low, NodeId v) const { return low + in.cost[v]; }
  /// The declared cost relay path[l] is paid on top of its step-6 term.
  Cost own(const Graph& /*g*/, const NodeId* path, std::uint32_t l) const {
    return in.cost[path[l]];
  }

  internal::NodeScanInput in;
  NodeId* ids = nullptr;
  decltype(&internal::fused_scan_scalar) scan_hops =
      internal::fused_scan_scalar;
  decltype(&internal::relax_candidates_scalar) candidates =
      internal::relax_candidates_scalar;
};

struct LinkCosts {
  using Graph = graph::LinkGraph;

  static void solve_row(spath::DijkstraWorkspace& ws, const Graph& g,
                        NodeId root, std::span<Cost> dist,
                        std::span<NodeId> parent) {
    spath::dijkstra_link_row_into(ws, g, root, dist, parent);
  }

  LinkCosts(const Graph& /*g*/, NodeId /*s*/, NodeId /*t*/,
            std::span<const Cost> L, std::span<const Cost> R,
            const std::uint32_t* levels, std::vector<Cost>& /*pair_buf*/,
            std::vector<NodeId>& /*ids_buf*/)
      : dist_s(L.data()), dist_t(R.data()), level(levels) {}

  /// L(v) + w(v,w) + R(w).
  Cost crossing(NodeId v, const Arc& a) const {
    return dist_s[v] + a.cost + dist_t[a.to];
  }
  /// Fused scan of v: low(v) from lower-level neighbours w
  /// (L(w) + w(v,w)), the seed from higher ones (w(v,w) + R(w)), crossing
  /// edges stamped into `cross`. Scalar on every CPU.
  ScanMins scan(const Graph& g, NodeId v, std::uint32_t lv, Cost* cross,
                std::size_t width) const {
    ScanMins out{kInfCost, kInfCost};
    for (const Arc& a : g.out_arcs(v)) {
      const std::uint32_t lw = level[a.to];
      if (lw == kInvalidLevel || lw == lv) continue;
      if (lw < lv) {
        out.lo = std::min(out.lo, dist_s[a.to] + a.cost);
        continue;
      }
      out.seed = std::min(out.seed, a.cost + dist_t[a.to]);
      // Few edges skip a level; keep the stamp off the scan's hot path.
      if (lw < lv + 2 || !graph::finite_cost(dist_t[a.to])) [[likely]] {
        continue;
      }
      stamp_levels(cross, width, lv + 1, lw, crossing(v, a));
    }
    return out;
  }
  /// Settled member v of level l at R^{-l}(v) = d offers d + w(v,w) to its
  /// level-l neighbours w other than r_l.
  void relax(const Graph& g, NodeId v, Cost d, std::uint32_t l, NodeId r_l,
             Cost* r_minus, spath::BinaryHeap& heap) const {
    for (const Arc& a : g.out_arcs(v)) {
      if (level[a.to] != l || a.to == r_l) continue;
      const Cost cand = d + a.cost;
      if (cand < r_minus[a.to]) {
        r_minus[a.to] = cand;
        heap.push_or_decrease(a.to, cand);
      }
    }
  }
  /// min_u (L(u) + w(u,v)) + R^{-l}(v).
  static Cost enter(Cost low, NodeId /*v*/) { return low; }
  /// The forwarding arc path[l] -> path[l+1].
  static Cost own(const Graph& g, const NodeId* path, std::uint32_t l) {
    return g.arc_cost(path[l], path[l + 1]);
  }

  const Cost* dist_s;
  const Cost* dist_t;
  const std::uint32_t* level;
};

}  // namespace

void label_levels(std::span<const NodeId> parent, std::span<const NodeId> path,
                  std::vector<std::uint32_t>& level,
                  std::vector<NodeId>& stack) {
  // A memoized walk up the parent array: each node is climbed past at
  // most once, so O(n) with no children lists.
  const std::size_t n = parent.size();
  level.assign(n, kUnlabelled);
  for (std::uint32_t l = 0; l < path.size(); ++l) level[path[l]] = l;
  for (NodeId v = 0; v < n; ++v) {
    NodeId u = v;
    while (level[u] == kUnlabelled && parent[u] != kInvalidNode) {
      level[u] = kOnWalk;
      stack.push_back(u);
      u = parent[u];
    }
    TC_CHECK_MSG(level[u] != kOnWalk, "SPT parent array has a cycle");
    // A parentless node off the LCP is not in the tree.
    if (level[u] == kUnlabelled) level[u] = kInvalidLevel;
    for (const NodeId w : stack) level[w] = level[u];
    stack.clear();
  }
}

/// The steps of Algorithm 1 on a PaymentScratch, for node agents under
/// either cost model and for edge agents under link costs. Every value
/// below is formed with the same operands in the same association order
/// as the per-level textbook formulation; DESIGN.md §1.2.1 gives the
/// argument that the fused passes therefore produce bit-identical
/// payments.
struct PaymentKernel {
  /// The LCP r_0..r_q: the tree path to a reached target.
  static void lcp_into(std::span<const NodeId> parent, NodeId target,
                       std::vector<NodeId>& path) {
    for (NodeId v = target; v != kInvalidNode; v = parent[v]) {
      path.push_back(v);
    }
    std::reverse(path.begin(), path.end());
  }

  static void check_endpoints(std::size_t n, NodeId source, NodeId target) {
    TC_CHECK_MSG(source != target, "source and target must differ");
    TC_CHECK_MSG(source < n && target < n, "endpoint out of range");
  }

  /// Step 1: SPT(s) into the scratch rows, and SPT(t) when s reaches t.
  template <class Costs>
  static void solve_trees(PaymentScratch& s, const typename Costs::Graph& g,
                          NodeId source, NodeId target) {
    const std::size_t n = g.num_nodes();
    s.tree_source_ = source;
    s.tree_target_ = target;
    s.dist_s_.resize(n);
    s.parent_s_.resize(n);
    Costs::solve_row(s.ws_, g, source, s.dist_s_, s.parent_s_);
    if (graph::finite_cost(s.dist_s_[target])) {
      s.dist_t_.resize(n);
      s.parent_t_.resize(n);
      Costs::solve_row(s.ws_, g, target, s.dist_t_, s.parent_t_);
    }
  }

  /// Steps 2-6 for node agents given SPT(s) (dist_s = L, parent) and
  /// SPT(t)'s dist_t = R.
  template <class Costs>
  static void price_from_spts(PaymentScratch& s,
                              const typename Costs::Graph& g, NodeId source,
                              NodeId target, std::span<const Cost> dist_s,
                              std::span<const NodeId> parent,
                              std::span<const Cost> dist_t,
                              PaymentResult& out) {
    const std::size_t n = g.num_nodes();
    out.payments.assign(n, 0.0);
    out.path.clear();
    out.path_cost = kInfCost;
    out.profile_version = 0;
    if (!graph::finite_cost(dist_s[target])) return;
    lcp_into(parent, target, out.path);
    TC_DCHECK(out.path.front() == source);
    out.path_cost = dist_s[target];
    const auto q = static_cast<std::uint32_t>(out.path.size() - 1);
    if (q < 2) return;  // no relay nodes

    // --- Step 2: levels. ---------------------------------------------
    label_levels(parent, out.path, s.level_, s.stack_);
    const std::uint32_t* const level = s.level_.data();
    const NodeId* const path = out.path.data();
    const Costs costs(g, source, target, dist_s, dist_t, level, s.pair_,
                      s.relax_ids_);

    // --- Fused scan (steps 3-5 inputs). --------------------------------
    // Off-path nodes of levels 1..q-1 are the step-3 members. For each:
    //  * R^{-l}(v) is seeded from higher-level neighbors w, whose R(w)
    //    already avoids r_l (Lemma 2): min over hops v-w to the target;
    //  * low(v) = min over lower-level neighbors u of the best way from
    //    the source into v via u (step 4).
    // Every edge (a, b) with level(a) + 2 <= level(b) crosses the levels
    // strictly between; its path value through a-b is min-stamped onto
    // that level range in a range-min tree (step 5), whose leaf l ends up
    // holding the cheapest path that jumps over r_l.
    s.r_minus_.resize(n);
    s.low_.resize(n);
    s.min_low_.assign(q, kInfCost);
    const std::size_t width = std::bit_ceil(std::size_t{q});
    s.cross_.assign(2 * width, kInfCost);
    s.heap_.reset(n);
    Cost* const r_minus = s.r_minus_.data();
    Cost* const low = s.low_.data();
    Cost* const min_low = s.min_low_.data();
    Cost* const cross = s.cross_.data();
    for (NodeId v = 0; v < n; ++v) {
      const std::uint32_t lv = level[v];
      if (lv == kInvalidLevel) continue;
      const bool member = lv >= 1 && lv < q && path[lv] != v;
      if (!member && lv + 2 > q) continue;  // no work from v
      const ScanMins mins = costs.scan(g, v, lv, cross, width);
      if (!member) continue;
      r_minus[v] = mins.seed;
      low[v] = mins.lo;
      min_low[lv] = std::min(min_low[lv], mins.lo);
      if (graph::finite_cost(mins.seed)) {
        s.heap_.push_or_decrease(v, mins.seed);
      }
    }

    // avoid[l] starts at the cheapest crossing over r_l (step 5) and
    // takes step 4's candidates as the Dijkstra settles level-l members.
    s.avoid_.assign(q, kInfCost);
    s.open_.assign(q, 0);
    Cost* const avoid = s.avoid_.data();
    std::uint32_t open_levels = 0;
    for (std::uint32_t l = 1; l < q; ++l) {
      avoid[l] = stamped_at(cross, width, l);
      if (graph::finite_cost(min_low[l])) {
        s.open_[l] = 1;
        ++open_levels;
      }
    }

    // --- Steps 3 and 4: one restricted Dijkstra for all levels. --------
    // Relaxation stays within a level, so the levels never interact and
    // one heap serves them all. A settled member's candidate is
    // enter(low(v), v) + R^{-l}(v). Keys pop in nondecreasing order, and
    // every later level-l candidate is at least min_low[l] + d; once that
    // reaches avoid[l], level l can no longer improve and is closed.
    while (open_levels > 0 && !s.heap_.empty()) {
      const auto [d, v] = s.heap_.pop_min();
      const std::uint32_t l = level[v];
      if (s.open_[l] == 0) continue;
      if (min_low[l] + d >= avoid[l]) {
        s.open_[l] = 0;
        --open_levels;
        continue;
      }
      avoid[l] = std::min(avoid[l], costs.enter(low[v], v) + d);
      costs.relax(g, v, d, l, path[l], r_minus, s.heap_);
    }

    // --- Step 6: payments. ---------------------------------------------
    for (std::uint32_t l = 1; l < q; ++l) {
      out.payments[path[l]] = graph::finite_cost(avoid[l])
                                  ? avoid[l] - out.path_cost +
                                        costs.own(g, path, l)
                                  : kInfCost;
    }
  }

  /// Edge agents under link costs: removing LCP edge e_l = (r_l, r_{l+1})
  /// cuts the levels <= l off from the levels > l, so its best detour is
  /// the cheapest non-LCP edge (a, b) with level(a) <= l < level(b).
  /// Only the range-min tree is needed, over levels [level(a),
  /// level(b) - 1].
  static void price_edges(PaymentScratch& s, const graph::LinkGraph& g,
                          NodeId source, NodeId target, EdgeVcgResult& out) {
    out.path.clear();
    out.payments.clear();
    out.path_cost = kInfCost;
    if (!graph::finite_cost(s.dist_s_[target])) return;
    lcp_into(s.parent_s_, target, out.path);
    out.path_cost = s.dist_s_[target];
    const auto q = static_cast<std::uint32_t>(out.path.size() - 1);

    label_levels(s.parent_s_, out.path, s.level_, s.stack_);
    const std::uint32_t* const level = s.level_.data();
    const NodeId* const path = out.path.data();
    const LinkCosts costs(g, source, target, s.dist_s_, s.dist_t_, level,
                          s.pair_, s.relax_ids_);
    const std::size_t width = std::bit_ceil(std::size_t{q});
    s.cross_.assign(2 * width, kInfCost);
    Cost* const cross = s.cross_.data();
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const std::uint32_t lv = level[v];
      if (lv == kInvalidLevel) continue;
      const bool on_path = path[lv] == v;
      for (const Arc& hop : g.out_arcs(v)) {
        const std::uint32_t lw = level[hop.to];
        if (lw == kInvalidLevel || lw <= lv) continue;
        if (on_path && lw == lv + 1 && path[lw] == hop.to) continue;
        if (!graph::finite_cost(s.dist_t_[hop.to])) continue;
        stamp_levels(cross, width, lv, lw, costs.crossing(v, hop));
      }
    }

    for (std::uint32_t l = 0; l < q; ++l) {
      EdgePayment payment;
      payment.u = path[l];
      payment.v = path[l + 1];
      payment.declared = LinkCosts::own(g, path, l);
      const Cost detour = stamped_at(cross, width, l);
      payment.payment = graph::finite_cost(detour)
                            ? detour - out.path_cost + payment.declared
                            : kInfCost;
      out.payments.push_back(payment);
    }
  }

  /// compute_levels: step 1 for the source, then step 2.
  static LevelLabels level_labels(PaymentScratch& s,
                                  const graph::NodeGraph& g, NodeId source,
                                  NodeId target) {
    TC_CHECK_MSG(target < g.num_nodes(), "endpoint out of range");
    s.dist_s_.resize(g.num_nodes());
    s.parent_s_.resize(g.num_nodes());
    NodeCosts::solve_row(s.ws_, g, source, s.dist_s_, s.parent_s_);
    LevelLabels out;
    if (!graph::finite_cost(s.dist_s_[target])) {
      out.levels.assign(g.num_nodes(), kInvalidLevel);
      return out;
    }
    lcp_into(s.parent_s_, target, out.path);
    label_levels(s.parent_s_, out.path, out.levels, s.stack_);
    return out;
  }

  static void payments_into(PaymentScratch& s, const graph::NodeGraph& g,
                            NodeId source, NodeId target,
                            const spath::SptResult* spt_source,
                            const spath::SptResult* spt_target,
                            PaymentResult& out) {
    const std::size_t n = g.num_nodes();
    check_endpoints(n, source, target);
    TC_CHECK_MSG((spt_source == nullptr) == (spt_target == nullptr),
                 "pass both trees or neither");
    if (spt_source == nullptr) {
      solve_trees<NodeCosts>(s, g, source, target);
      price_from_spts<NodeCosts>(s, g, source, target, s.dist_s_,
                                 s.parent_s_, s.dist_t_, out);
      return;
    }
    TC_CHECK_MSG(spt_source->source == source &&
                     spt_source->dist.size() == n &&
                     spt_source->parent.size() == n,
                 "SPT(s) does not match the source or the graph size");
    if (spt_source->reached(target)) {
      TC_CHECK_MSG(spt_target->source == target &&
                       spt_target->dist.size() == n &&
                       spt_target->parent.size() == n,
                   "SPT(t) does not match the target or the graph size");
    }
    price_from_spts<NodeCosts>(s, g, source, target, spt_source->dist,
                               spt_source->parent, spt_target->dist, out);
  }

  static void link_payments_into(PaymentScratch& s, const graph::LinkGraph& g,
                                 NodeId source, NodeId target,
                                 PaymentResult& out) {
    check_endpoints(g.num_nodes(), source, target);
    solve_trees<LinkCosts>(s, g, source, target);
    price_from_spts<LinkCosts>(s, g, source, target, s.dist_s_, s.parent_s_,
                               s.dist_t_, out);
  }

  static void edge_payments_into(PaymentScratch& s, const graph::LinkGraph& g,
                                 NodeId source, NodeId target,
                                 EdgeVcgResult& out) {
    check_endpoints(g.num_nodes(), source, target);
    solve_trees<LinkCosts>(s, g, source, target);
    price_edges(s, g, source, target, out);
  }
};

spath::SptResult PaymentScratch::source_tree() const {
  return {tree_source_, dist_s_, parent_s_};
}

spath::SptResult PaymentScratch::target_tree() const {
  return {tree_target_, dist_t_, parent_t_};
}

void fast_payments_into(PaymentScratch& scratch, const graph::NodeGraph& g,
                        NodeId source, NodeId target,
                        const spath::SptResult* spt_source,
                        const spath::SptResult* spt_target,
                        PaymentResult& out) {
  PaymentKernel::payments_into(scratch, g, source, target, spt_source,
                               spt_target, out);
}

namespace internal {

void link_payments_into(const graph::LinkGraph& g, NodeId source,
                        NodeId target, PaymentResult& out) {
  PaymentKernel::link_payments_into(thread_local_payment_scratch(), g, source,
                                    target, out);
}

void edge_payments_into(const graph::LinkGraph& g, NodeId source,
                        NodeId target, EdgeVcgResult& out) {
  PaymentKernel::edge_payments_into(thread_local_payment_scratch(), g, source,
                                    target, out);
}

}  // namespace internal

LevelLabels compute_levels(const graph::NodeGraph& g, NodeId source,
                           NodeId target) {
  return PaymentKernel::level_labels(thread_local_payment_scratch(), g,
                                     source, target);
}

PaymentResult vcg_payments_fast(const graph::NodeGraph& g, NodeId source,
                                NodeId target) {
  return vcg_payments_fast(g, source, target, nullptr, nullptr);
}

PaymentResult vcg_payments_fast(const graph::NodeGraph& g, NodeId source,
                                NodeId target,
                                spath::SptResult* spt_source_out,
                                spath::SptResult* spt_target_out) {
  PaymentScratch& scratch = thread_local_payment_scratch();
  PaymentResult result;
  fast_payments_into(scratch, g, source, target, nullptr, nullptr, result);
  if (spt_source_out != nullptr) *spt_source_out = scratch.source_tree();
  if (spt_target_out != nullptr && result.connected()) {
    *spt_target_out = scratch.target_tree();
  }
  TC_DCHECK(!result.connected() ||
            internal::audit_ok(g, source, target, result));
  return result;
}

PaymentResult vcg_payments_fast(const graph::NodeGraph& g, NodeId source,
                                NodeId target,
                                const spath::SptResult& spt_source,
                                const spath::SptResult& spt_target) {
  PaymentResult result;
  fast_payments_into(thread_local_payment_scratch(), g, source, target,
                     &spt_source, &spt_target, result);
  TC_DCHECK(!result.connected() ||
            internal::audit_ok(g, source, target, result));
  return result;
}

}  // namespace tc::core
