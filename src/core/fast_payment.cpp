#include "core/fast_payment.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <vector>

#include "core/audit_hooks.hpp"
#include "spath/dijkstra.hpp"
#include "spath/workspace.hpp"
#include "util/check.hpp"

namespace tc::core {

using graph::Cost;
using graph::kInfCost;
using graph::kInvalidNode;
using graph::NodeId;

namespace {

constexpr std::uint32_t kInvalidLevel = LevelLabels::kInvalidLevel;
// Step-2 walk markers; never left in the level array afterwards.
constexpr std::uint32_t kUnlabelled = kInvalidLevel - 1;
constexpr std::uint32_t kOnWalk = kInvalidLevel - 2;

PaymentScratch& thread_local_payment_scratch() {
  thread_local PaymentScratch scratch;
  return scratch;
}

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

/// The steps of Algorithm 1 on a PaymentScratch. Every value below is
/// formed with the same operands in the same association order as the
/// per-level textbook formulation; DESIGN.md §1.2.1 gives the argument
/// that the fused passes therefore produce bit-identical payments.
struct PaymentKernel {
  /// Step 1 for one root, into caller-owned rows.
  static void solve_spt_row(PaymentScratch& s, const graph::NodeGraph& g,
                            NodeId root, std::vector<Cost>& dist,
                            std::vector<NodeId>& parent) {
    dist.resize(g.num_nodes());
    parent.resize(g.num_nodes());
    spath::dijkstra_node_row_into(s.ws_, g, root, dist, parent);
  }

  /// The LCP r_0..r_q: the tree path to a reached target.
  static void lcp_into(std::span<const NodeId> parent, NodeId target,
                       std::vector<NodeId>& path) {
    for (NodeId v = target; v != kInvalidNode; v = parent[v]) {
      path.push_back(v);
    }
    std::reverse(path.begin(), path.end());
  }

  /// Steps 2-6 given SPT(s) (dist_s = L, parent) and SPT(t)'s dist_t = R.
  static void price_from_spts(PaymentScratch& s, const graph::NodeGraph& g,
                              NodeId source, NodeId target,
                              std::span<const Cost> dist_s,
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
    const Cost* const cost = g.costs().data();
    // A node's cost when it is interior on a candidate path; the
    // endpoints' own costs are excluded by the path-cost convention.
    const auto interior = [&](NodeId v) -> Cost {
      return (v == source || v == target) ? 0.0 : cost[v];
    };
    s.lc_.resize(n);
    s.cr_.resize(n);
    Cost* const lc = s.lc_.data();
    Cost* const cr = s.cr_.data();
    for (NodeId v = 0; v < n; ++v) {
      lc[v] = dist_s[v] + interior(v);
      cr[v] = interior(v) + dist_t[v];
    }

    // --- Fused scan (steps 3-5 inputs). --------------------------------
    // Off-path nodes of levels 1..q-1 are the step-3 members. For each:
    //  * R^{-l}(v) is seeded from higher-level neighbors w, whose R(w)
    //    already avoids r_l (Lemma 2): min c_w + R(w);
    //  * low(v) = min L(u) + c_u over lower-level neighbors u, the best
    //    way into v from the source side (step 4).
    // Every edge (a, b) with level(a) + 2 <= level(b) crosses the levels
    // strictly between; its value L(a)+c_a+c_b+R(b) is min-stamped onto
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
      Cost seed = kInfCost;
      Cost lo = kInfCost;
      for (const NodeId w : g.neighbors(v)) {
        const std::uint32_t lw = level[w];
        if (lw == kInvalidLevel || lw == lv) continue;
        if (lw < lv) {
          lo = std::min(lo, lc[w]);
          continue;
        }
        seed = std::min(seed, cr[w]);
        if (lw < lv + 2 || !graph::finite_cost(dist_t[w])) continue;
        const Cost value = lc[v] + interior(w) + dist_t[w];
        for (std::size_t a = width + lv + 1, b = width + lw; a < b;
             a >>= 1, b >>= 1) {
          if ((a & 1) != 0) {
            cross[a] = std::min(cross[a], value);
            ++a;
          }
          if ((b & 1) != 0) {
            --b;
            cross[b] = std::min(cross[b], value);
          }
        }
      }
      if (!member) continue;
      r_minus[v] = seed;
      low[v] = lo;
      min_low[lv] = std::min(min_low[lv], lo);
      if (graph::finite_cost(seed)) s.heap_.push_or_decrease(v, seed);
    }

    // avoid[l] starts at the cheapest crossing over r_l (step 5) and
    // takes step 4's candidates as the Dijkstra settles level-l members.
    s.avoid_.assign(q, kInfCost);
    s.open_.assign(q, 0);
    Cost* const avoid = s.avoid_.data();
    std::uint32_t open_levels = 0;
    for (std::uint32_t l = 1; l < q; ++l) {
      for (std::size_t p = width + l; p >= 1; p >>= 1) {
        avoid[l] = std::min(avoid[l], cross[p]);
      }
      if (graph::finite_cost(min_low[l])) {
        s.open_[l] = 1;
        ++open_levels;
      }
    }

    // --- Steps 3 and 4: one restricted Dijkstra for all levels. --------
    // Relaxation stays within a level, so the levels never interact and
    // one heap serves them all. A settled member's candidate is
    // (low(v) + c_v) + R^{-l}(v). Keys pop in nondecreasing order, and
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
      avoid[l] = std::min(avoid[l], low[v] + cost[v] + d);
      const Cost through = cost[v] + d;
      const NodeId r_l = path[l];
      for (const NodeId w : g.neighbors(v)) {
        if (level[w] != l || w == r_l) continue;
        if (through < r_minus[w]) {
          r_minus[w] = through;
          s.heap_.push_or_decrease(w, through);
        }
      }
    }

    // --- Step 6: payments. ---------------------------------------------
    for (std::uint32_t l = 1; l < q; ++l) {
      const NodeId r_l = path[l];
      out.payments[r_l] = graph::finite_cost(avoid[l])
                              ? avoid[l] - out.path_cost + cost[r_l]
                              : kInfCost;
    }
  }

  /// compute_levels: step 1 for the source, then step 2.
  static LevelLabels level_labels(PaymentScratch& s,
                                  const graph::NodeGraph& g, NodeId source,
                                  NodeId target) {
    TC_CHECK_MSG(target < g.num_nodes(), "endpoint out of range");
    solve_spt_row(s, g, source, s.dist_s_, s.parent_s_);
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
    TC_CHECK_MSG(source != target, "source and target must differ");
    TC_CHECK_MSG(source < n && target < n, "endpoint out of range");
    TC_CHECK_MSG((spt_source == nullptr) == (spt_target == nullptr),
                 "pass both trees or neither");
    if (spt_source == nullptr) {
      // --- Step 1: SPTs into the scratch rows. -------------------------
      s.tree_source_ = source;
      s.tree_target_ = target;
      solve_spt_row(s, g, source, s.dist_s_, s.parent_s_);
      if (graph::finite_cost(s.dist_s_[target])) {
        solve_spt_row(s, g, target, s.dist_t_, s.parent_t_);
      }
      price_from_spts(s, g, source, target, s.dist_s_, s.parent_s_,
                      s.dist_t_, out);
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
    price_from_spts(s, g, source, target, spt_source->dist,
                    spt_source->parent, spt_target->dist, out);
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
