#include "spath/workspace.hpp"

#include <algorithm>
#include <limits>

#include "util/cpu_features.hpp"

#if TC_AVX512_TARGET
#include <immintrin.h>
#endif

namespace tc::spath {

using graph::Cost;
using graph::kInfCost;
using graph::kInvalidNode;
using graph::NodeId;

namespace {

// Lanes of neighbors not yet scanned are the only hard-to-predict loads
// in the relax loop (the neighbor id array itself streams sequentially),
// so fetch them a fixed distance ahead of the scan cursor — but only
// once the lane array outgrows L2. At cache-resident sizes (n = 1024 is
// a 16 KiB lane array) the prefetch instructions are pure issue-port
// overhead and measurably slow the scan down (DESIGN.md §13).
constexpr std::size_t kPrefetchDist = 8;
constexpr std::size_t kPrefetchMinNodes = std::size_t{1} << 17;  // 2 MiB

inline void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

// Cost bound for HeapKind::kBucket: the largest finite cost bounds every
// relaxation increment, which is exactly the window guarantee the cyclic
// bucket queue needs (bucket_queue.hpp). The O(n) / O(m) scan is noise
// next to the solve itself. Fallback 1.0 covers all-zero / all-infinite
// inputs (any positive bound is correct there: no push ever exceeds the
// last pop).
Cost node_cost_bound(const graph::NodeGraph& g) {
  Cost top = 0.0;
  for (const Cost c : g.costs()) {
    if (graph::finite_cost(c) && c > top) top = c;
  }
  return top > 0.0 ? top : 1.0;
}

Cost link_cost_bound(const graph::LinkGraph& g) {
  Cost top = 0.0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const graph::Arc& a : g.out_arcs(u)) {
      if (graph::finite_cost(a.cost) && a.cost > top) top = a.cost;
    }
  }
  return top > 0.0 ? top : 1.0;
}

// ---------------------------------------------------------------------
// Vectorized arc scans (AVX-512, runtime-dispatched with a scalar
// fallback). Each scan is a conservative prefilter: it compares
// candidates against the PRE-SCAN lane/row state and compress-stores the
// ids (and, for the link model, tentative costs) of every apparent
// improvement, in neighbor order. The caller re-checks each candidate
// against live state before applying it, so the combination performs
// exactly the sequential kernel's relaxations — bit-identical dist and
// parent even when an adjacency list repeats a target. False positives
// (a candidate superseded within its own batch) cost one extra compare;
// false negatives are impossible because tentative distances only
// decrease during the scan.
#if TC_AVX512_TARGET

// GCC's AVX-512 intrinsic headers seed blend targets with
// _mm512_undefined_epi32(), which -Wmaybe-uninitialized flags when the
// wrappers inline; silence that known false positive for the scans only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// Node model: `through` is constant across u's whole neighbor scan, so
// 16 neighbors per step need one 32-bit stamp gather, one (masked)
// 64-bit dist gather, one compare and one compress. Lane fields are
// gathered in place: dist sits at qword index 2v of the lane array,
// stamp at dword index 4v + 3.
__attribute__((target("avx512f"))) std::size_t scan_node_lanes(
    const NodeLane* lane, const NodeId* nb, std::size_t deg, std::uint32_t e,
    Cost through, NodeId* out) {
  std::size_t cnt = 0;
  const __m512i ve = _mm512_set1_epi32(static_cast<int>(e));
  const __m512d vthrough = _mm512_set1_pd(through);
  const __m512d vinf = _mm512_set1_pd(kInfCost);
  const int* const sbase = reinterpret_cast<const int*>(lane);
  const double* const dbase = reinterpret_cast<const double*>(lane);
  for (std::size_t i = 0; i < deg; i += 16) {
    const __mmask16 m = (deg - i >= 16)
                            ? static_cast<__mmask16>(0xffff)
                            : static_cast<__mmask16>((1u << (deg - i)) - 1);
    const __m512i vv = _mm512_maskz_loadu_epi32(m, nb + i);
    const __m512i sidx =
        _mm512_add_epi32(_mm512_slli_epi32(vv, 2), _mm512_set1_epi32(3));
    const __m512i vs =
        _mm512_mask_i32gather_epi32(_mm512_setzero_si512(), m, sidx, sbase, 4);
    // stamp >= e: lane dist is current (tentative or settled). Settled
    // lanes pass through to the compare, where monotone pops guarantee
    // `through < dist` fails — no explicit settled mask needed.
    const __mmask16 cur = _mm512_mask_cmp_epu32_mask(m, vs, ve, _MM_CMPINT_GE);
    const __m512i didx = _mm512_slli_epi32(vv, 1);
    const __m256i didx_lo = _mm512_castsi512_si256(didx);
    const __m256i didx_hi = _mm512_extracti64x4_epi64(didx, 1);
    const __m512d dv_lo = _mm512_mask_i32gather_pd(
        vinf, static_cast<__mmask8>(cur), didx_lo, dbase, 8);
    const __m512d dv_hi = _mm512_mask_i32gather_pd(
        vinf, static_cast<__mmask8>(cur >> 8), didx_hi, dbase, 8);
    const __mmask8 imp_lo = _mm512_mask_cmp_pd_mask(
        static_cast<__mmask8>(m), vthrough, dv_lo, _CMP_LT_OQ);
    const __mmask8 imp_hi = _mm512_mask_cmp_pd_mask(
        static_cast<__mmask8>(m >> 8), vthrough, dv_hi, _CMP_LT_OQ);
    const __mmask16 imp = static_cast<__mmask16>(
        static_cast<unsigned>(imp_lo) | (static_cast<unsigned>(imp_hi) << 8));
    _mm512_mask_compressstoreu_epi32(out + cnt, imp, vv);
    cnt += static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(imp)));
  }
  return cnt;
}

// Row variant: the dist row is prefilled to kInfCost, so untouched and
// settled targets alike resolve through one plain dist gather.
__attribute__((target("avx512f"))) std::size_t scan_node_row(
    const Cost* dist, const NodeId* nb, std::size_t deg, Cost through,
    NodeId* out) {
  std::size_t cnt = 0;
  const __m512d vthrough = _mm512_set1_pd(through);
  const __m512d vinf = _mm512_set1_pd(kInfCost);
  for (std::size_t i = 0; i < deg; i += 16) {
    const __mmask16 m = (deg - i >= 16)
                            ? static_cast<__mmask16>(0xffff)
                            : static_cast<__mmask16>((1u << (deg - i)) - 1);
    const __m512i vv = _mm512_maskz_loadu_epi32(m, nb + i);
    const __m256i didx_lo = _mm512_castsi512_si256(vv);
    const __m256i didx_hi = _mm512_extracti64x4_epi64(vv, 1);
    const __m512d dv_lo = _mm512_mask_i32gather_pd(
        vinf, static_cast<__mmask8>(m), didx_lo, dist, 8);
    const __m512d dv_hi = _mm512_mask_i32gather_pd(
        vinf, static_cast<__mmask8>(m >> 8), didx_hi, dist, 8);
    const __mmask8 imp_lo = _mm512_mask_cmp_pd_mask(
        static_cast<__mmask8>(m), vthrough, dv_lo, _CMP_LT_OQ);
    const __mmask8 imp_hi = _mm512_mask_cmp_pd_mask(
        static_cast<__mmask8>(m >> 8), vthrough, dv_hi, _CMP_LT_OQ);
    const __mmask16 imp = static_cast<__mmask16>(
        static_cast<unsigned>(imp_lo) | (static_cast<unsigned>(imp_hi) << 8));
    _mm512_mask_compressstoreu_epi32(out + cnt, imp, vv);
    cnt += static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(imp)));
  }
  return cnt;
}

// Link model: 8 arcs per step. Arcs are 16-byte {to, pad, cost} records,
// so two 64-byte loads cover 8 of them; permutes split out the targets
// and costs, a vector add forms the candidates (same du + cost each lane
// as the scalar loop, hence bit-equal), and the gather/compare/compress
// tail mirrors the node scan. Non-finite arc costs need no special case:
// an infinite or NaN candidate never compares less-than.
__attribute__((target("avx512f"))) std::size_t scan_link_lanes(
    const NodeLane* lane, const graph::Arc* ar, std::size_t deg,
    std::uint32_t e, Cost du, NodeId* out_v, Cost* out_c) {
  static_assert(sizeof(graph::Arc) == 16);
  std::size_t cnt = 0;
  const __m512i ve = _mm512_set1_epi32(static_cast<int>(e));
  const __m512d vdu = _mm512_set1_pd(du);
  const __m512d vinf = _mm512_set1_pd(kInfCost);
  const int* const sbase = reinterpret_cast<const int*>(lane);
  const double* const dbase = reinterpret_cast<const double*>(lane);
  // Dword lanes 0,4,8,12 of each half hold `to`; qword lanes 1,3,5,7
  // hold `cost`.
  const __m512i to_sel =
      _mm512_set_epi32(0, 0, 0, 0, 0, 0, 0, 0, 28, 24, 20, 16, 12, 8, 4, 0);
  const __m512i cost_sel = _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1);
  for (std::size_t i = 0; i < deg; i += 8) {
    const std::size_t r = deg - i >= 8 ? 8 : deg - i;
    const __mmask8 m = static_cast<__mmask8>((1u << r) - 1);
    const __mmask8 qm0 =
        static_cast<__mmask8>(r >= 4 ? 0xffu : (1u << (2 * r)) - 1);
    const __mmask8 qm1 =
        static_cast<__mmask8>(r > 4 ? (1u << (2 * (r - 4))) - 1 : 0u);
    const __m512i z0 = _mm512_maskz_loadu_epi64(qm0, ar + i);
    const __m512i z1 = _mm512_maskz_loadu_epi64(qm1, ar + i + 4);
    const __m512i tos = _mm512_permutex2var_epi32(z0, to_sel, z1);
    const __m512d cost = _mm512_castsi512_pd(
        _mm512_permutex2var_epi64(z0, cost_sel, z1));
    const __m512d cand = _mm512_add_pd(vdu, cost);
    const __m512i sidx =
        _mm512_add_epi32(_mm512_slli_epi32(tos, 2), _mm512_set1_epi32(3));
    const __m512i vs = _mm512_mask_i32gather_epi32(
        _mm512_setzero_si512(), static_cast<__mmask16>(m), sidx, sbase, 4);
    const __mmask16 cur = _mm512_mask_cmp_epu32_mask(
        static_cast<__mmask16>(m), vs, ve, _MM_CMPINT_GE);
    const __m256i didx = _mm512_castsi512_si256(_mm512_slli_epi32(tos, 1));
    const __m512d dv = _mm512_mask_i32gather_pd(
        vinf, static_cast<__mmask8>(cur), didx, dbase, 8);
    const __mmask8 imp = _mm512_mask_cmp_pd_mask(m, cand, dv, _CMP_LT_OQ);
    _mm512_mask_compressstoreu_epi32(out_v + cnt,
                                     static_cast<__mmask16>(imp), tos);
    _mm512_mask_compressstoreu_pd(out_c + cnt, imp, cand);
    cnt += static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(imp)));
  }
  return cnt;
}

__attribute__((target("avx512f"))) std::size_t scan_link_row(
    const Cost* dist, const graph::Arc* ar, std::size_t deg, Cost du,
    NodeId* out_v, Cost* out_c) {
  static_assert(sizeof(graph::Arc) == 16);
  std::size_t cnt = 0;
  const __m512d vdu = _mm512_set1_pd(du);
  const __m512d vinf = _mm512_set1_pd(kInfCost);
  const __m512i to_sel =
      _mm512_set_epi32(0, 0, 0, 0, 0, 0, 0, 0, 28, 24, 20, 16, 12, 8, 4, 0);
  const __m512i cost_sel = _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1);
  for (std::size_t i = 0; i < deg; i += 8) {
    const std::size_t r = deg - i >= 8 ? 8 : deg - i;
    const __mmask8 m = static_cast<__mmask8>((1u << r) - 1);
    const __mmask8 qm0 =
        static_cast<__mmask8>(r >= 4 ? 0xffu : (1u << (2 * r)) - 1);
    const __mmask8 qm1 =
        static_cast<__mmask8>(r > 4 ? (1u << (2 * (r - 4))) - 1 : 0u);
    const __m512i z0 = _mm512_maskz_loadu_epi64(qm0, ar + i);
    const __m512i z1 = _mm512_maskz_loadu_epi64(qm1, ar + i + 4);
    const __m512i tos = _mm512_permutex2var_epi32(z0, to_sel, z1);
    const __m512d cost = _mm512_castsi512_pd(
        _mm512_permutex2var_epi64(z0, cost_sel, z1));
    const __m512d cand = _mm512_add_pd(vdu, cost);
    const __m256i didx = _mm512_castsi512_si256(tos);
    const __m512d dv = _mm512_mask_i32gather_pd(vinf, m, didx, dist, 8);
    const __mmask8 imp = _mm512_mask_cmp_pd_mask(m, cand, dv, _CMP_LT_OQ);
    _mm512_mask_compressstoreu_epi32(out_v + cnt,
                                     static_cast<__mmask16>(imp), tos);
    _mm512_mask_compressstoreu_pd(out_c + cnt, imp, cand);
    cnt += static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(imp)));
  }
  return cnt;
}
#pragma GCC diagnostic pop
#endif  // TC_AVX512_TARGET

}  // namespace

void DijkstraWorkspace::begin(std::size_t n, NodeId source) {
  if (n > lane_.size()) {
    lane_.resize(n, NodeLane{0.0, kInvalidNode, 0});
    member_.resize(n, 0);
    removed_.resize(n, 0);
    scan_ids_.resize(n);
    scan_cand_.resize(n);
  }
  n_ = n;
  if (epoch_ >= std::numeric_limits<std::uint32_t>::max() - 3) {
    // Wraparound: a fresh epoch could collide with ancient stamps, so pay
    // the one-in-2^31 full clear (the +1 settled stamp must not overflow
    // either, hence the -3 guard band).
    for (NodeLane& l : lane_) l.stamp = 0;
    std::fill(member_.begin(), member_.end(), 0u);
    std::fill(removed_.begin(), removed_.end(), 0u);
    epoch_ = 0;
  }
  epoch_ += 2;  // stays even: epoch_ = touched, epoch_ + 1 = settled
  source_ = source;
  complete_ = false;
}

std::vector<NodeId> DijkstraWorkspace::path_to(NodeId t) const {
  std::vector<NodeId> path;
  path_to_into(t, path);
  return path;
}

void DijkstraWorkspace::path_to_into(NodeId t,
                                     std::vector<NodeId>& out) const {
  out.clear();
  if (!reached(t)) return;
  for (NodeId v = t; v != kInvalidNode; v = lane_[v].parent) {
    TC_DCHECK(touched(v));
    out.push_back(v);
  }
  std::reverse(out.begin(), out.end());
  TC_DCHECK(out.front() == source_);
}

SptResult DijkstraWorkspace::to_result() const {
  TC_DCHECK(complete_);
  SptResult r;
  r.source = source_;
  r.dist.resize(n_);
  r.parent.resize(n_);
  for (NodeId v = 0; v < n_; ++v) {
    const bool t = lane_[v].stamp >= epoch_;
    r.dist[v] = t ? lane_[v].dist : kInfCost;
    r.parent[v] = t ? lane_[v].parent : kInvalidNode;
  }
  return r;
}

graph::NodeMask& DijkstraWorkspace::scratch_mask(std::size_t n) {
  if (mask_.size() != n) mask_ = graph::NodeMask(n);
  return mask_;
}

DijkstraWorkspace& thread_local_workspace() {
  thread_local DijkstraWorkspace ws;
  return ws;
}

struct WorkspaceKernels {
  // All kernels replicate their allocating counterparts' relaxation
  // condition exactly — including the "infinite candidate never relaxes an
  // untouched node" case — so dist/parent come out bit-identical. The
  // maskless instantiation drops the allowed() load from the inner loop;
  // an empty mask allows everything, so behavior is unchanged.
  template <bool kMasked, typename Heap>
  static void run_node(DijkstraWorkspace& ws, Heap& heap,
                       const graph::NodeGraph& g, NodeId source,
                       [[maybe_unused]] const graph::NodeMask& mask,
                       NodeId stop_at) {
    const std::uint32_t e = ws.epoch_;
    NodeLane* const lane = ws.lane_.data();
    const bool pf = ws.n_ >= kPrefetchMinNodes;
    heap.reset(ws.n_);
    lane[source] = NodeLane{0.0, kInvalidNode, e};
    heap.push_or_decrease(source, 0.0);
    while (!heap.empty()) {
      const auto [du, u] = heap.pop_min();
      NodeLane& lu = lane[u];
      if (lu.stamp == e + 1) continue;
      lu.stamp = e + 1;
      if (u == stop_at) return;  // settled value is final; leftovers are
                                 // cleared by the next heap.reset
      const Cost through = du + (u == source ? 0.0 : g.node_cost(u));
      const auto nbrs = g.neighbors(u);
      const NodeId* const nb = nbrs.data();
      const std::size_t deg = nbrs.size();
#if TC_AVX512_TARGET
      if constexpr (!kMasked) {
        if (util::have_avx512()) {
          const std::size_t cnt =
              scan_node_lanes(lane, nb, deg, e, through, ws.scan_ids_.data());
          for (std::size_t j = 0; j < cnt; ++j) {
            const NodeId v = ws.scan_ids_[j];
            NodeLane& lv = lane[v];
            const Cost dv = lv.stamp >= e ? lv.dist : kInfCost;
            if (through < dv) {
              lv.dist = through;
              lv.parent = u;
              lv.stamp = e;
              heap.push_or_decrease(v, through);
            }
          }
          continue;
        }
      }
#endif
      for (std::size_t i = 0; i < deg; ++i) {
        if (pf && i + kPrefetchDist < deg) {
          prefetch(&lane[nb[i + kPrefetchDist]]);
        }
        const NodeId v = nb[i];
        NodeLane& lv = lane[v];
        const std::uint32_t s = lv.stamp;
        if (s == e + 1) continue;
        if constexpr (kMasked) {
          if (!mask.allowed(v)) continue;
        }
        const Cost dv = s == e ? lv.dist : kInfCost;
        if (through < dv) {
          lv.dist = through;
          lv.parent = u;
          lv.stamp = e;
          heap.push_or_decrease(v, through);
        }
      }
    }
    ws.complete_ = true;
  }

  template <bool kMasked, typename Heap>
  static void run_link(DijkstraWorkspace& ws, Heap& heap,
                       const graph::LinkGraph& g, NodeId source,
                       [[maybe_unused]] const graph::NodeMask& mask,
                       NodeId stop_at) {
    const std::uint32_t e = ws.epoch_;
    NodeLane* const lane = ws.lane_.data();
    const bool pf = ws.n_ >= kPrefetchMinNodes;
    heap.reset(ws.n_);
    lane[source] = NodeLane{0.0, kInvalidNode, e};
    heap.push_or_decrease(source, 0.0);
    while (!heap.empty()) {
      const auto [du, u] = heap.pop_min();
      NodeLane& lu = lane[u];
      if (lu.stamp == e + 1) continue;
      lu.stamp = e + 1;
      if (u == stop_at) return;
      const auto arcs = g.out_arcs(u);
      const graph::Arc* const ar = arcs.data();
      const std::size_t deg = arcs.size();
#if TC_AVX512_TARGET
      if constexpr (!kMasked) {
        if (util::have_avx512()) {
          const std::size_t cnt =
              scan_link_lanes(lane, ar, deg, e, du, ws.scan_ids_.data(),
                              ws.scan_cand_.data());
          for (std::size_t j = 0; j < cnt; ++j) {
            const NodeId v = ws.scan_ids_[j];
            const Cost cand = ws.scan_cand_[j];
            NodeLane& lv = lane[v];
            const Cost dv = lv.stamp >= e ? lv.dist : kInfCost;
            if (cand < dv) {
              lv.dist = cand;
              lv.parent = u;
              lv.stamp = e;
              heap.push_or_decrease(v, cand);
            }
          }
          continue;
        }
      }
#endif
      for (std::size_t i = 0; i < deg; ++i) {
        if (pf && i + kPrefetchDist < deg) {
          prefetch(&lane[ar[i + kPrefetchDist].to]);
        }
        const NodeId v = ar[i].to;
        NodeLane& lv = lane[v];
        const std::uint32_t s = lv.stamp;
        if (s == e + 1) continue;
        if constexpr (kMasked) {
          if (!mask.allowed(v)) continue;
        }
        if (!graph::finite_cost(ar[i].cost)) continue;
        const Cost cand = du + ar[i].cost;
        const Cost dv = s == e ? lv.dist : kInfCost;
        if (cand < dv) {
          lv.dist = cand;
          lv.parent = u;
          lv.stamp = e;
          heap.push_or_decrease(v, cand);
        }
      }
    }
    ws.complete_ = true;
  }

  // Row variants: dist/parent live in caller rows prefilled to the
  // allocating API's initial state, so the relax condition reads
  // `through < dist[v]` verbatim — parent witnesses match the allocating
  // kernels bit for bit. Workspace lanes carry only the settled stamp.
  template <bool kMasked, typename Heap>
  static void run_node_row(DijkstraWorkspace& ws, Heap& heap,
                           const graph::NodeGraph& g, NodeId source,
                           [[maybe_unused]] const graph::NodeMask& mask,
                           Cost* const dist, NodeId* const parent) {
    const std::uint32_t e = ws.epoch_;
    NodeLane* const lane = ws.lane_.data();
    const std::size_t n = ws.n_;
    const bool pf = n >= kPrefetchMinNodes;
    std::fill(dist, dist + n, kInfCost);
    std::fill(parent, parent + n, kInvalidNode);
    heap.reset(n);
    dist[source] = 0.0;
    heap.push_or_decrease(source, 0.0);
    while (!heap.empty()) {
      const auto [du, u] = heap.pop_min();
      if (lane[u].stamp == e + 1) continue;
      lane[u].stamp = e + 1;
      const Cost through = du + (u == source ? 0.0 : g.node_cost(u));
      const auto nbrs = g.neighbors(u);
      const NodeId* const nb = nbrs.data();
      const std::size_t deg = nbrs.size();
#if TC_AVX512_TARGET
      if constexpr (!kMasked) {
        if (util::have_avx512()) {
          // One gather suffices: the prefilled row already reads kInfCost
          // for untouched targets and a final (never improvable) distance
          // for settled ones.
          const std::size_t cnt =
              scan_node_row(dist, nb, deg, through, ws.scan_ids_.data());
          for (std::size_t j = 0; j < cnt; ++j) {
            const NodeId v = ws.scan_ids_[j];
            if (through < dist[v]) {
              dist[v] = through;
              parent[v] = u;
              heap.push_or_decrease(v, through);
            }
          }
          continue;
        }
      }
#endif
      for (std::size_t i = 0; i < deg; ++i) {
        if (pf && i + kPrefetchDist < deg) {
          const NodeId w = nb[i + kPrefetchDist];
          prefetch(&lane[w]);
          prefetch(&dist[w]);
        }
        const NodeId v = nb[i];
        if (lane[v].stamp == e + 1) continue;
        if constexpr (kMasked) {
          if (!mask.allowed(v)) continue;
        }
        if (through < dist[v]) {
          dist[v] = through;
          parent[v] = u;
          heap.push_or_decrease(v, through);
        }
      }
    }
  }

  template <bool kMasked, typename Heap>
  static void run_link_row(DijkstraWorkspace& ws, Heap& heap,
                           const graph::LinkGraph& g, NodeId source,
                           [[maybe_unused]] const graph::NodeMask& mask,
                           Cost* const dist, NodeId* const parent) {
    const std::uint32_t e = ws.epoch_;
    NodeLane* const lane = ws.lane_.data();
    const std::size_t n = ws.n_;
    const bool pf = n >= kPrefetchMinNodes;
    std::fill(dist, dist + n, kInfCost);
    std::fill(parent, parent + n, kInvalidNode);
    heap.reset(n);
    dist[source] = 0.0;
    heap.push_or_decrease(source, 0.0);
    while (!heap.empty()) {
      const auto [du, u] = heap.pop_min();
      if (lane[u].stamp == e + 1) continue;
      lane[u].stamp = e + 1;
      const auto arcs = g.out_arcs(u);
      const graph::Arc* const ar = arcs.data();
      const std::size_t deg = arcs.size();
#if TC_AVX512_TARGET
      if constexpr (!kMasked) {
        if (util::have_avx512()) {
          const std::size_t cnt =
              scan_link_row(dist, ar, deg, du, ws.scan_ids_.data(),
                            ws.scan_cand_.data());
          for (std::size_t j = 0; j < cnt; ++j) {
            const NodeId v = ws.scan_ids_[j];
            const Cost cand = ws.scan_cand_[j];
            if (cand < dist[v]) {
              dist[v] = cand;
              parent[v] = u;
              heap.push_or_decrease(v, cand);
            }
          }
          continue;
        }
      }
#endif
      for (std::size_t i = 0; i < deg; ++i) {
        if (pf && i + kPrefetchDist < deg) {
          const NodeId w = ar[i + kPrefetchDist].to;
          prefetch(&lane[w]);
          prefetch(&dist[w]);
        }
        const NodeId v = ar[i].to;
        if (lane[v].stamp == e + 1) continue;
        if constexpr (kMasked) {
          if (!mask.allowed(v)) continue;
        }
        if (!graph::finite_cost(ar[i].cost)) continue;
        const Cost cand = du + ar[i].cost;
        if (cand < dist[v]) {
          dist[v] = cand;
          parent[v] = u;
          heap.push_or_decrease(v, cand);
        }
      }
    }
  }

  template <typename Heap>
  static void node_with(DijkstraWorkspace& ws, Heap& heap,
                        const graph::NodeGraph& g, NodeId source,
                        const graph::NodeMask& mask, NodeId stop_at) {
    if (mask.empty()) {
      run_node<false>(ws, heap, g, source, mask, stop_at);
    } else {
      run_node<true>(ws, heap, g, source, mask, stop_at);
    }
  }

  template <typename Heap>
  static void link_with(DijkstraWorkspace& ws, Heap& heap,
                        const graph::LinkGraph& g, NodeId source,
                        const graph::NodeMask& mask, NodeId stop_at) {
    if (mask.empty()) {
      run_link<false>(ws, heap, g, source, mask, stop_at);
    } else {
      run_link<true>(ws, heap, g, source, mask, stop_at);
    }
  }

  template <typename Heap>
  static void node_row_with(DijkstraWorkspace& ws, Heap& heap,
                            const graph::NodeGraph& g, NodeId source,
                            const graph::NodeMask& mask, Cost* dist,
                            NodeId* parent) {
    if (mask.empty()) {
      run_node_row<false>(ws, heap, g, source, mask, dist, parent);
    } else {
      run_node_row<true>(ws, heap, g, source, mask, dist, parent);
    }
  }

  template <typename Heap>
  static void link_row_with(DijkstraWorkspace& ws, Heap& heap,
                            const graph::LinkGraph& g, NodeId source,
                            const graph::NodeMask& mask, Cost* dist,
                            NodeId* parent) {
    if (mask.empty()) {
      run_link_row<false>(ws, heap, g, source, mask, dist, parent);
    } else {
      run_link_row<true>(ws, heap, g, source, mask, dist, parent);
    }
  }

  static void dispatch_node(DijkstraWorkspace& ws, const graph::NodeGraph& g,
                            NodeId source, const graph::NodeMask& mask,
                            NodeId stop_at, HeapKind heap) {
    ws.begin(g.num_nodes(), source);
    switch (heap) {
      case HeapKind::kBinary:
        node_with(ws, ws.bheap_, g, source, mask, stop_at);
        break;
      case HeapKind::kQuad:
        node_with(ws, ws.qheap_, g, source, mask, stop_at);
        break;
      case HeapKind::kPairing:
        node_with(ws, ws.pheap_, g, source, mask, stop_at);
        break;
      case HeapKind::kBucket:
        ws.buq_.set_cost_bound(node_cost_bound(g));
        node_with(ws, ws.buq_, g, source, mask, stop_at);
        break;
    }
  }

  static void dispatch_link(DijkstraWorkspace& ws, const graph::LinkGraph& g,
                            NodeId source, const graph::NodeMask& mask,
                            NodeId stop_at, HeapKind heap) {
    ws.begin(g.num_nodes(), source);
    switch (heap) {
      case HeapKind::kBinary:
        link_with(ws, ws.bheap_, g, source, mask, stop_at);
        break;
      case HeapKind::kQuad:
        link_with(ws, ws.qheap_, g, source, mask, stop_at);
        break;
      case HeapKind::kPairing:
        link_with(ws, ws.pheap_, g, source, mask, stop_at);
        break;
      case HeapKind::kBucket:
        ws.buq_.set_cost_bound(link_cost_bound(g));
        link_with(ws, ws.buq_, g, source, mask, stop_at);
        break;
    }
  }

  static void dispatch_node_row(DijkstraWorkspace& ws,
                                const graph::NodeGraph& g, NodeId source,
                                const graph::NodeMask& mask, Cost* dist,
                                NodeId* parent, HeapKind heap) {
    ws.begin(g.num_nodes(), source);
    switch (heap) {
      case HeapKind::kBinary:
        node_row_with(ws, ws.bheap_, g, source, mask, dist, parent);
        break;
      case HeapKind::kQuad:
        node_row_with(ws, ws.qheap_, g, source, mask, dist, parent);
        break;
      case HeapKind::kPairing:
        node_row_with(ws, ws.pheap_, g, source, mask, dist, parent);
        break;
      case HeapKind::kBucket:
        ws.buq_.set_cost_bound(node_cost_bound(g));
        node_row_with(ws, ws.buq_, g, source, mask, dist, parent);
        break;
    }
  }

  static void dispatch_link_row(DijkstraWorkspace& ws,
                                const graph::LinkGraph& g, NodeId source,
                                const graph::NodeMask& mask, Cost* dist,
                                NodeId* parent, HeapKind heap) {
    ws.begin(g.num_nodes(), source);
    switch (heap) {
      case HeapKind::kBinary:
        link_row_with(ws, ws.bheap_, g, source, mask, dist, parent);
        break;
      case HeapKind::kQuad:
        link_row_with(ws, ws.qheap_, g, source, mask, dist, parent);
        break;
      case HeapKind::kPairing:
        link_row_with(ws, ws.pheap_, g, source, mask, dist, parent);
        break;
      case HeapKind::kBucket:
        ws.buq_.set_cost_bound(link_cost_bound(g));
        link_row_with(ws, ws.buq_, g, source, mask, dist, parent);
        break;
    }
  }
};

void dijkstra_node_into(DijkstraWorkspace& ws, const graph::NodeGraph& g,
                        NodeId source, const graph::NodeMask& mask,
                        NodeId stop_at, HeapKind heap) {
  TC_CHECK_MSG(source < g.num_nodes(), "dijkstra source out of range");
  TC_CHECK_MSG(mask.allowed(source), "dijkstra source is masked out");
  WorkspaceKernels::dispatch_node(ws, g, source, mask, stop_at, heap);
}

void dijkstra_link_into(DijkstraWorkspace& ws, const graph::LinkGraph& g,
                        NodeId source, const graph::NodeMask& mask,
                        NodeId stop_at, HeapKind heap) {
  TC_CHECK_MSG(source < g.num_nodes(), "dijkstra source out of range");
  TC_CHECK_MSG(mask.allowed(source), "dijkstra source is masked out");
  WorkspaceKernels::dispatch_link(ws, g, source, mask, stop_at, heap);
}

void dijkstra_link_to_target_into(DijkstraWorkspace& ws,
                                  const graph::LinkGraph& g, NodeId target,
                                  const graph::NodeMask& mask, NodeId stop_at,
                                  HeapKind heap) {
  dijkstra_link_into(ws, g.reverse(), target, mask, stop_at, heap);
}

void dijkstra_node_row_into(DijkstraWorkspace& ws, const graph::NodeGraph& g,
                            NodeId source, std::span<Cost> dist,
                            std::span<NodeId> parent,
                            const graph::NodeMask& mask, HeapKind heap) {
  TC_CHECK_MSG(source < g.num_nodes(), "dijkstra source out of range");
  TC_CHECK_MSG(mask.allowed(source), "dijkstra source is masked out");
  TC_CHECK_MSG(dist.size() == g.num_nodes() && parent.size() == g.num_nodes(),
               "row spans must cover num_nodes");
  WorkspaceKernels::dispatch_node_row(ws, g, source, mask, dist.data(),
                                      parent.data(), heap);
}

void dijkstra_link_row_into(DijkstraWorkspace& ws, const graph::LinkGraph& g,
                            NodeId source, std::span<Cost> dist,
                            std::span<NodeId> parent,
                            const graph::NodeMask& mask, HeapKind heap) {
  TC_CHECK_MSG(source < g.num_nodes(), "dijkstra source out of range");
  TC_CHECK_MSG(mask.allowed(source), "dijkstra source is masked out");
  TC_CHECK_MSG(dist.size() == g.num_nodes() && parent.size() == g.num_nodes(),
               "row spans must cover num_nodes");
  WorkspaceKernels::dispatch_link_row(ws, g, source, mask, dist.data(),
                                      parent.data(), heap);
}

void SptChildren::build(const SptResult& base) {
  const std::size_t n = base.parent.size();
  offsets_.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (base.parent[v] != kInvalidNode) ++offsets_[base.parent[v] + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) offsets_[i] += offsets_[i - 1];
  child_.resize(offsets_[n]);
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (NodeId v = 0; v < n; ++v) {
    if (base.parent[v] != kInvalidNode) child_[cursor[base.parent[v]]++] = v;
  }
}

void MaskedSptDelta::eval(std::span<const NodeId> removed) {
  DijkstraWorkspace& ws = *ws_;
  const std::size_t n = base_->dist.size();
  ws.begin(n, base_->source);
  const std::uint32_t e = ws.epoch_;
  ws.removed_list_.clear();
  for (NodeId r : removed) {
    TC_DCHECK(r < n);
    TC_DCHECK(r != base_->source);
    if (ws.removed_[r] == e) continue;  // duplicate in the removal list
    ws.removed_[r] = e;
    ws.removed_list_.push_back(r);
  }
  // Members: the removed nodes' tree descendants (a node pushed twice
  // under nested removals is deduplicated by its member stamp; subtrees
  // of removed descendants are cut at the removed node, whose own
  // children were seeded above).
  ws.member_list_.clear();
  ws.stack_.clear();
  for (NodeId r : ws.removed_list_) {
    for (NodeId c : children_->of(r)) {
      if (ws.removed_[c] != e) ws.stack_.push_back(c);
    }
  }
  while (!ws.stack_.empty()) {
    const NodeId v = ws.stack_.back();
    ws.stack_.pop_back();
    if (ws.member_[v] == e) continue;
    ws.member_[v] = e;
    ws.member_list_.push_back(v);
    for (NodeId c : children_->of(v)) {
      if (ws.removed_[c] != e) ws.stack_.push_back(c);
    }
  }
  seed_and_relax_members();
}

void MaskedSptDelta::seed_and_relax_members() {
  DijkstraWorkspace& ws = *ws_;
  const std::uint32_t e = ws.epoch_;
  NodeLane* const lane = ws.lane_.data();
  const NodeId src = base_->source;
  BinaryHeap& heap = ws.bheap_;
  heap.reset(ws.n_);
  if (node_g_ != nullptr) {
    const graph::NodeGraph& g = *node_g_;
    // Seed each member from its unaffected neighbors, whose masked
    // distances provably equal their base distances bit for bit.
    for (NodeId w : ws.member_list_) {
      for (NodeId u : g.neighbors(w)) {
        if (ws.removed_[u] == e || ws.member_[u] == e) continue;
        const Cost du = base_->dist[u];
        if (!graph::finite_cost(du)) continue;
        const Cost through = du + (u == src ? 0.0 : g.node_cost(u));
        NodeLane& lw = lane[w];
        const Cost dw = lw.stamp >= e ? lw.dist : kInfCost;
        if (through < dw) {
          lw.dist = through;
          lw.parent = u;
          lw.stamp = e;
          heap.push_or_decrease(w, through);
        }
      }
    }
    while (!heap.empty()) {
      const auto [du, u] = heap.pop_min();
      if (lane[u].stamp == e + 1) continue;
      lane[u].stamp = e + 1;
      const Cost through = du + g.node_cost(u);  // a member is never src
      for (NodeId v : g.neighbors(u)) {
        NodeLane& lv = lane[v];
        if (ws.member_[v] != e || lv.stamp == e + 1) continue;
        const Cost dv = lv.stamp >= e ? lv.dist : kInfCost;
        if (through < dv) {
          lv.dist = through;
          lv.parent = u;
          lv.stamp = e;
          heap.push_or_decrease(v, through);
        }
      }
    }
  } else {
    const graph::LinkGraph& run = *run_g_;
    const graph::LinkGraph& in = *in_g_;
    for (NodeId w : ws.member_list_) {
      // in.out_arcs(w) enumerates w's in-arcs in `run`: arc {u, c} here
      // is the run-graph arc u -> w with cost c.
      for (const graph::Arc& a : in.out_arcs(w)) {
        const NodeId u = a.to;
        if (ws.removed_[u] == e || ws.member_[u] == e) continue;
        const Cost du = base_->dist[u];
        if (!graph::finite_cost(du) || !graph::finite_cost(a.cost)) continue;
        const Cost cand = du + a.cost;
        NodeLane& lw = lane[w];
        const Cost dw = lw.stamp >= e ? lw.dist : kInfCost;
        if (cand < dw) {
          lw.dist = cand;
          lw.parent = u;
          lw.stamp = e;
          heap.push_or_decrease(w, cand);
        }
      }
    }
    while (!heap.empty()) {
      const auto [du, u] = heap.pop_min();
      if (lane[u].stamp == e + 1) continue;
      lane[u].stamp = e + 1;
      for (const graph::Arc& a : run.out_arcs(u)) {
        NodeLane& lv = lane[a.to];
        if (ws.member_[a.to] != e || lv.stamp == e + 1) continue;
        if (!graph::finite_cost(a.cost)) continue;
        const Cost cand = du + a.cost;
        const Cost dv = lv.stamp >= e ? lv.dist : kInfCost;
        if (cand < dv) {
          lv.dist = cand;
          lv.parent = u;
          lv.stamp = e;
          heap.push_or_decrease(a.to, cand);
        }
      }
    }
  }
}

void MaskedSptDelta::dist_into(std::vector<Cost>& out) const {
  out.resize(base_->dist.size());
  dist_into(std::span<Cost>(out));
}

void MaskedSptDelta::dist_into(std::span<Cost> out) const {
  const DijkstraWorkspace& ws = *ws_;
  const std::uint32_t e = ws.epoch_;
  TC_DCHECK(out.size() == base_->dist.size());
  std::copy(base_->dist.begin(), base_->dist.end(), out.begin());
  for (NodeId r : ws.removed_list_) out[r] = kInfCost;
  for (NodeId w : ws.member_list_) {
    out[w] = ws.lane_[w].stamp >= e ? ws.lane_[w].dist : kInfCost;
  }
}

}  // namespace tc::spath
