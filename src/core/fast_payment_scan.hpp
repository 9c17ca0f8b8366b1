// Algorithm 1's two arc loops for node costs (DESIGN.md §1.2.1), each as
// a scalar body and an AVX-512 body with bit-identical results:
//
//  * the fused scan: one pass over v's neighbours that yields low(v) and
//    the R^{-l}(v) seed and min-stamps every crossing edge out of v into
//    the range-min tree;
//  * the restricted Dijkstra's relaxation prefilter: the neighbours a
//    settled member may improve, in neighbour order.
//
// The pricing kernel (fast_payment.cpp) runs the AVX-512 body when
// util::have_avx512() says the CPU has it, else the scalar one. Both are
// free functions so tests/core_fast_payment_scan_test.cpp can run the two
// on the same inputs: on an AVX-512 host nothing else runs the scalar
// twin. Internal to core; not part of the public API.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "graph/types.hpp"
#include "util/cpu_features.hpp"

namespace tc::core::internal {

/// Range-min tree over path levels, leaf width + l for level l:
/// min-stamps `value` onto every level in [first, last).
inline void stamp_levels(graph::Cost* tree, std::size_t width,
                         std::size_t first, std::size_t last,
                         graph::Cost value) {
  for (std::size_t a = width + first, b = width + last; a < b;
       a >>= 1, b >>= 1) {
    if ((a & 1) != 0) {
      tree[a] = std::min(tree[a], value);
      ++a;
    }
    if ((b & 1) != 0) {
      --b;
      tree[b] = std::min(tree[b], value);
    }
  }
}

/// Per-node inputs of the fused scan. `pair` interleaves the two sums a
/// neighbour w can contribute: pair[2w] = L(w) + c_w (w at a lower level)
/// and pair[2w + 1] = c_w + R(w) (w higher), so a scan reads w's one
/// needed value at pair[2w + higher].
struct NodeScanInput {
  const std::uint32_t* level;  ///< step 2; LevelLabels::kInvalidLevel off-tree
  const graph::Cost* pair;
  const graph::Cost* cost;     ///< declared costs c
  const graph::Cost* dist_t;   ///< R
  graph::NodeId source;
  graph::NodeId target;
};

/// The fused scan's result for one node: low(v) and the R^{-l}(v) seed.
struct ScanMins {
  graph::Cost lo;
  graph::Cost seed;
};

/// Fused scan of node v at (valid) level lv over its neighbours `hops`:
///  * lo   = min over w with level(w) < lv of pair[2w];
///  * seed = min over w with lv < level(w) (valid) of pair[2w + 1];
///  * every w with level(w) >= lv + 2 and finite R(w) min-stamps
///    (L(v) + c_v + c_w + R(w)) onto levels [lv + 1, level(w)) of the
///    range-min tree `cross` of leaf offset `width`; an endpoint w costs 0.
/// Neighbours at level lv or off the tree are skipped. Bodies agree bit
/// for bit whenever no pair value is NaN or -0.0 (DESIGN.md §1.2.1).
ScanMins fused_scan_scalar(const NodeScanInput& in, graph::NodeId v,
                           std::uint32_t lv,
                           std::span<const graph::NodeId> hops,
                           graph::Cost* cross, std::size_t width);

/// Relaxation prefilter for a member of level l settled at R^{-l} = d,
/// with through = c_v + d: writes to `out`, in neighbour order, every
/// neighbour w != r_l of level l with through < r_minus[w], and returns
/// how many. Reads only. The caller re-checks each candidate against the
/// live r_minus before relaxing it, which performs exactly the sequential
/// loop's relaxations (r_minus only falls during a scan, so the prefilter
/// drops nothing the loop would take). `out` needs room for hops.size().
std::size_t relax_candidates_scalar(const std::uint32_t* level,
                                    const graph::Cost* r_minus,
                                    std::span<const graph::NodeId> hops,
                                    std::uint32_t l, graph::NodeId r_l,
                                    graph::Cost through, graph::NodeId* out);

#if TC_AVX512_TARGET
/// AVX-512 twins of the two functions above, same contracts; call only
/// when util::have_avx512(). 16 neighbours per step: one level gather,
/// masks, then 8-lane value gathers. Node ids must stay below 2^30 (the
/// gathers take signed 32-bit indices into pair's 2n doubles).
ScanMins fused_scan_avx512(const NodeScanInput& in, graph::NodeId v,
                           std::uint32_t lv,
                           std::span<const graph::NodeId> hops,
                           graph::Cost* cross, std::size_t width);
std::size_t relax_candidates_avx512(const std::uint32_t* level,
                                    const graph::Cost* r_minus,
                                    std::span<const graph::NodeId> hops,
                                    std::uint32_t l, graph::NodeId r_l,
                                    graph::Cost through, graph::NodeId* out);
#endif

}  // namespace tc::core::internal
