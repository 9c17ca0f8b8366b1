#include "core/fast_payment_scan.hpp"

#include <algorithm>

#include "core/fast_payment.hpp"

#if TC_AVX512_TARGET
#include <immintrin.h>
#endif

namespace tc::core::internal {

using graph::Cost;
using graph::kInfCost;
using graph::NodeId;

namespace {

constexpr std::uint32_t kInvalidLevel = LevelLabels::kInvalidLevel;

/// Crossing edge v-w, v the lower level: L(v) + c_v + c_w + R(w), with
/// the endpoints' own costs excluded by the path-cost convention.
Cost crossing(const NodeScanInput& in, NodeId v, NodeId w) {
  const Cost interior_w =
      (w == in.source || w == in.target) ? 0.0 : in.cost[w];
  return in.pair[2 * std::size_t{v}] + interior_w + in.dist_t[w];
}

void stamp_crossing(const NodeScanInput& in, NodeId v, std::uint32_t lv,
                    NodeId w, std::uint32_t lw, Cost* cross,
                    std::size_t width) {
  if (!graph::finite_cost(in.dist_t[w])) return;
  stamp_levels(cross, width, lv + 1, lw, crossing(in, v, w));
}

}  // namespace

ScanMins fused_scan_scalar(const NodeScanInput& in, NodeId v,
                           std::uint32_t lv, std::span<const NodeId> hops,
                           Cost* cross, std::size_t width) {
  ScanMins out{kInfCost, kInfCost};
  for (const NodeId w : hops) {
    const std::uint32_t lw = in.level[w];
    if (lw == kInvalidLevel || lw == lv) continue;
    if (lw < lv) {
      out.lo = std::min(out.lo, in.pair[2 * std::size_t{w}]);
      continue;
    }
    out.seed = std::min(out.seed, in.pair[2 * std::size_t{w} + 1]);
    // Few edges skip a level; keep the stamp off the scan's hot path.
    if (lw < lv + 2) [[likely]] continue;
    stamp_crossing(in, v, lv, w, lw, cross, width);
  }
  return out;
}

std::size_t relax_candidates_scalar(const std::uint32_t* level,
                                    const Cost* r_minus,
                                    std::span<const NodeId> hops,
                                    std::uint32_t l, NodeId r_l,
                                    Cost through, NodeId* out) {
  std::size_t cnt = 0;
  for (const NodeId w : hops) {
    if (level[w] != l || w == r_l) continue;
    if (through < r_minus[w]) out[cnt++] = w;
  }
  return cnt;
}

#if TC_AVX512_TARGET

// GCC's AVX-512 intrinsic headers seed blend targets with
// _mm512_undefined_*() (also inside _mm512_reduce_min_pd), which
// -W(maybe-)uninitialized flags when the wrappers inline; silence that
// known false positive here, as spath does.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

namespace {

/// Lanes [0, min(16, rest)) of a 16-neighbour block.
__attribute__((target("avx512f"))) inline __mmask16 block_mask(
    std::size_t rest) {
  return rest >= 16 ? static_cast<__mmask16>(0xffff)
                    : static_cast<__mmask16>((1u << rest) - 1);
}

}  // namespace

// Per block of 16 neighbours: one level gather sorts the lanes into
// lower, higher (valid level only) and crossing masks; each active lane
// needs exactly one double, pair[2w + higher], so one 8-lane gather per
// half loads them all; masked mins fold them into per-lane lo and seed
// accumulators. _mm512_min_pd(x, acc) is `x < acc ? x : acc`, the scalar
// std::min(acc, x); the final lane reduction reorders only an exact,
// order-free min. Crossing lanes are rare and go to the scalar stamp in
// neighbour order.
__attribute__((target("avx512f"))) ScanMins fused_scan_avx512(
    const NodeScanInput& in, NodeId v, std::uint32_t lv,
    std::span<const NodeId> hops, Cost* cross, std::size_t width) {
  const NodeId* const nb = hops.data();
  const std::size_t deg = hops.size();
  const int* const lbase = reinterpret_cast<const int*>(in.level);
  const __m512i vlv = _mm512_set1_epi32(static_cast<int>(lv));
  const __m512i vlv2 = _mm512_set1_epi32(static_cast<int>(lv + 2));
  const __m512i vinvalid = _mm512_set1_epi32(static_cast<int>(kInvalidLevel));
  const __m512i one = _mm512_set1_epi32(1);
  const __m512d vinf = _mm512_set1_pd(kInfCost);
  __m512d lo = vinf;
  __m512d seed = vinf;
  for (std::size_t i = 0; i < deg; i += 16) {
    const __mmask16 m = block_mask(deg - i);
    const __m512i ids = _mm512_maskz_loadu_epi32(m, nb + i);
    // Lanes past the tail read as kInvalidLevel and so join no mask.
    const __m512i lw = _mm512_mask_i32gather_epi32(vinvalid, m, ids, lbase, 4);
    const __mmask16 lower = _mm512_cmp_epu32_mask(lw, vlv, _MM_CMPINT_LT);
    const __mmask16 valid = _mm512_cmp_epu32_mask(lw, vinvalid, _MM_CMPINT_NE);
    const __mmask16 higher =
        _mm512_mask_cmp_epu32_mask(valid, lw, vlv, _MM_CMPINT_NLE);
    const __mmask16 crosses =
        _mm512_mask_cmp_epu32_mask(higher, lw, vlv2, _MM_CMPINT_NLT);
    const __mmask16 active = lower | higher;
    if (active == 0) continue;
    const __m512i twice = _mm512_slli_epi32(ids, 1);
    const __m512i idx = _mm512_mask_add_epi32(twice, higher, twice, one);
    const __m512d x_lo = _mm512_mask_i32gather_pd(
        vinf, static_cast<__mmask8>(active), _mm512_castsi512_si256(idx),
        in.pair, 8);
    const __m512d x_hi = _mm512_mask_i32gather_pd(
        vinf, static_cast<__mmask8>(active >> 8),
        _mm512_extracti64x4_epi64(idx, 1), in.pair, 8);
    lo = _mm512_mask_min_pd(lo, static_cast<__mmask8>(lower), x_lo, lo);
    lo = _mm512_mask_min_pd(lo, static_cast<__mmask8>(lower >> 8), x_hi, lo);
    seed = _mm512_mask_min_pd(seed, static_cast<__mmask8>(higher), x_lo, seed);
    seed = _mm512_mask_min_pd(seed, static_cast<__mmask8>(higher >> 8), x_hi,
                              seed);
    for (unsigned c = crosses; c != 0; c &= c - 1) {
      const NodeId w = nb[i + static_cast<std::size_t>(__builtin_ctz(c))];
      stamp_crossing(in, v, lv, w, in.level[w], cross, width);
    }
  }
  return {_mm512_reduce_min_pd(lo), _mm512_reduce_min_pd(seed)};
}

// Per block of 16 neighbours: gather levels, keep the lanes of level l
// other than r_l, gather their r_minus and compress-store the ids with
// through < r_minus[w] — the spath row-scan prefilter (DESIGN.md §13.2).
__attribute__((target("avx512f"))) std::size_t relax_candidates_avx512(
    const std::uint32_t* level, const Cost* r_minus,
    std::span<const NodeId> hops, std::uint32_t l, NodeId r_l, Cost through,
    NodeId* out) {
  const NodeId* const nb = hops.data();
  const std::size_t deg = hops.size();
  const int* const lbase = reinterpret_cast<const int*>(level);
  const __m512i vl = _mm512_set1_epi32(static_cast<int>(l));
  const __m512i vr = _mm512_set1_epi32(static_cast<int>(r_l));
  const __m512d vthrough = _mm512_set1_pd(through);
  const __m512d vinf = _mm512_set1_pd(kInfCost);
  std::size_t cnt = 0;
  for (std::size_t i = 0; i < deg; i += 16) {
    const __mmask16 m = block_mask(deg - i);
    const __m512i ids = _mm512_maskz_loadu_epi32(m, nb + i);
    const __m512i lw =
        _mm512_mask_i32gather_epi32(_mm512_setzero_si512(), m, ids, lbase, 4);
    const __mmask16 same = _mm512_mask_cmp_epu32_mask(
        _mm512_mask_cmp_epu32_mask(m, lw, vl, _MM_CMPINT_EQ), ids, vr,
        _MM_CMPINT_NE);
    if (same == 0) continue;
    const __m512d r_lo = _mm512_mask_i32gather_pd(
        vinf, static_cast<__mmask8>(same), _mm512_castsi512_si256(ids),
        r_minus, 8);
    const __m512d r_hi = _mm512_mask_i32gather_pd(
        vinf, static_cast<__mmask8>(same >> 8),
        _mm512_extracti64x4_epi64(ids, 1), r_minus, 8);
    const __mmask8 imp_lo = _mm512_mask_cmp_pd_mask(
        static_cast<__mmask8>(same), vthrough, r_lo, _CMP_LT_OQ);
    const __mmask8 imp_hi = _mm512_mask_cmp_pd_mask(
        static_cast<__mmask8>(same >> 8), vthrough, r_hi, _CMP_LT_OQ);
    const __mmask16 imp = static_cast<__mmask16>(
        static_cast<unsigned>(imp_lo) | (static_cast<unsigned>(imp_hi) << 8));
    _mm512_mask_compressstoreu_epi32(out + cnt, imp, ids);
    cnt += static_cast<std::size_t>(
        __builtin_popcount(static_cast<unsigned>(imp)));
  }
  return cnt;
}

#pragma GCC diagnostic pop
#endif  // TC_AVX512_TARGET

}  // namespace tc::core::internal
