// Algorithm 1's two node-cost arc loops (core/fast_payment_scan.hpp) come
// as a scalar body and an AVX-512 body. The pricing kernel runs only one
// of them per CPU, so on an AVX-512 host the bits suites never reach the
// scalar twin. This suite drives both on the same seeded inputs:
//
//  * the scalar bodies against the sequential loops they came from: the
//    fused scan's lo, seed and range-min tree, and the relaxation's heap
//    operations (prefilter plus live re-check vs the one-pass loop);
//  * the AVX-512 bodies against the scalar ones, memcmp on lo, seed, the
//    tree and the candidate sequence (skipped on CPUs without AVX-512).
//
// The inputs cover what the vector code must mask right: degrees 0-70
// (block tails), repeated neighbours, off-tree (kInvalidLevel) lanes,
// same-level lanes, crossing lanes, and kInfCost, zero and tied values.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "core/fast_payment.hpp"
#include "core/fast_payment_scan.hpp"
#include "util/cpu_features.hpp"
#include "util/rng.hpp"

namespace tc::core::internal {
namespace {

using graph::Cost;
using graph::kInfCost;
using graph::NodeId;

constexpr std::uint32_t kInvalidLevel = LevelLabels::kInvalidLevel;
constexpr std::uint64_t kInstances = 20000;

bool same_bits(Cost a, Cost b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bits(const std::vector<Cost>& a, const std::vector<Cost>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Cost)) == 0;
}

/// Zero, infinite, small-integer (ties) or uniform; never NaN or -0.0.
Cost draw_cost(util::Rng& rng) {
  switch (rng.next_below(6)) {
    case 0:
      return 0.0;
    case 1:
      return kInfCost;
    case 2:
      return static_cast<Cost>(rng.uniform_int(1, 4));
    default:
      return rng.uniform(0.5, 20.0);
  }
}

/// One scanned node and everything its two loops read.
struct Instance {
  std::vector<std::uint32_t> level;
  std::vector<Cost> pair, cost, dist_t, r_minus, cross;
  std::vector<NodeId> hops;
  NodeId v = 0, source = 0, target = 0, r_l = 0;
  std::uint32_t lv = 0;
  std::size_t width = 1;
  Cost through = 0.0;

  NodeScanInput input() const {
    return {level.data(), pair.data(), cost.data(), dist_t.data(), source,
            target};
  }
};

Instance make_instance(std::uint64_t seed) {
  util::Rng rng(seed);
  Instance in;
  const std::size_t n = 8 + rng.next_below(120);
  const auto q = static_cast<std::uint32_t>(2 + rng.next_below(12));
  in.level.resize(n);
  for (auto& l : in.level) {
    l = rng.bernoulli(0.1) ? kInvalidLevel
                           : static_cast<std::uint32_t>(rng.next_below(q + 1));
  }
  in.pair.resize(2 * n);
  for (Cost& c : in.pair) c = draw_cost(rng);
  in.cost.resize(n);
  for (Cost& c : in.cost) c = draw_cost(rng);
  in.dist_t.resize(n);
  for (Cost& c : in.dist_t) c = draw_cost(rng);
  in.r_minus.resize(n);
  for (Cost& c : in.r_minus) c = draw_cost(rng);
  in.source = static_cast<NodeId>(rng.next_below(n));
  in.target = static_cast<NodeId>(rng.next_below(n));
  in.v = static_cast<NodeId>(rng.next_below(n));
  in.lv = static_cast<std::uint32_t>(rng.next_below(q + 1));
  in.level[in.v] = in.lv;
  in.r_l = static_cast<NodeId>(rng.next_below(n));
  in.through = rng.bernoulli(0.2) ? static_cast<Cost>(rng.uniform_int(0, 4))
                                  : rng.uniform(0.0, 20.0);
  const std::size_t deg = rng.next_below(71);
  for (std::size_t i = 0; i < deg; ++i) {
    const bool repeat = !in.hops.empty() && rng.bernoulli(0.25);
    in.hops.push_back(repeat ? in.hops[rng.next_below(in.hops.size())]
                             : static_cast<NodeId>(rng.next_below(n)));
  }
  in.width = std::bit_ceil(std::size_t{q});
  in.cross.resize(2 * in.width);
  for (Cost& c : in.cross) {
    c = rng.bernoulli(0.5) ? kInfCost : rng.uniform(0.0, 100.0);
  }
  return in;
}

/// The fused scan's inner loop as the kernel ran it before it had an
/// AVX-512 body.
ScanMins sequential_scan(const NodeScanInput& in, NodeId v, std::uint32_t lv,
                         std::span<const NodeId> hops, Cost* cross,
                         std::size_t width) {
  Cost seed = kInfCost;
  Cost lo = kInfCost;
  for (const NodeId w : hops) {
    const std::uint32_t lw = in.level[w];
    if (lw == kInvalidLevel || lw == lv) continue;
    if (lw < lv) {
      lo = std::min(lo, in.pair[2 * std::size_t{w}]);
      continue;
    }
    seed = std::min(seed, in.pair[2 * std::size_t{w} + 1]);
    if (lw < lv + 2 || !graph::finite_cost(in.dist_t[w])) continue;
    const Cost interior =
        (w == in.source || w == in.target) ? 0.0 : in.cost[w];
    stamp_levels(cross, width, lv + 1, lw,
                 in.pair[2 * std::size_t{v}] + interior + in.dist_t[w]);
  }
  return {lo, seed};
}

using Pushes = std::vector<std::pair<NodeId, Cost>>;

/// The relaxation as one sequential loop: the heap operations it issues.
Pushes sequential_relax(const Instance& in, std::vector<Cost>& r_minus) {
  Pushes pushes;
  for (const NodeId w : in.hops) {
    if (in.level[w] != in.lv || w == in.r_l) continue;
    if (in.through < r_minus[w]) {
      r_minus[w] = in.through;
      pushes.emplace_back(w, in.through);
    }
  }
  return pushes;
}

/// The kernel's relaxation: prefiltered candidates, re-checked live.
Pushes recheck(const Instance& in, const std::vector<NodeId>& ids,
               std::size_t cnt, std::vector<Cost>& r_minus) {
  Pushes pushes;
  for (std::size_t j = 0; j < cnt; ++j) {
    const NodeId w = ids[j];
    if (in.through < r_minus[w]) {
      r_minus[w] = in.through;
      pushes.emplace_back(w, in.through);
    }
  }
  return pushes;
}

bool same_pushes(const Pushes& a, const Pushes& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || !same_bits(a[i].second, b[i].second)) {
      return false;
    }
  }
  return true;
}

TEST(FastPaymentScan, ScalarMatchesSequentialLoops) {
  for (std::uint64_t seed = 1; seed <= kInstances; ++seed) {
    const Instance in = make_instance(seed);
    std::vector<Cost> want_tree = in.cross;
    std::vector<Cost> got_tree = in.cross;
    const ScanMins want = sequential_scan(in.input(), in.v, in.lv, in.hops,
                                          want_tree.data(), in.width);
    const ScanMins got = fused_scan_scalar(in.input(), in.v, in.lv, in.hops,
                                           got_tree.data(), in.width);
    ASSERT_TRUE(same_bits(want.lo, got.lo)) << "seed " << seed;
    ASSERT_TRUE(same_bits(want.seed, got.seed)) << "seed " << seed;
    ASSERT_TRUE(same_bits(want_tree, got_tree)) << "seed " << seed;

    std::vector<Cost> want_r = in.r_minus;
    std::vector<Cost> got_r = in.r_minus;
    const Pushes want_pushes = sequential_relax(in, want_r);
    std::vector<NodeId> ids(in.hops.size());
    const std::size_t cnt =
        relax_candidates_scalar(in.level.data(), in.r_minus.data(), in.hops,
                                in.lv, in.r_l, in.through, ids.data());
    ASSERT_TRUE(same_pushes(want_pushes, recheck(in, ids, cnt, got_r)))
        << "seed " << seed;
    ASSERT_TRUE(same_bits(want_r, got_r)) << "seed " << seed;
  }
}

TEST(FastPaymentScan, Avx512MatchesScalar) {
#if TC_AVX512_TARGET
  if (!util::have_avx512()) GTEST_SKIP() << "CPU has no AVX-512F";
  std::size_t crossing_instances = 0;
  for (std::uint64_t seed = 1; seed <= kInstances; ++seed) {
    const Instance in = make_instance(seed);
    std::vector<Cost> want_tree = in.cross;
    std::vector<Cost> got_tree = in.cross;
    const ScanMins want = fused_scan_scalar(in.input(), in.v, in.lv, in.hops,
                                            want_tree.data(), in.width);
    const ScanMins got = fused_scan_avx512(in.input(), in.v, in.lv, in.hops,
                                           got_tree.data(), in.width);
    ASSERT_TRUE(same_bits(want.lo, got.lo)) << "seed " << seed;
    ASSERT_TRUE(same_bits(want.seed, got.seed)) << "seed " << seed;
    ASSERT_TRUE(same_bits(want_tree, got_tree)) << "seed " << seed;
    if (want_tree != in.cross) ++crossing_instances;

    std::vector<NodeId> want_ids(in.hops.size());
    std::vector<NodeId> got_ids(in.hops.size());
    const std::size_t want_cnt = relax_candidates_scalar(
        in.level.data(), in.r_minus.data(), in.hops, in.lv, in.r_l,
        in.through, want_ids.data());
    const std::size_t got_cnt = relax_candidates_avx512(
        in.level.data(), in.r_minus.data(), in.hops, in.lv, in.r_l,
        in.through, got_ids.data());
    ASSERT_EQ(want_cnt, got_cnt) << "seed " << seed;
    ASSERT_EQ(want_ids, got_ids) << "seed " << seed;
  }
  // The crossing lanes must actually be exercised.
  EXPECT_GT(crossing_instances, kInstances / 10);
#else
  GTEST_SKIP() << "no AVX-512 code on this target";
#endif
}

}  // namespace
}  // namespace tc::core::internal
