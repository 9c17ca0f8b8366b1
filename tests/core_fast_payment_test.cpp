// Differential tests: Algorithm 1 (fast payments) must agree exactly with
// the per-relay-Dijkstra reference on every instance.
#include "core/fast_payment.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/vcg_unicast.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "spath/dijkstra.hpp"
#include "util/rng.hpp"

namespace tc::core {
namespace {

using graph::NodeId;

void expect_same_payments(const PaymentResult& naive, const PaymentResult& fast,
                          const std::string& context) {
  ASSERT_EQ(naive.path, fast.path) << context;
  ASSERT_EQ(naive.payments.size(), fast.payments.size()) << context;
  for (std::size_t k = 0; k < naive.payments.size(); ++k) {
    const double a = naive.payments[k];
    const double b = fast.payments[k];
    if (std::isinf(a) || std::isinf(b)) {
      EXPECT_EQ(std::isinf(a), std::isinf(b)) << context << " node " << k;
    } else {
      EXPECT_NEAR(a, b, 1e-9) << context << " node " << k;
    }
  }
}

TEST(FastPayment, Fig2Exact) {
  const auto g = graph::make_fig2_graph();
  const PaymentResult r = vcg_payments_fast(g, 1, 0);
  EXPECT_DOUBLE_EQ(r.payments[2], 2.0);
  EXPECT_DOUBLE_EQ(r.payments[3], 2.0);
  EXPECT_DOUBLE_EQ(r.payments[4], 2.0);
  EXPECT_DOUBLE_EQ(r.total_payment(), 6.0);
}

TEST(FastPayment, Fig4Exact) {
  const auto g = graph::make_fig4_graph();
  const PaymentResult r = vcg_payments_fast(g, 8, 0);
  EXPECT_DOUBLE_EQ(r.total_payment(), 20.0);  // p_8 = 20 as in the paper
}

TEST(FastPayment, NoRelaysTrivial) {
  graph::NodeGraphBuilder b(3);
  b.add_edge(0, 2).add_edge(0, 1).add_edge(1, 2);
  const PaymentResult r = vcg_payments_fast(b.build(), 0, 2);
  EXPECT_EQ(r.path.size(), 2u);
  EXPECT_DOUBLE_EQ(r.total_payment(), 0.0);
}

TEST(FastPayment, DisconnectedNoOutput) {
  graph::NodeGraphBuilder b(4);
  b.add_edge(0, 1).add_edge(2, 3);
  const PaymentResult r = vcg_payments_fast(b.build(), 0, 3);
  EXPECT_FALSE(r.connected());
}

TEST(FastPayment, MonopolyIsInfinite) {
  const auto g = graph::make_path(5, 1.0);
  const PaymentResult r = vcg_payments_fast(g, 0, 4);
  for (NodeId k = 1; k <= 3; ++k) EXPECT_TRUE(std::isinf(r.payments[k]));
}

// The SPT-accepting overload checks each tree's O(1) shape in every build
// type: a tree of another graph or another root would otherwise be read
// out of bounds (or silently price the wrong route) in Release.
TEST(FastPaymentDeathTest, SptOverloadRejectsMisshapenTrees) {
  const auto g = graph::make_fig4_graph();
  const spath::SptResult from_s = spath::dijkstra_node(g, 8);
  const spath::SptResult from_t = spath::dijkstra_node(g, 0);
  EXPECT_DEATH((void)vcg_payments_fast(g, 8, 0, spath::dijkstra_node(g, 1),
                                       from_t),
               "SPT\\(s\\) does not match");
  spath::SptResult short_dist = from_s;
  short_dist.dist.pop_back();
  EXPECT_DEATH((void)vcg_payments_fast(g, 8, 0, short_dist, from_t),
               "SPT\\(s\\) does not match");
  EXPECT_DEATH((void)vcg_payments_fast(g, 8, 0, from_s,
                                       spath::dijkstra_node(g, 2)),
               "SPT\\(t\\) does not match");
  spath::SptResult short_parent = from_t;
  short_parent.parent.pop_back();
  EXPECT_DEATH((void)vcg_payments_fast(g, 8, 0, from_s, short_parent),
               "SPT\\(t\\) does not match");
  // Well-shaped trees still price.
  EXPECT_DOUBLE_EQ(vcg_payments_fast(g, 8, 0, from_s, from_t).total_payment(),
                   20.0);
}

TEST(FastPayment, DifferentialErdosRenyi) {
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const auto g = graph::make_erdos_renyi(28, 0.18, 0.2, 8.0, seed);
    util::Rng rng(seed * 3 + 1);
    for (int trial = 0; trial < 4; ++trial) {
      const auto s = static_cast<NodeId>(rng.next_below(28));
      const auto t = static_cast<NodeId>(rng.next_below(28));
      if (s == t) continue;
      const auto naive = vcg_payments_naive(g, s, t);
      const auto fast = vcg_payments_fast(g, s, t);
      expect_same_payments(naive, fast,
                           "seed " + std::to_string(seed) + " s=" +
                               std::to_string(s) + " t=" + std::to_string(t));
      ++checked;
    }
  }
  EXPECT_GT(checked, 300);
}

TEST(FastPayment, DifferentialUnitDisk) {
  graph::UdgParams params;
  params.n = 120;
  params.region = {1000.0, 1000.0};
  params.range_m = 220.0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto g = graph::make_unit_disk_node(params, 0.5, 20.0, seed);
    util::Rng rng(seed);
    for (int trial = 0; trial < 4; ++trial) {
      const auto s = static_cast<NodeId>(rng.next_below(params.n));
      const auto t = static_cast<NodeId>(rng.next_below(params.n));
      if (s == t) continue;
      expect_same_payments(vcg_payments_naive(g, s, t),
                           vcg_payments_fast(g, s, t),
                           "udg seed " + std::to_string(seed));
    }
  }
}

TEST(FastPayment, DifferentialGrid) {
  // Grids have many equal-cost ties; the engines must still agree on
  // payment values.
  const auto g = graph::make_grid(6, 7, 1.0);
  expect_same_payments(vcg_payments_naive(g, 0, 41),
                       vcg_payments_fast(g, 0, 41), "grid corner-to-corner");
  expect_same_payments(vcg_payments_naive(g, 3, 38),
                       vcg_payments_fast(g, 3, 38), "grid interior");
}

TEST(FastPayment, DifferentialRing) {
  for (std::size_t n : {4, 5, 8, 15}) {
    const auto g = graph::make_ring(n, 1.5);
    expect_same_payments(vcg_payments_naive(g, 0, static_cast<NodeId>(n / 2)),
                         vcg_payments_fast(g, 0, static_cast<NodeId>(n / 2)),
                         "ring n=" + std::to_string(n));
  }
}

TEST(FastPayment, DifferentialSparseNearTree) {
  // Very sparse graphs stress the monopoly/infinite-payment paths.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto g = graph::make_erdos_renyi(20, 0.09, 1.0, 3.0, seed);
    expect_same_payments(vcg_payments_naive(g, 1, 0),
                         vcg_payments_fast(g, 1, 0),
                         "sparse seed " + std::to_string(seed));
  }
}

TEST(FastPayment, DifferentialZeroCostNodes) {
  // Zero-cost relays create massive tie classes.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto g = graph::make_erdos_renyi(22, 0.2, 0.0, 2.0, seed);
    util::Rng rng(seed);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (rng.bernoulli(0.4)) g.set_node_cost(v, 0.0);
    }
    expect_same_payments(vcg_payments_naive(g, 2, 0),
                         vcg_payments_fast(g, 2, 0),
                         "zero-cost seed " + std::to_string(seed));
  }
}

class FastPaymentDensity : public ::testing::TestWithParam<double> {};

TEST_P(FastPaymentDensity, DifferentialAcrossDensities) {
  const double p = GetParam();
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto g = graph::make_erdos_renyi(24, p, 0.3, 6.0, seed * 31);
    expect_same_payments(
        vcg_payments_naive(g, 0, 12), vcg_payments_fast(g, 0, 12),
        "p=" + std::to_string(p) + " seed " + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, FastPaymentDensity,
                         ::testing::Values(0.1, 0.15, 0.25, 0.4, 0.7));

}  // namespace
}  // namespace tc::core
