// Bit-identity suite for Algorithm 1: the live engine (the allocation-free
// fast_payments_into core and the three vcg_payments_fast wrappers) must
// reproduce the frozen reference (tests/reference/fast_payment_reference.hpp)
// memcmp-exactly — same path, same path_cost bits, same payment bits — on
// every instance, and the SPTs it hands back through the out-pointers must
// equal dijkstra_node's dist and parent arrays. The families below stress
// what could break bit-identity: exact ties (integer costs), zero and
// infinite costs, extreme magnitudes where association order changes the
// rounding, regular topologies, the paper's worked examples, and sparse and
// dense unit-disk graphs up to the perfbench price-scale size.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/fast_payment.hpp"
#include "fast_payment_reference.hpp"
#include "graph/generators.hpp"
#include "spath/dijkstra.hpp"
#include "util/rng.hpp"

namespace tc::core {
namespace {

using graph::Cost;
using graph::kInfCost;
using graph::NodeGraph;
using graph::NodeId;

// Instances per family; the suite covers at least 10k in total.
constexpr std::size_t kErdosRenyi = 3000;
constexpr std::size_t kIntegerTies = 3000;
constexpr std::size_t kZeroAndInf = 2000;
constexpr std::size_t kScaled = 1800;  // x1e-9, x1e9 and mixed, 600 each
constexpr std::size_t kUdgSparse = 480;
constexpr std::size_t kUdgDense = 240;
constexpr std::size_t kRandom = kErdosRenyi + kIntegerTies + kZeroAndInf;
static_assert(kRandom + kScaled + kUdgSparse + kUdgDense >= 10000,
              "the bit-identity suite must cover at least 10k instances");

bool same_bits(Cost a, Cost b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bits(const std::vector<Cost>& a, const std::vector<Cost>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Cost)) == 0;
}

void expect_identical(const PaymentResult& want, const PaymentResult& got,
                      const std::string& what) {
  EXPECT_EQ(want.path, got.path) << what;
  EXPECT_TRUE(same_bits(want.path_cost, got.path_cost))
      << what << ": path_cost " << want.path_cost << " vs " << got.path_cost;
  EXPECT_TRUE(same_bits(want.payments, got.payments)) << what << ": payments";
  EXPECT_EQ(got.profile_version, 0u) << what;
}

void expect_same_tree(const spath::SptResult& want,
                      const spath::SptResult& got, const std::string& what) {
  EXPECT_EQ(want.source, got.source) << what;
  EXPECT_TRUE(same_bits(want.dist, got.dist)) << what << ": dist";
  EXPECT_EQ(want.parent, got.parent) << what << ": parent";
}

/// Runs every entry point on one instance against the frozen reference.
/// One scratch and one result object are reused across all instances of
/// a test, so grow-only reuse across graph sizes is exercised too.
class Differ {
 public:
  void check(const NodeGraph& g, NodeId s, NodeId t, const std::string& ctx) {
    ++instances_;
    const PaymentResult want = reference::vcg_payments_fast(g, s, t);
    const spath::SptResult tree_s = spath::dijkstra_node(g, s);
    const spath::SptResult tree_t = spath::dijkstra_node(g, t);

    expect_identical(want, vcg_payments_fast(g, s, t), ctx + " [plain]");

    spath::SptResult out_s;
    spath::SptResult out_t;
    out_t.source = kUntouched;
    expect_identical(want, vcg_payments_fast(g, s, t, &out_s, &out_t),
                     ctx + " [out-pointers]");
    expect_same_tree(tree_s, out_s, ctx + " [SPT(s) out]");
    if (want.connected()) {
      expect_same_tree(tree_t, out_t, ctx + " [SPT(t) out]");
    } else {
      EXPECT_EQ(out_t.source, kUntouched) << ctx << ": SPT(t) written";
    }

    expect_identical(want, vcg_payments_fast(g, s, t, tree_s, tree_t),
                     ctx + " [given SPTs]");

    fast_payments_into(scratch_, g, s, t, nullptr, nullptr, reused_);
    expect_identical(want, reused_, ctx + " [core, reused]");
    expect_same_tree(tree_s, scratch_.source_tree(), ctx + " [core SPT(s)]");
    fast_payments_into(scratch_, g, s, t, &tree_s, &tree_t, reused_);
    expect_identical(want, reused_, ctx + " [core, given SPTs]");

    const LevelLabels old_levels = reference::compute_levels(g, s, t);
    const LevelLabels levels = compute_levels(g, s, t);
    EXPECT_EQ(old_levels.path, levels.path) << ctx << " [levels]";
    EXPECT_EQ(old_levels.levels, levels.levels) << ctx << " [levels]";
  }

  /// `count` instances of random (s, t) pairs, `per_graph` pairs per graph
  /// drawn from `make(rng)`; stops at the first failing instance.
  template <typename Make>
  void run(const char* family, std::size_t count, std::size_t per_graph,
           std::uint64_t seed, Make make) {
    util::Rng rng(seed);
    std::size_t done = 0;
    for (std::size_t graph_no = 0; done < count; ++graph_no) {
      const NodeGraph g = make(rng);
      const std::size_t n = g.num_nodes();
      for (std::size_t k = 0; k < per_graph && done < count; ++k, ++done) {
        const auto s = static_cast<NodeId>(rng.next_below(n));
        auto t = static_cast<NodeId>(rng.next_below(n - 1));
        if (t >= s) ++t;
        check(g, s, t,
              std::string(family) + " graph " + std::to_string(graph_no) +
                  " n=" + std::to_string(n) + " s=" + std::to_string(s) +
                  " t=" + std::to_string(t));
        if (::testing::Test::HasFailure()) return;
      }
    }
  }

  /// Every ordered (s, t) pair of a small graph.
  void all_pairs(const NodeGraph& g, const std::string& name) {
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      for (NodeId t = 0; t < g.num_nodes(); ++t) {
        if (s == t) continue;
        check(g, s, t,
              name + " s=" + std::to_string(s) + " t=" + std::to_string(t));
        if (::testing::Test::HasFailure()) return;
      }
    }
  }

  std::size_t instances() const { return instances_; }

 private:
  static constexpr NodeId kUntouched = 0xabcdefu;
  PaymentScratch scratch_;
  PaymentResult reused_;
  std::size_t instances_ = 0;
};

NodeGraph random_er(util::Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 40));
  const double p = rng.uniform(0.05, 0.5);
  return graph::make_erdos_renyi(n, p, 0.5, 5.0, rng.next_u64());
}

/// Rewrites every node cost with `cost(rng)`.
template <typename CostFn>
NodeGraph recost(NodeGraph g, util::Rng& rng, CostFn cost) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) g.set_node_cost(v, cost(rng));
  return g;
}

NodeGraph udg(util::Rng& rng, std::size_t n_lo, std::size_t n_hi,
              double range_m) {
  graph::UdgParams params;
  params.n = static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(n_lo), static_cast<std::int64_t>(n_hi)));
  params.range_m = range_m;
  return graph::make_unit_disk_node(params, 1.0, 10.0, rng.next_u64());
}

TEST(FastPaymentBits, ErdosRenyi) {
  Differ d;
  d.run("er", kErdosRenyi, 4, 0xb1750001, random_er);
  EXPECT_EQ(d.instances(), kErdosRenyi);
}

TEST(FastPaymentBits, IntegerCostTies) {
  Differ d;
  d.run("er-int", kIntegerTies, 4, 0xb1750002, [](util::Rng& rng) {
    return recost(random_er(rng), rng, [](util::Rng& r) {
      return static_cast<Cost>(r.uniform_int(1, 3));
    });
  });
  EXPECT_EQ(d.instances(), kIntegerTies);
}

TEST(FastPaymentBits, ZeroAndInfiniteCosts) {
  Differ d;
  d.run("er-zero-inf", kZeroAndInf, 4, 0xb1750003, [](util::Rng& rng) {
    return recost(random_er(rng), rng, [](util::Rng& r) -> Cost {
      const double u = r.next_double();
      if (u < 0.2) return 0.0;
      if (u < 0.3) return kInfCost;
      return r.uniform(0.5, 5.0);
    });
  });
  EXPECT_EQ(d.instances(), kZeroAndInf);
}

TEST(FastPaymentBits, ExtremeMagnitudes) {
  Differ d;
  const auto scaled = [](double factor) {
    return [factor](util::Rng& rng) {
      return recost(random_er(rng), rng, [factor](util::Rng& r) {
        return r.uniform(0.5, 5.0) * factor;
      });
    };
  };
  d.run("er-x1e-9", kScaled / 3, 4, 0xb1750004, scaled(1e-9));
  d.run("er-x1e9", kScaled / 3, 4, 0xb1750005, scaled(1e9));
  // Adding a tiny cost to a huge sum rounds: association order matters.
  d.run("er-mixed", kScaled / 3, 4, 0xb1750006, [](util::Rng& rng) {
    return recost(random_er(rng), rng, [](util::Rng& r) {
      return r.uniform(0.5, 5.0) * (r.bernoulli(0.5) ? 1e9 : 1e-9);
    });
  });
  EXPECT_EQ(d.instances(), kScaled);
}

TEST(FastPaymentBits, RegularTopologies) {
  Differ d;
  util::Rng rng(0xb1750007);
  const auto random_costs = [&rng](NodeGraph g) {
    return recost(std::move(g), rng,
                  [](util::Rng& r) { return r.uniform(0.5, 5.0); });
  };
  for (std::size_t rows = 1; rows <= 5; ++rows) {
    for (std::size_t cols = 2; cols <= 5; ++cols) {
      const std::string name =
          "grid " + std::to_string(rows) + "x" + std::to_string(cols);
      d.all_pairs(graph::make_grid(rows, cols), name);
      d.all_pairs(random_costs(graph::make_grid(rows, cols)), name + " rand");
    }
  }
  for (std::size_t n = 3; n <= 12; ++n) {
    d.all_pairs(graph::make_ring(n), "ring " + std::to_string(n));
    d.all_pairs(random_costs(graph::make_ring(n)),
                "ring rand " + std::to_string(n));
  }
  for (std::size_t n = 2; n <= 12; ++n) {
    d.all_pairs(graph::make_path(n), "path " + std::to_string(n));
    d.all_pairs(graph::make_complete(n), "complete " + std::to_string(n));
    d.all_pairs(random_costs(graph::make_complete(n)),
                "complete rand " + std::to_string(n));
  }
  // Long paths and rings: many levels, q up to n - 1.
  d.check(graph::make_path(300), 0, 299, "path 300");
  d.check(graph::make_ring(301), 0, 150, "ring 301");
  d.check(graph::make_grid(12, 12), 0, 143, "grid 12x12");
  EXPECT_GT(d.instances(), 3000u);
}

TEST(FastPaymentBits, PaperFigures) {
  Differ d;
  d.all_pairs(graph::make_fig2_graph(), "fig2");
  d.all_pairs(graph::make_fig4_graph(), "fig4");
  EXPECT_GT(d.instances(), 50u);
}

TEST(FastPaymentBits, UnitDiskSparse) {
  Differ d;
  d.run("udg-sparse", kUdgSparse, 8, 0xb1750008,
        [](util::Rng& rng) { return udg(rng, 40, 160, 300.0); });
  EXPECT_EQ(d.instances(), kUdgSparse);
}

TEST(FastPaymentBits, UnitDiskDense) {
  Differ d;
  d.run("udg-dense", kUdgDense, 8, 0xb1750009,
        [](util::Rng& rng) { return udg(rng, 96, 320, 700.0); });
  // The perfbench price-scale shape: n = 1024, mean degree about 70.
  d.run("udg-1024", 16, 8, 0xb175000a,
        [](util::Rng& rng) { return udg(rng, 1024, 1024, 300.0); });
  EXPECT_EQ(d.instances(), kUdgDense + 16);
}

}  // namespace
}  // namespace tc::core
