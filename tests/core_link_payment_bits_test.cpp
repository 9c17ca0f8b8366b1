// Bit-identity suite for the link-cost engines: fast_link_payments (node
// agents) and edge_vcg_payments_fast (edge agents), both instantiations of
// Algorithm 1's fused-scan kernel, must reproduce the frozen heap-sweep
// engines (tests/reference/link_payment_reference.hpp) memcmp-exactly —
// same path, same path_cost bits, same payment bits (and for edge agents
// the same declared-cost bits) — on every instance. The families stress
// what could break bit-identity: exact ties (integer costs), extreme and
// mixed magnitudes where association order changes the rounding, bridges
// and monopoly chains (kInfCost payments), disconnected pairs, LCPs with
// fewer than two hops, and unit-disk graphs of the paper's Fig. 3 model.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/edge_vcg.hpp"
#include "core/fast_link_payment.hpp"
#include "graph/generators.hpp"
#include "link_payment_reference.hpp"
#include "util/rng.hpp"

namespace tc::core {
namespace {

using graph::Cost;
using graph::LinkGraph;
using graph::LinkGraphBuilder;
using graph::NodeId;

// Instances per family; the suite covers at least 10k in total.
constexpr std::size_t kUnitDisk = 2400;
constexpr std::size_t kRandom = 2400;
constexpr std::size_t kLifted = 1600;
constexpr std::size_t kIntegerTies = 2000;
constexpr std::size_t kMagnitudes = 900;  // x1e-9, x1e9 and mixed
constexpr std::size_t kChains = 600;
constexpr std::size_t kDisconnected = 400;
static_assert(kUnitDisk + kRandom + kLifted + kIntegerTies + kMagnitudes +
                      kChains + kDisconnected >=
                  10000,
              "the bit-identity suite must cover at least 10k instances");

bool same_bits(Cost a, Cost b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bits(const std::vector<Cost>& a, const std::vector<Cost>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Cost)) == 0;
}

/// Runs both engines on one instance against the frozen references and
/// tallies the shapes the families are meant to reach.
class Differ {
 public:
  void check(const LinkGraph& g, NodeId s, NodeId t, const std::string& ctx) {
    ++instances_;
    const PaymentResult want = reference::fast_link_payments(g, s, t);
    const PaymentResult got = fast_link_payments(g, s, t);
    EXPECT_EQ(want.path, got.path) << ctx;
    EXPECT_TRUE(same_bits(want.path_cost, got.path_cost))
        << ctx << ": path_cost " << want.path_cost << " vs " << got.path_cost;
    EXPECT_TRUE(same_bits(want.payments, got.payments)) << ctx << ": payments";
    EXPECT_EQ(got.profile_version, 0u) << ctx;

    const EdgeVcgResult want_e = reference::edge_vcg_payments_fast(g, s, t);
    const EdgeVcgResult got_e = edge_vcg_payments_fast(g, s, t);
    EXPECT_EQ(want_e.path, got_e.path) << ctx << " [edge]";
    EXPECT_TRUE(same_bits(want_e.path_cost, got_e.path_cost))
        << ctx << " [edge]: path_cost";
    ASSERT_EQ(want_e.payments.size(), got_e.payments.size()) << ctx;
    for (std::size_t i = 0; i < want_e.payments.size(); ++i) {
      const EdgePayment& a = want_e.payments[i];
      const EdgePayment& b = got_e.payments[i];
      EXPECT_EQ(a.u, b.u) << ctx << " [edge " << i << "]";
      EXPECT_EQ(a.v, b.v) << ctx << " [edge " << i << "]";
      EXPECT_TRUE(same_bits(a.declared, b.declared))
          << ctx << " [edge " << i << "]: declared";
      EXPECT_TRUE(same_bits(a.payment, b.payment))
          << ctx << " [edge " << i << "]: payment " << a.payment << " vs "
          << b.payment;
    }

    if (!want.connected()) {
      ++disconnected_;
    } else if (want.path.size() < 3) {
      ++short_lcp_;
    }
    for (const Cost p : want.payments) {
      if (!graph::finite_cost(p)) {
        ++monopolies_;
        break;
      }
    }
  }

  /// `count` instances of random (s, t) pairs, `per_graph` pairs per graph
  /// drawn from `make(rng)`; stops at the first failing instance.
  template <typename Make>
  void run(const char* family, std::size_t count, std::size_t per_graph,
           std::uint64_t seed, Make make) {
    util::Rng rng(seed);
    std::size_t done = 0;
    for (std::size_t graph_no = 0; done < count; ++graph_no) {
      const LinkGraph g = make(rng);
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

  std::size_t instances() const { return instances_; }
  std::size_t disconnected() const { return disconnected_; }
  std::size_t short_lcp() const { return short_lcp_; }
  std::size_t monopolies() const { return monopolies_; }

 private:
  std::size_t instances_ = 0;
  std::size_t disconnected_ = 0;
  std::size_t short_lcp_ = 0;
  std::size_t monopolies_ = 0;
};

/// Random symmetric graph on n nodes with about `links` undirected links,
/// each costed by `cost(rng)`.
template <typename CostFn>
LinkGraph random_symmetric(util::Rng& rng, std::size_t n, std::size_t links,
                           CostFn cost) {
  LinkGraphBuilder b(n);
  for (std::size_t e = 0; e < links; ++e) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    const auto v = static_cast<NodeId>(rng.next_below(n));
    if (u == v) continue;
    const Cost w = cost(rng);
    b.add_link(u, v, w, w);
  }
  return b.build();
}

LinkGraph random_graph(util::Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 40));
  const auto links = static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<std::int64_t>(4 * n)));
  return random_symmetric(rng, n, links,
                          [](util::Rng& r) { return r.uniform(0.1, 5.0); });
}

TEST(LinkPaymentBits, UnitDisk) {
  Differ d;
  d.run("udg", kUnitDisk, 8, 0x11b70001, [](util::Rng& rng) {
    graph::UdgParams params;
    params.n = static_cast<std::size_t>(rng.uniform_int(16, 256));
    params.region = {1000.0, 1000.0};
    params.range_m = rng.uniform(120.0, 300.0);
    params.kappa = rng.bernoulli(0.5) ? 2.0 : 2.5;
    return graph::make_unit_disk_link(params, rng.next_u64());
  });
  EXPECT_EQ(d.instances(), kUnitDisk);
  EXPECT_GT(d.monopolies(), 0u);
}

TEST(LinkPaymentBits, RandomSymmetric) {
  Differ d;
  d.run("random", kRandom, 4, 0x11b70002, random_graph);
  EXPECT_EQ(d.instances(), kRandom);
  EXPECT_GT(d.short_lcp(), 0u);
}

TEST(LinkPaymentBits, LiftedNodeGraphs) {
  // A node-cost graph lifted to symmetric link costs: w(u,v) = c_u + c_v
  // (to_link_graph charges the sender only, which is asymmetric).
  Differ d;
  d.run("lifted", kLifted, 4, 0x11b70003, [](util::Rng& rng) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 48));
    const auto node_g = graph::make_erdos_renyi(n, rng.uniform(0.05, 0.5),
                                                0.5, 5.0, rng.next_u64());
    LinkGraphBuilder b(n);
    for (const auto& [u, v] : node_g.edges()) {
      const Cost w = node_g.node_cost(u) + node_g.node_cost(v);
      b.add_link(u, v, w, w);
    }
    return b.build();
  });
  EXPECT_EQ(d.instances(), kLifted);
}

TEST(LinkPaymentBits, IntegerCostTies) {
  Differ d;
  d.run("int", kIntegerTies, 4, 0x11b70004, [](util::Rng& rng) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(3, 40));
    return random_symmetric(rng, n, 3 * n, [](util::Rng& r) {
      return static_cast<Cost>(r.uniform_int(1, 3));
    });
  });
  EXPECT_EQ(d.instances(), kIntegerTies);
}

TEST(LinkPaymentBits, ExtremeMagnitudes) {
  Differ d;
  const auto scaled = [](double factor) {
    return [factor](util::Rng& rng) {
      const auto n = static_cast<std::size_t>(rng.uniform_int(3, 40));
      return random_symmetric(rng, n, 3 * n, [factor](util::Rng& r) {
        return r.uniform(0.5, 5.0) * factor;
      });
    };
  };
  d.run("x1e-9", kMagnitudes / 3, 4, 0x11b70005, scaled(1e-9));
  d.run("x1e9", kMagnitudes / 3, 4, 0x11b70006, scaled(1e9));
  // Adding a tiny cost to a huge sum rounds: association order matters.
  d.run("mixed", kMagnitudes / 3, 4, 0x11b70007, [](util::Rng& rng) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(3, 40));
    return random_symmetric(rng, n, 3 * n, [](util::Rng& r) {
      return r.uniform(0.5, 5.0) * (r.bernoulli(0.5) ? 1e9 : 1e-9);
    });
  });
  EXPECT_EQ(d.instances(), kMagnitudes);
}

TEST(LinkPaymentBits, BridgeAndMonopolyChains) {
  // Biconnected blobs strung together by chains of bridges: every chain
  // relay and every bridge edge is a monopoly (kInfCost payment).
  Differ d;
  d.run("chains", kChains, 6, 0x11b70008, [](util::Rng& rng) {
    const auto blobs = static_cast<std::size_t>(rng.uniform_int(1, 4));
    const auto blob_n = static_cast<std::size_t>(rng.uniform_int(3, 8));
    const auto chain = static_cast<std::size_t>(rng.uniform_int(1, 4));
    const std::size_t n = blobs * blob_n + (blobs + 1) * chain;
    LinkGraphBuilder b(n);
    const auto link = [&](std::size_t u, std::size_t v) {
      const Cost w = static_cast<Cost>(rng.uniform_int(1, 4));
      b.add_link(static_cast<NodeId>(u), static_cast<NodeId>(v), w, w);
    };
    std::size_t next = 0;
    for (std::size_t c = 1; c < chain; ++c, ++next) link(next, next + 1);
    std::size_t tail = next++;
    for (std::size_t k = 0; k < blobs; ++k) {
      const std::size_t first = next;
      link(tail, first);
      for (std::size_t i = 0; i < blob_n; ++i) {  // ring plus chords
        link(first + i, first + (i + 1) % blob_n);
        const std::size_t j = rng.next_below(blob_n);
        if (j != i && rng.bernoulli(0.4)) link(first + i, first + j);
      }
      next += blob_n;
      link(first + rng.next_below(blob_n), next);
      for (std::size_t c = 1; c < chain; ++c, ++next) link(next, next + 1);
      tail = next++;
    }
    return b.build();
  });
  EXPECT_EQ(d.instances(), kChains);
  EXPECT_GT(d.monopolies(), kChains / 2);
}

TEST(LinkPaymentBits, DisconnectedPairs) {
  // Two random components plus isolated nodes: many pairs are unreachable.
  Differ d;
  d.run("split", kDisconnected, 8, 0x11b70009, [](util::Rng& rng) {
    const auto half = static_cast<std::size_t>(rng.uniform_int(2, 16));
    const std::size_t n = 2 * half + 2;
    LinkGraphBuilder b(n);
    for (std::size_t part = 0; part < 2; ++part) {
      for (std::size_t e = 0; e < 2 * half; ++e) {
        const auto u = static_cast<NodeId>(part * half + rng.next_below(half));
        const auto v = static_cast<NodeId>(part * half + rng.next_below(half));
        if (u == v) continue;
        const Cost w = rng.uniform(0.5, 3.0);
        b.add_link(u, v, w, w);
      }
    }
    return b.build();
  });
  EXPECT_EQ(d.instances(), kDisconnected);
  EXPECT_GT(d.disconnected(), kDisconnected / 4);
}

TEST(LinkPaymentBits, ShortPaths) {
  // Every ordered pair of small graphs: adjacent pairs give q = 1 (no
  // relay agents, one edge agent), and paths give q = n - 1 levels.
  Differ d;
  util::Rng rng(0x11b7000a);
  for (std::size_t n = 2; n <= 9; ++n) {
    const auto path = graph::make_path(n);
    const auto complete = graph::make_complete(n);
    for (const auto* node_g : {&path, &complete}) {
      LinkGraphBuilder b(n);
      for (const auto& [u, v] : node_g->edges()) {
        const Cost w = static_cast<Cost>(rng.uniform_int(1, 2));
        b.add_link(u, v, w, w);
      }
      const LinkGraph g = b.build();
      for (NodeId s = 0; s < n; ++s) {
        for (NodeId t = 0; t < n; ++t) {
          if (s == t) continue;
          d.check(g, s, t,
                  "small n=" + std::to_string(n) + " s=" + std::to_string(s) +
                      " t=" + std::to_string(t));
        }
      }
    }
  }
  EXPECT_GT(d.short_lcp(), 100u);
}

TEST(LinkPaymentBits, AsymmetricInputThrowsLikeReference) {
  LinkGraphBuilder b(3);
  b.add_link(0, 1, 2.0, 2.5).add_link(1, 2, 1.0, 1.0);
  const LinkGraph g = b.build();
  const auto message = [](const auto& engine) -> std::string {
    try {
      (void)engine();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no throw";
  };
  EXPECT_EQ(message([&] { return reference::fast_link_payments(g, 0, 2); }),
            message([&] { return fast_link_payments(g, 0, 2); }));
  EXPECT_EQ(
      message([&] { return reference::edge_vcg_payments_fast(g, 0, 2); }),
      message([&] { return edge_vcg_payments_fast(g, 0, 2); }));
  EXPECT_NE(message([&] { return fast_link_payments(g, 0, 2); }), "no throw");
}

}  // namespace
}  // namespace tc::core
