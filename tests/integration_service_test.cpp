// Integration: the serving engine against the distributed protocol and
// the payment engines on generated topologies.
#include <gtest/gtest.h>

#include <cmath>

#include "core/fast_link_payment.hpp"
#include "core/link_vcg.hpp"
#include "core/transit.hpp"
#include "distsim/session.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "svc/quote_engine.hpp"

namespace tc {
namespace {

using graph::Cost;
using graph::NodeId;

TEST(IntegrationService, QuotesAgreeWithDistributedProtocol) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto g = graph::make_erdos_renyi(18, 0.3, 0.5, 5.0, seed);
    if (!graph::is_connected(g)) continue;
    svc::QuoteEngine engine(g, 0);
    distsim::SessionConfig config;
    config.spt_mode = distsim::SptMode::kVerified;
    config.payment_mode = distsim::PaymentMode::kVerified;
    for (NodeId s = 1; s < g.num_nodes(); s += 4) {
      const auto quote = engine.quote(s);
      ASSERT_TRUE(quote.has_value());
      if (std::isinf(quote->total_payment())) continue;
      const auto session = distsim::run_session(g, 0, g.costs(), s, config);
      EXPECT_NEAR(session.total_payment, quote->total_payment(), 1e-6)
          << "seed " << seed << " source " << s;
    }
  }
}

TEST(IntegrationService, RedeclarationPropagatesToTransitStudy) {
  // A relay that re-declares a higher cost loses traffic market share.
  const auto g = graph::make_grid(4, 4, 2.0);
  const auto before = core::transit_payments(g, core::uniform_traffic(16));

  graph::NodeGraph raised = g;
  // Find the top earner and raise its declaration.
  NodeId star = 0;
  for (NodeId v = 1; v < 16; ++v) {
    if (before.compensation[v] > before.compensation[star]) star = v;
  }
  ASSERT_GT(before.compensation[star], 0.0);
  raised.set_node_cost(star, 50.0);
  const auto after = core::transit_payments(raised, core::uniform_traffic(16));
  EXPECT_LT(after.compensation[star], before.compensation[star]);
}

TEST(IntegrationService, FastEnginesAgreeOnPaperTopology) {
  // All three payment views of the same symmetric UDG instance line up:
  // link naive == link fast, and the engine's node-model quote uses the
  // same routes.
  graph::UdgParams params;
  params.n = 90;
  params.region = {900.0, 900.0};
  params.range_m = 240.0;
  const auto lg = graph::make_unit_disk_link(params, 77);
  for (NodeId s : {5u, 23u, 61u}) {
    const auto naive = core::link_vcg_payments(lg, s, 0);
    if (!naive.connected()) continue;
    const auto fast = core::fast_link_payments(lg, s, 0);
    ASSERT_EQ(naive.path, fast.path) << "source " << s;
    for (NodeId k = 0; k < lg.num_nodes(); ++k) {
      if (std::isinf(naive.payments[k])) {
        EXPECT_TRUE(std::isinf(fast.payments[k]));
      } else {
        EXPECT_NEAR(naive.payments[k], fast.payments[k], 1e-9)
            << "source " << s << " node " << k;
      }
    }
  }
}

TEST(IntegrationService, SchemeUpgradeCostsMore) {
  // Switching an engine from VCG to the collusion-resistant pricer can
  // only raise (never lower) each relay's price — the price of stronger
  // incentives.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const auto g = graph::make_erdos_renyi(14, 0.5, 0.5, 4.0, seed);
    if (!graph::is_biconnected(g) || !graph::neighborhood_removal_safe(g))
      continue;
    svc::QuoteEngine vcg(g, 0);
    svc::QuoteEngine nbr(g, 0, svc::make_neighbor_resistant_pricer());
    for (NodeId s = 1; s < g.num_nodes(); ++s) {
      const auto a = vcg.quote(s);
      const auto b = nbr.quote(s);
      if (!a || !b) continue;
      if (std::isinf(a->total_payment()) ||
          std::isinf(b->total_payment()))
        continue;
      EXPECT_GE(b->total_payment(), a->total_payment() - 1e-9)
          << "seed " << seed << " source " << s;
    }
  }
}

}  // namespace
}  // namespace tc
