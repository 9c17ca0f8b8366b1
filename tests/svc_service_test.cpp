// Deployment-facade scenarios on svc::QuoteEngine: one access point, a
// fixed topology, nodes re-declaring costs and sources asking for quotes.
#include <gtest/gtest.h>

#include "core/fast_payment.hpp"
#include "core/neighbor_collusion.hpp"
#include "graph/generators.hpp"
#include "svc/quote_engine.hpp"

namespace tc::svc {
namespace {

using graph::NodeId;

TEST(QuoteEngineService, QuoteMatchesEngine) {
  const auto g = graph::make_fig2_graph();
  QuoteEngine engine(g, 0);
  const auto quote = engine.quote(1);
  ASSERT_TRUE(quote.has_value());
  const auto direct = core::vcg_payments_fast(g, 1, 0);
  EXPECT_EQ(quote->path, direct.path);
  EXPECT_DOUBLE_EQ(quote->path_cost, direct.path_cost);
  EXPECT_EQ(quote->payments, direct.payments);
  EXPECT_DOUBLE_EQ(quote->total_payment(), 6.0);
  EXPECT_DOUBLE_EQ(quote->total_for_packets(10), 60.0);
}

TEST(QuoteEngineService, NeighborResistantSchemeQuotes) {
  const auto g = graph::make_grid(3, 3, 2.0);
  QuoteEngine engine(g, 0, make_neighbor_resistant_pricer());
  const auto quote = engine.quote(8);
  ASSERT_TRUE(quote.has_value());
  const auto direct = core::neighbor_resistant_payments(g, 8, 0);
  EXPECT_EQ(quote->payments, direct.payments);
}

TEST(QuoteEngineService, CachesUntilRedeclaration) {
  const auto g = graph::make_fig2_graph();
  QuoteEngine engine(g, 0);
  const auto q1 = engine.quote(1);
  ASSERT_TRUE(q1.has_value());
  EXPECT_EQ(q1->profile_version, engine.epoch());

  // Second quote at the same epoch is a cache hit with the same stamp.
  const auto q2 = engine.quote(1);
  ASSERT_TRUE(q2.has_value());
  EXPECT_EQ(q2->profile_version, q1->profile_version);
  EXPECT_EQ(engine.metrics().cache_hits, 1u);
  EXPECT_EQ(engine.metrics().cache_misses, 1u);

  // Re-declaration bumps the epoch and changes the quote.
  engine.declare_cost(4, 10.0);  // prices the cheap chain off
  const auto q3 = engine.quote(1);
  ASSERT_TRUE(q3.has_value());
  EXPECT_GT(q3->profile_version, q1->profile_version);
  EXPECT_EQ(q3->path, (std::vector<NodeId>{1, 5, 0}));
}

TEST(QuoteEngineService, NoopDeclarationKeepsEpoch) {
  const auto g = graph::make_fig2_graph();
  QuoteEngine engine(g, 0);
  const auto e = engine.epoch();
  EXPECT_EQ(engine.declare_cost(4, engine.declared_cost(4)), e);
  EXPECT_EQ(engine.epoch(), e);
}

TEST(QuoteEngineService, BulkDeclaration) {
  const auto g = graph::make_ring(6, 1.0);
  QuoteEngine engine(g, 0);
  std::vector<graph::Cost> declared(6, 1.0);
  declared[1] = 50.0;
  engine.declare_costs(declared);
  const auto quote = engine.quote(2);
  ASSERT_TRUE(quote.has_value());
  // Route must now avoid node 1.
  for (NodeId v : quote->path) EXPECT_NE(v, 1u);
}

TEST(QuoteEngineService, UnroutableSourceIsNullopt) {
  graph::NodeGraphBuilder b(4);
  b.add_edge(0, 1).add_edge(2, 3);
  QuoteEngine engine(b.build(), 0);
  EXPECT_FALSE(engine.quote(3).has_value());
  EXPECT_TRUE(engine.quote(1).has_value());
}

TEST(QuoteEngineService, MonopolyFreeChecks) {
  EXPECT_TRUE(QuoteEngine(graph::make_ring(8), 0).monopoly_free());
  EXPECT_FALSE(QuoteEngine(graph::make_path(5), 0).monopoly_free());
  // Neighbor-resistant needs the stronger neighborhood condition.
  EXPECT_TRUE(QuoteEngine(graph::make_ring(5), 0,
                          make_neighbor_resistant_pricer())
                  .monopoly_free());
  EXPECT_FALSE(QuoteEngine(graph::make_path(5), 0,
                           make_neighbor_resistant_pricer())
                   .monopoly_free());
}

TEST(QuoteEngineService, QuoteAllCoversEverySource) {
  const auto g = graph::make_ring(7, 2.0);
  QuoteEngine engine(g, 0);
  const auto quotes = engine.quote_all();
  ASSERT_EQ(quotes.size(), 7u);
  EXPECT_FALSE(quotes[0].has_value());  // the AP itself
  for (NodeId v = 1; v < 7; ++v) {
    ASSERT_TRUE(quotes[v].has_value()) << v;
    EXPECT_EQ(quotes[v]->path.front(), v);
    EXPECT_EQ(quotes[v]->path.back(), 0u);
  }
}

TEST(QuoteEngineService, QuotePairArbitraryEndpoints) {
  const auto g = graph::make_ring(8, 1.0);
  QuoteEngine engine(g, 0);
  const auto quote = engine.quote(2, 6);
  ASSERT_TRUE(quote.has_value());
  EXPECT_EQ(quote->path.front(), 2u);
  EXPECT_EQ(quote->path.back(), 6u);
  const auto direct = core::vcg_payments_fast(g, 2, 6);
  EXPECT_EQ(quote->payments, direct.payments);
}

TEST(QuoteEngineService, QuotePairUnroutable) {
  graph::NodeGraphBuilder b(4);
  b.add_edge(0, 1).add_edge(2, 3);
  QuoteEngine engine(b.build(), 0);
  EXPECT_FALSE(engine.quote(1, 3).has_value());
}

TEST(QuoteEngineService, RejectsBadInputs) {
  const auto g = graph::make_ring(5);
  QuoteEngine engine(g, 0);
  EXPECT_DEATH((void)engine.quote(0), "access point");
  EXPECT_DEATH((void)engine.quote(2, 2), "must differ");
}

}  // namespace
}  // namespace tc::svc
