// Fleet semantics: tenant isolation, typed load shedding, deadline
// expiry, admission fairness, and ledger epoch fencing across tenants.
//
// The shedding tests pin their timing by construction instead of by
// sleeping: a fleet with one shard is given a large QuoteBatchOp first,
// which parks the worker inside the engine, and the assertions run
// against requests queued (or shed) behind it.
#include "svc/fleet.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "distsim/ledger.hpp"
#include "graph/generators.hpp"
#include "mech/invariants.hpp"
#include "util/rng.hpp"

namespace tc::svc {
namespace {

using graph::Cost;
using graph::NodeId;

/// A tenant graph family: same shape, different seeds per tenant.
graph::NodeGraph tenant_graph(std::uint64_t seed, std::size_t n = 24) {
  return graph::make_erdos_renyi(n, 0.3, 0.5, 9.0, seed);
}

Request quote_req(TenantId tenant, NodeId source, NodeId target,
                  Priority priority = Priority::kInteractive,
                  std::uint64_t deadline_us = 0) {
  Request req;
  req.tenant = tenant;
  req.priority = priority;
  req.deadline_us = deadline_us;
  req.op = QuoteOp{source, target};
  return req;
}

Request declare_req(TenantId tenant, NodeId node, Cost cost) {
  Request req;
  req.tenant = tenant;
  req.op = DeclareOp{node, cost};
  return req;
}

/// All ordered pairs of a graph — a deliberately slow batch that parks a
/// shard worker inside the tenant engine for a while.
QuoteBatchOp all_pairs(const graph::NodeGraph& g) {
  QuoteBatchOp batch;
  const auto n = static_cast<NodeId>(g.num_nodes());
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u != v) batch.pairs.emplace_back(u, v);
    }
  }
  return batch;
}

TEST(Fleet, QuoteMatchesStandaloneEngine) {
  const auto g = tenant_graph(11);
  Fleet fleet;
  ASSERT_EQ(fleet.create_tenant(7, g, 0), Status::kOk);
  QuoteEngine oracle(g, 0);

  const Response to_ap = fleet.call(quote_req(7, 5, graph::kInvalidNode));
  ASSERT_EQ(to_ap.status, Status::kOk);
  const auto want_ap = oracle.quote(5);
  ASSERT_EQ(to_ap.quote.has_value(), want_ap.has_value());
  if (want_ap) {
    EXPECT_EQ(to_ap.quote->path, want_ap->path);
    EXPECT_EQ(to_ap.quote->payments, want_ap->payments);
  }

  const Response pair = fleet.call(quote_req(7, 3, 9));
  ASSERT_EQ(pair.status, Status::kOk);
  const auto want_pair = oracle.quote(3, 9);
  ASSERT_EQ(pair.quote.has_value(), want_pair.has_value());
  if (want_pair) {
    EXPECT_EQ(pair.quote->payments, want_pair->payments);
  }

  // Declarations advance the tenant epoch exactly like the bare engine.
  const Response decl = fleet.call(declare_req(7, 4, 2.25));
  ASSERT_EQ(decl.status, Status::kOk);
  EXPECT_EQ(decl.epoch, oracle.declare_cost(4, 2.25));

  // Static placement: nothing is ever stolen or coalesced.
  const auto m = fleet.metrics();
  EXPECT_EQ(m.stolen_runs, 0u);
  EXPECT_EQ(m.stolen_requests, 0u);
  EXPECT_EQ(m.coalesced_requests, 0u);
}

TEST(Fleet, DeclareStormDoesNotPerturbOtherTenants) {
  const auto quiet_graph = tenant_graph(21);
  Config config;
  config.fleet.shards = 2;  // noisy and quiet tenants share a fleet
  Fleet fleet(config);
  ASSERT_EQ(fleet.create_tenant(0, tenant_graph(20), 0), Status::kOk);
  ASSERT_EQ(fleet.create_tenant(1, quiet_graph, 0), Status::kOk);

  // Baseline quote for the quiet tenant, before the storm.
  const Response before = fleet.call(quote_req(1, 6, graph::kInvalidNode));
  ASSERT_EQ(before.status, Status::kOk);
  ASSERT_TRUE(before.quote.has_value());
  const std::uint64_t quiet_epoch = before.epoch;

  // Storm: hammer tenant 0 with re-declarations.
  util::Rng rng(0xf1ee7ULL);
  std::vector<std::future<Response>> storm;
  for (int i = 0; i < 500; ++i) {
    const auto v = static_cast<NodeId>(1 + rng.next_below(19));
    storm.push_back(
        fleet.submit(declare_req(0, v, rng.uniform(0.2, 12.0))));
  }
  for (auto& f : storm) EXPECT_EQ(f.get().status, Status::kOk);

  // The quiet tenant's epoch did not move and its quote is unchanged —
  // and still audits clean against the declared profile.
  const Response after = fleet.call(quote_req(1, 6, graph::kInvalidNode));
  ASSERT_EQ(after.status, Status::kOk);
  EXPECT_EQ(after.epoch, quiet_epoch);
  ASSERT_TRUE(after.quote.has_value());
  EXPECT_EQ(after.quote->path, before.quote->path);
  EXPECT_EQ(after.quote->payments, before.quote->payments);

  mech::UnicastOutcome outcome;
  outcome.path = after.quote->path;
  outcome.path_cost = after.quote->path_cost;
  outcome.payments = after.quote->payments;
  const auto report = mech::audit_unicast_payment(quiet_graph, 6, 0, outcome);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Fleet, ExpiredQuoteGetsTypedRejectionNeverAStaleQuote) {
  const auto g = tenant_graph(31, 40);
  Config config;
  config.fleet.shards = 1;
  Fleet fleet(config);
  ASSERT_EQ(fleet.create_tenant(0, g, 0), Status::kOk);

  // Park the worker in a large batch, then queue a 1us-deadline quote
  // behind it: by the time the worker dequeues it, it is long dead.
  Request slow;
  slow.tenant = 0;
  slow.op = all_pairs(g);
  auto slow_future = fleet.submit(std::move(slow));
  auto dead = fleet.submit(quote_req(0, 3, 9, Priority::kInteractive,
                                     /*deadline_us=*/1));

  const Response r = dead.get();
  EXPECT_EQ(r.status, Status::kExpiredDeadline);
  EXPECT_FALSE(r.quote.has_value());  // typed rejection, no stale data
  EXPECT_EQ(slow_future.get().status, Status::kOk);

  const auto m = fleet.metrics();
  EXPECT_GE(m.expired, 1u);
}

TEST(Fleet, QueueFullShedsImmediately) {
  const auto g = tenant_graph(41, 40);
  Config config;
  config.fleet.shards = 1;
  config.fleet.queue_capacity = 4;
  config.fleet.shed_watermark = 4;  // watermark out of the way
  Fleet fleet(config);
  ASSERT_EQ(fleet.create_tenant(0, g, 0), Status::kOk);

  Request slow;
  slow.tenant = 0;
  slow.op = all_pairs(g);
  auto slow_future = fleet.submit(std::move(slow));
  // The worker may briefly still hold the batch un-popped; queue until
  // the mailbox has actually absorbed `capacity` entries, then overflow.
  std::vector<std::future<Response>> queued;
  std::vector<std::future<Response>> shed;
  while (shed.empty()) {
    auto f = fleet.submit(
        quote_req(0, 3, 9, Priority::kInteractive, /*deadline_us=*/1));
    const bool ready = f.wait_for(std::chrono::seconds(0)) ==
                       std::future_status::ready;
    (ready ? shed : queued).push_back(std::move(f));
    ASSERT_LT(queued.size(), 64u) << "queue never filled";
  }
  EXPECT_EQ(shed.front().get().status, Status::kShedQueueFull);
  for (auto& f : queued) {
    const Status s = f.get().status;
    EXPECT_TRUE(s == Status::kOk || s == Status::kExpiredDeadline);
  }
  EXPECT_EQ(slow_future.get().status, Status::kOk);
  EXPECT_GE(fleet.metrics().shed_queue_full, 1u);
}

TEST(Fleet, WatermarkShedsBatchTrafficOnly) {
  const auto g = tenant_graph(51, 40);
  Config config;
  config.fleet.shards = 1;
  config.fleet.queue_capacity = 64;
  config.fleet.shed_watermark = 1;
  // The admitted quotes deliberately wait behind a slow batch op; keep
  // them alive through sanitizer-grade slowdowns.
  config.fleet.default_deadline_us = 60'000'000;
  Fleet fleet(config);
  ASSERT_EQ(fleet.create_tenant(0, g, 0), Status::kOk);

  Request slow;
  slow.tenant = 0;
  slow.op = all_pairs(g);
  auto slow_future = fleet.submit(std::move(slow));
  // Fill past the watermark with interactive traffic (exempt from it).
  std::vector<std::future<Response>> interactive;
  while (true) {
    auto probe = fleet.submit(quote_req(0, 3, 9, Priority::kBatch));
    if (probe.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      // Watermark reached: the batch probe was shed synchronously while
      // interactive submissions kept being admitted.
      EXPECT_EQ(probe.get().status, Status::kShedWatermark);
      break;
    }
    interactive.push_back(std::move(probe));  // depth was still < mark
    interactive.push_back(
        fleet.submit(quote_req(0, 5, 11, Priority::kInteractive)));
    ASSERT_LT(interactive.size(), 64u) << "watermark never engaged";
  }
  auto admitted =
      fleet.submit(quote_req(0, 7, 13, Priority::kInteractive));
  EXPECT_NE(admitted.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  for (auto& f : interactive) EXPECT_EQ(f.get().status, Status::kOk);
  EXPECT_EQ(admitted.get().status, Status::kOk);
  EXPECT_EQ(slow_future.get().status, Status::kOk);
  EXPECT_GE(fleet.metrics().shed_watermark, 1u);
}

TEST(Fleet, TokenBucketThrottlesPerTenant) {
  Config config;
  config.fleet.tenant_rate_per_sec = 0.001;  // refill is negligible
  config.fleet.tenant_burst = 2.0;
  Fleet fleet(config);
  ASSERT_EQ(fleet.create_tenant(0, tenant_graph(61), 0), Status::kOk);
  ASSERT_EQ(fleet.create_tenant(1, tenant_graph(62), 0), Status::kOk);

  EXPECT_EQ(fleet.call(quote_req(0, 3, 9)).status, Status::kOk);
  EXPECT_EQ(fleet.call(quote_req(0, 4, 9)).status, Status::kOk);
  EXPECT_EQ(fleet.call(quote_req(0, 5, 9)).status, Status::kThrottled);
  // Fairness: tenant 0 exhausting its bucket does not tax tenant 1.
  EXPECT_EQ(fleet.call(quote_req(1, 3, 9)).status, Status::kOk);
  // Declares are never throttled: writes must not be silently dropped.
  EXPECT_EQ(fleet.call(declare_req(0, 4, 3.0)).status, Status::kOk);
  EXPECT_GE(fleet.metrics().throttled, 1u);
}

TEST(Fleet, TypedRejectionsForBadRequests) {
  const auto g = tenant_graph(71);
  Fleet fleet;
  EXPECT_EQ(fleet.call(quote_req(9, 1, 2)).status, Status::kUnknownTenant);
  ASSERT_EQ(fleet.create_tenant(9, g, 0), Status::kOk);
  EXPECT_EQ(fleet.create_tenant(9, g, 0), Status::kTenantExists);
  // Out-of-range endpoints, source==target, AP as source.
  EXPECT_EQ(fleet.call(quote_req(9, 99, 2)).status, Status::kInvalidRequest);
  EXPECT_EQ(fleet.call(quote_req(9, 2, 2)).status, Status::kInvalidRequest);
  EXPECT_EQ(fleet.call(quote_req(9, 0, graph::kInvalidNode)).status,
            Status::kInvalidRequest);
  // Bad declarations: out of range, negative, non-finite.
  EXPECT_EQ(fleet.call(declare_req(9, 99, 1.0)).status,
            Status::kInvalidRequest);
  EXPECT_EQ(fleet.call(declare_req(9, 3, -1.0)).status,
            Status::kInvalidRequest);
  EXPECT_EQ(fleet.call(declare_req(9, 3, graph::kInfCost)).status,
            Status::kInvalidRequest);
  // Marking the access point down is refused, not crashed.
  Request down;
  down.tenant = 9;
  down.op = MarkNodeDownOp{0};
  EXPECT_EQ(fleet.call(std::move(down)).status, Status::kInvalidRequest);
  EXPECT_EQ(fleet.drop_tenant(9), Status::kOk);
  EXPECT_EQ(fleet.drop_tenant(9), Status::kUnknownTenant);
}

TEST(Fleet, ConfigValidationCatchesBadKnobs) {
  Config config;
  EXPECT_TRUE(config.validate().empty());
  config.fleet.queue_capacity = 0;
  EXPECT_FALSE(config.validate().empty());
  config = {};
  config.fleet.shed_watermark = 10'000;  // above default capacity
  EXPECT_FALSE(config.validate().empty());
  config = {};
  config.fleet.default_deadline_us = 0;
  EXPECT_FALSE(config.validate().empty());
  config = {};
  config.fleet.tenant_burst = 0.5;
  EXPECT_FALSE(config.validate().empty());
  config = {};
  config.engine.max_entries_per_shard = 0;
  EXPECT_FALSE(config.validate().empty());
}

TEST(Fleet, StaticPlacementBaselineStillServes) {
  // Tenants are hashed tenant % shards onto a multi-shard fleet; a tenant
  // off shard 0 still prices exactly like the bare engine, and nothing is
  // ever stolen or coalesced.
  Config config;
  config.fleet.shards = 2;
  Fleet fleet(config);
  const auto g = tenant_graph(91);
  ASSERT_EQ(fleet.create_tenant(3, g, 0), Status::kOk);
  QuoteEngine oracle(g, 0);
  const Response r = fleet.call(quote_req(3, 5, graph::kInvalidNode));
  ASSERT_EQ(r.status, Status::kOk);
  const auto want = oracle.quote(5);
  ASSERT_EQ(r.quote.has_value(), want.has_value());
  if (want) {
    EXPECT_EQ(r.quote->payments, want->payments);
  }
  const auto m = fleet.metrics();
  EXPECT_EQ(m.stolen_runs, 0u);
  EXPECT_EQ(m.coalesced_requests, 0u);
}

TEST(Fleet, HugeDeadlineMeansNoDeadline) {
  Fleet fleet;
  ASSERT_EQ(fleet.create_tenant(0, tenant_graph(95), 0), Status::kOk);
  // Deadlines past the clock's range, including ones whose microsecond
  // to nanosecond conversion would overflow, saturate to "never".
  for (const std::uint64_t deadline_us :
       {std::numeric_limits<std::uint64_t>::max(), std::uint64_t{1} << 63,
        std::uint64_t{10'000'000'000'000'000}}) {
    const Response r =
        fleet.call(quote_req(0, 3, 9, Priority::kInteractive, deadline_us));
    EXPECT_EQ(r.status, Status::kOk) << "deadline_us " << deadline_us;
  }
}

/// Node-model VCG that appends its tenant to a shared log on every
/// pricing call, so a test can read the order a shard worker served
/// tenants in. A gated instance announces its first call, then blocks
/// until the gate opens.
class LoggingPricer final : public Pricer {
 public:
  struct Log {
    std::mutex mu;
    std::vector<TenantId> order;
  };

  LoggingPricer(TenantId tenant, std::shared_ptr<Log> log,
                std::promise<void>* entered = nullptr,
                std::shared_future<void> gate = {})
      : tenant_(tenant),
        log_(std::move(log)),
        entered_(entered),
        gate_(std::move(gate)) {}

  std::string name() const override { return inner_->name(); }
  GraphModel model() const override { return GraphModel::kNode; }
  PricedQuote price(const ProfileSnapshot& snap, NodeId source,
                    NodeId target) const override {
    {
      std::lock_guard<std::mutex> lock(log_->mu);
      log_->order.push_back(tenant_);
    }
    if (entered_ != nullptr) {
      entered_->set_value();
      gate_.wait();
    }
    return inner_->price(snap, source, target);
  }
  bool monopoly_free(const ProfileSnapshot& snap) const override {
    return inner_->monopoly_free(snap);
  }

 private:
  TenantId tenant_;
  std::shared_ptr<Log> log_;
  std::promise<void>* entered_;
  std::shared_future<void> gate_;
  std::shared_ptr<const Pricer> inner_ = make_node_vcg_pricer();
};

// Dispatch order is deficit round robin over the SLO classes, 8:1 in
// interactive's favour. A backlog of 64 batch quotes queued ahead of 16
// interactive ones must therefore yield to all 16: interactive credit
// (64 a round) covers them before batch gets its turn. A FIFO queue, or
// equal class weights, would serve batch first.
TEST(Fleet, DeficitRoundRobinServesInteractiveAheadOfBatchBacklog) {
  constexpr TenantId kGate = 0;
  constexpr int kBatch = 64;
  constexpr int kInteractive = 16;
  Config config;
  config.fleet.shards = 2;  // even tenant ids all live on shard 0
  config.fleet.default_deadline_us = 60'000'000;
  Fleet fleet(config);
  const auto g = tenant_graph(97);
  auto log = std::make_shared<LoggingPricer::Log>();
  std::promise<void> entered;
  std::promise<void> open;
  ASSERT_EQ(fleet.create_tenant(
                kGate, g, 0,
                std::make_shared<LoggingPricer>(kGate, log, &entered,
                                                open.get_future().share())),
            Status::kOk);
  std::vector<TenantId> batch_tenants;
  std::vector<TenantId> interactive_tenants;
  for (int i = 0; i < kBatch + kInteractive; ++i) {
    const auto t = static_cast<TenantId>(2 * (i + 1));
    (i < kBatch ? batch_tenants : interactive_tenants).push_back(t);
    ASSERT_EQ(fleet.create_tenant(t, g, 0,
                                  std::make_shared<LoggingPricer>(t, log)),
              Status::kOk);
  }

  // Park shard 0's worker inside the gate tenant's pricer, then queue the
  // batch backlog first and the interactive quotes behind it.
  auto gated = fleet.submit(quote_req(kGate, 3, graph::kInvalidNode));
  entered.get_future().wait();
  std::vector<std::future<Response>> queued;
  for (const TenantId t : batch_tenants) {
    queued.push_back(
        fleet.submit(quote_req(t, 3, graph::kInvalidNode, Priority::kBatch)));
  }
  for (const TenantId t : interactive_tenants) {
    queued.push_back(fleet.submit(
        quote_req(t, 3, graph::kInvalidNode, Priority::kInteractive)));
  }
  open.set_value();
  EXPECT_EQ(gated.get().status, Status::kOk);
  for (auto& f : queued) EXPECT_EQ(f.get().status, Status::kOk);

  std::vector<TenantId> want{kGate};
  want.insert(want.end(), interactive_tenants.begin(),
              interactive_tenants.end());
  want.insert(want.end(), batch_tenants.begin(), batch_tenants.end());
  std::lock_guard<std::mutex> lock(log->mu);
  EXPECT_EQ(log->order, want);
}

// Declare-storm coherence: 12 tenants interleave declares and
// mixed-priority quote bursts across 8 busy shards. Each tenant has
// exactly ONE writer thread, so its declared profile is locally known;
// every served quote must audit clean against it, epochs must rise
// monotonically, and the outcome counters must conserve. Run under TSan
// this is the race detector for the submit path and the shard workers.
TEST(Fleet, TenantsStayCoherentUnderDeclareStorm) {
  constexpr TenantId kTenants = 12;
  constexpr std::size_t kNodes = 16;
  constexpr int kRounds = 40;
  Config config;
  config.fleet.shards = 8;
  config.fleet.default_deadline_us = 60'000'000;
  Fleet fleet(config);

  std::atomic<int> failures{0};
  std::vector<std::thread> owners;
  owners.reserve(kTenants);
  for (TenantId t = 0; t < kTenants; ++t) {
    owners.emplace_back([&, t] {
      auto local = tenant_graph(500 + t, kNodes);
      if (fleet.create_tenant(t, local, 0) != Status::kOk) {
        failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      util::Rng rng(0x57ea1ULL + static_cast<std::uint64_t>(t));
      std::uint64_t last_epoch = 0;
      for (int round = 0; round < kRounds; ++round) {
        // Declare storm: blocking writes, exact local mirror.
        for (int i = 0; i < 6; ++i) {
          const auto v = static_cast<NodeId>(1 + rng.next_below(kNodes - 1));
          const Cost cost = rng.uniform(0.2, 9.0);
          const Response r = fleet.call(declare_req(t, v, cost));
          if (r.status != Status::kOk) {
            failures.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          // Epochs rise monotonically through the storm.
          EXPECT_GT(r.epoch, last_epoch);
          last_epoch = r.epoch;
          local.set_node_cost(v, cost);
        }
        // Quote burst, mixed priorities; resolved before the next storm
        // so the local graph matches what the engine priced against.
        std::vector<std::future<Response>> burst;
        for (int i = 0; i < 8; ++i) {
          const auto s = static_cast<NodeId>(1 + rng.next_below(kNodes - 1));
          burst.push_back(fleet.submit(
              quote_req(t, s, graph::kInvalidNode,
                        rng.next_below(2) == 0 ? Priority::kInteractive
                                               : Priority::kBatch)));
        }
        for (auto& f : burst) {
          const Response r = f.get();
          if (r.status == Status::kShedWatermark ||
              r.status == Status::kShedQueueFull ||
              r.status == Status::kExpiredDeadline) {
            continue;  // legitimate under load; nothing to audit
          }
          if (r.status != Status::kOk) {
            failures.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          if (!r.quote.has_value()) continue;  // unroutable source
          mech::UnicastOutcome outcome;
          outcome.path = r.quote->path;
          outcome.path_cost = r.quote->path_cost;
          outcome.payments = r.quote->payments;
          const auto report =
              mech::audit_unicast_payment(local, r.quote->path.front(), 0,
                                          outcome);
          if (!report.ok()) {
            failures.fetch_add(1, std::memory_order_relaxed);
            ADD_FAILURE() << "tenant " << t << ": " << report.to_string();
          }
        }
      }
    });
  }
  for (auto& t : owners) t.join();
  EXPECT_EQ(failures.load(), 0);

  const auto m = fleet.metrics();
  EXPECT_EQ(m.submitted, m.served + m.declares + m.admin +
                             m.shed_queue_full + m.shed_watermark +
                             m.throttled + m.expired + m.rejected);
  EXPECT_EQ(m.admin, kTenants);
}

// Per-tenant ledger epoch fencing (distsim tie-in): each tenant keeps an
// AP ledger whose fenced epoch mirrors its fleet epoch; a quote priced
// before another declare lands is refused settlement, never mispaid.
TEST(Fleet, LedgerFencesStaleQuotesPerTenant) {
  Fleet fleet;
  const auto g = tenant_graph(81);
  ASSERT_EQ(fleet.create_tenant(0, g, 0), Status::kOk);
  distsim::Ledger ledger(g.num_nodes(), /*master_seed=*/99);
  ledger.fund_all(1000.0);

  const Response old_quote = fleet.call(quote_req(0, 6, graph::kInvalidNode));
  ASSERT_EQ(old_quote.status, Status::kOk);
  ASSERT_TRUE(old_quote.quote.has_value());

  const Response decl = fleet.call(declare_req(0, 3, 7.75));
  ASSERT_EQ(decl.status, Status::kOk);
  ledger.set_profile_epoch(decl.epoch);

  const auto sig =
      distsim::sign(ledger.key_of(6), distsim::packet_payload(1, 6, 0));
  const auto stale = ledger.settle_quote(1, 0, sig, *old_quote.quote);
  EXPECT_FALSE(stale.accepted);
  EXPECT_EQ(stale.reject_reason, "stale quote epoch");

  // The refused attempt recorded nothing, so the same packet id can be
  // settled once the client re-quotes at the fenced epoch.
  const Response fresh = fleet.call(quote_req(0, 6, graph::kInvalidNode));
  ASSERT_EQ(fresh.status, Status::kOk);
  ASSERT_TRUE(fresh.quote.has_value());
  EXPECT_TRUE(ledger.settle_quote(1, 0, sig, *fresh.quote).accepted);
}

// Many-tenant reader/writer stress; run under TSan this exercises the
// submit-side admission state, the shard mailboxes, and the per-tenant
// engine affinity all at once.
TEST(Fleet, ManyTenantConcurrentStress) {
  constexpr TenantId kTenants = 24;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 150;
  Config config;
  config.fleet.shards = 4;
  Fleet fleet(config);
  for (TenantId t = 0; t < kTenants; ++t) {
    ASSERT_EQ(fleet.create_tenant(t, tenant_graph(100 + t, 16), 0),
              Status::kOk);
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(0xabcd00ULL + static_cast<std::uint64_t>(c));
      std::vector<std::future<Response>> inflight;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto tenant =
            static_cast<TenantId>(rng.next_below(kTenants));
        if (rng.next_below(4) == 0) {
          const auto v = static_cast<NodeId>(1 + rng.next_below(15));
          inflight.push_back(
              fleet.submit(declare_req(tenant, v, rng.uniform(0.5, 8.0))));
        } else {
          const auto s = static_cast<NodeId>(1 + rng.next_below(15));
          inflight.push_back(fleet.submit(
              quote_req(tenant, s, graph::kInvalidNode,
                        rng.next_below(2) == 0 ? Priority::kInteractive
                                               : Priority::kBatch)));
        }
      }
      for (auto& f : inflight) {
        const Response r = f.get();
        // Every future resolves with a typed status; under stress some
        // may legitimately shed, but nothing may error out or hang.
        if (r.status != Status::kOk &&
            r.status != Status::kShedQueueFull &&
            r.status != Status::kShedWatermark &&
            r.status != Status::kExpiredDeadline) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Conservation: every submitted request is accounted to exactly one
  // outcome counter.
  const auto m = fleet.metrics();
  EXPECT_EQ(m.submitted, m.served + m.declares + m.admin +
                             m.shed_queue_full + m.shed_watermark +
                             m.throttled + m.expired + m.rejected);
  EXPECT_EQ(m.admin, kTenants);
  EXPECT_FALSE(m.tenants.empty());
}

}  // namespace
}  // namespace tc::svc
