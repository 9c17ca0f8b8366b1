// engine-churn: one svc::QuoteEngine on the paper's n=1024 node-model
// UDG, driven by a single-thread closed loop of 90% quote(source) and 10%
// relative re-bids (declare_cost). Quote sources are Zipf(1.0) over a
// seeded permutation of the nodes, so about 60% of quotes land on the 64
// roots the warm-SPT cache holds and the rest spill past it. Loads
// invalidation, COW publish, CostDelta warm repair and cold/warm pricing
// with writes beside reads; the Fleet is bypassed.
#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "check.hpp"
#include "core/fast_payment.hpp"
#include "spath/batch.hpp"
#include "spath/cost_delta.hpp"
#include "svc/quote_engine.hpp"

namespace perfbench {

namespace {

using tc::graph::Cost;
using tc::graph::NodeGraph;
using tc::graph::NodeId;

constexpr std::size_t kNodes = 1024;
constexpr double kWriteRatio = 0.10;
constexpr double kZipfS = 1.0;
constexpr double kLimitMs = 50.0;
/// Every k-th timed quote is kept and re-priced by the oracle afterwards.
constexpr std::uint64_t kCheckEvery = 97;

std::size_t warmup_ops(const Options& opt) { return opt.tiny ? 200 : 2000; }
/// Timed ops per pass of the untraced run.
std::size_t measured_ops(const Options& opt) { return opt.tiny ? 300 : 5000; }

struct ChurnOp {
  bool declare = false;
  NodeId v = 0;
  double mult = 1.0;  ///< declare: multiplier on the current declared cost
};

/// The seeded op stream: the same seed gives the same sequence. Quotes
/// and declares come from every node but the access point.
class ChurnStream {
 public:
  ChurnStream(std::uint64_t seed, const NodeGraph& g)
      : rng_(derive_seed(seed, 0xc4a12)),
        zipf_(g.num_nodes() - 1, kZipfS),
        n_(g.num_nodes()),
        ap_(central_node(g)) {
    for (NodeId v = 0; v < n_; ++v) {
      if (v != ap_) hot_.push_back(v);
    }
    tc::util::Rng perm(derive_seed(seed, 0x9e12));
    perm.shuffle(hot_);
  }

  ChurnOp next() {
    if (rng_.bernoulli(kWriteRatio)) {
      return {true, node_other_than(rng_, n_, ap_), rng_.uniform(0.9, 1.12)};
    }
    return {false, hot_[zipf_.sample(rng_)], 1.0};
  }
  NodeId access_point() const { return ap_; }
  /// Quote sources in popularity order (rank 0 is the hottest).
  const std::vector<NodeId>& hot() const { return hot_; }

 private:
  tc::util::Rng rng_;
  Zipf zipf_;
  std::size_t n_;
  NodeId ap_;
  std::vector<NodeId> hot_;
};

/// An engine plus the benchmark's own record of every declared cost.
struct Churn {
  Churn(const NodeGraph& g, NodeId ap)
      : engine(g, ap, nullptr, tc::svc::EngineConfig{}), declared(g.costs()) {}

  /// Relative re-bid around the node's current declared cost.
  Cost next_cost(const ChurnOp& op) const {
    return std::clamp(declared[op.v] * op.mult, Cost{0.5}, Cost{15.0});
  }
  void apply(const ChurnOp& op) {
    if (op.declare) {
      const Cost c = next_cost(op);
      (void)engine.declare_cost(op.v, c);
      declared[op.v] = c;
    } else {
      (void)engine.quote(op.v);
    }
  }

  tc::svc::QuoteEngine engine;
  std::vector<Cost> declared;
};

/// A timed quote kept for the oracle, with the profile it was priced on.
struct Sample {
  NodeId source = 0;
  std::uint64_t epoch = 0;
  std::optional<tc::core::PaymentResult> quote;
  std::vector<Cost> declared;
};

void check_sample(const NodeGraph& base, NodeId ap, const Sample& s,
                  Report& report) {
  NodeGraph g = base;
  g.set_costs(s.declared);
  const tc::core::PaymentResult want =
      tc::core::vcg_payments_fast(g, s.source, ap);
  if (!s.quote.has_value()) {
    if (want.connected()) report.fail("engine-churn: quote missing a route");
    return;
  }
  if (s.quote->profile_version != s.epoch) {
    report.fail("engine-churn: quote stamped with a stale epoch");
  }
  check_same(want, *s.quote, false, report,
             "engine-churn quote, source " + std::to_string(s.source));
}

/// Final state: the engine's snapshot holds exactly the declared costs,
/// and its quotes match a from-scratch solve on that snapshot.
void check_final(Churn& c, const ChurnStream& stream, Report& report) {
  const auto snap = c.engine.snapshot();
  const NodeId ap = stream.access_point();
  for (NodeId v = 0; v < c.declared.size(); ++v) {
    if (snap->node_cost(v) != c.declared[v]) {
      report.fail("engine-churn: snapshot cost differs from declared cost");
      return;
    }
  }
  for (std::size_t k = 0; k < 16; ++k) {
    const NodeId s = stream.hot()[k * 37 % stream.hot().size()];
    const auto got = c.engine.quote(s);
    const tc::core::PaymentResult want =
        tc::core::vcg_payments_fast(snap->node(), s, ap);
    if (got.has_value() != want.connected() ||
        (got && !same_result(want, *got, false))) {
      report.fail("engine-churn: final quote differs from the snapshot oracle");
    }
    if (k == 0 && got) {
      check_audit(snap->node(), s, ap, *got, report, "engine-churn final");
    }
  }
}

}  // namespace

void run_engine_churn(const Options& opt, Report& report) {
  const double setup = median_of(31, [&] {
    const Clock::time_point t0 = Clock::now();
    const NodeGraph g = scaled_udg(kNodes, opt.seed);
    Churn churn(g, central_node(g));
    return seconds_since(t0);
  });
  report.set("setup_s", setup, "s");

  // Passes of a fixed op count, each on its own seeded graph: every pass
  // replays the same warm-up-then-measure shape, so the cache hit rate
  // (which sets the latency mix) does not drift with run length, and a
  // run averages over several deployments instead of one.
  std::vector<double> all_ms, quote_ms, pass_mean_ms;
  double timed_s = 0.0;
  const Clock::time_point t_all = Clock::now();
  for (std::uint64_t pass = 0;
       pass == 0 || seconds_since(t_all) < 0.8 * opt.seconds; ++pass) {
    const std::uint64_t seed =
        pass == 0 ? opt.seed : derive_seed(opt.seed, 0xe9a55 + pass);
    const NodeGraph g = scaled_udg(kNodes, seed);
    ChurnStream stream(seed, g);
    Churn churn(g, stream.access_point());
    for (std::size_t i = 0; i < warmup_ops(opt); ++i) churn.apply(stream.next());

    std::vector<Sample> samples;
    std::uint64_t epoch = churn.engine.epoch();
    std::uint64_t quotes = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < measured_ops(opt); ++i) {
      const ChurnOp op = stream.next();
      if (op.declare) {
        const Cost c = churn.next_cost(op);
        const Clock::time_point a = Clock::now();
        const std::uint64_t e = churn.engine.declare_cost(op.v, c);
        const Clock::time_point b = Clock::now();
        all_ms.push_back(us_between(a, b) / 1e3);
        // Re-declaring the current cost is a no-op and keeps the epoch.
        if (c != churn.declared[op.v]) ++epoch;
        churn.declared[op.v] = c;
        if (e != epoch) report.fail("engine-churn: declare epoch out of sequence");
      } else {
        const Clock::time_point a = Clock::now();
        std::optional<tc::core::PaymentResult> q = churn.engine.quote(op.v);
        const Clock::time_point b = Clock::now();
        const double ms = us_between(a, b) / 1e3;
        all_ms.push_back(ms);
        quote_ms.push_back(ms);
        if (++quotes % kCheckEvery == 0) {
          samples.push_back({op.v, epoch, std::move(q), churn.declared});
        }
      }
    }
    const double pass_s = seconds_since(t0);
    timed_s += pass_s;
    pass_mean_ms.push_back(pass_s * 1e3 / static_cast<double>(measured_ops(opt)));

    if (opt.perturb && pass == 0) {
      for (Sample& sample : samples) {
        if (sample.quote) {
          perturb_payment(*sample.quote);
          break;
        }
      }
    }
    for (const Sample& sample : samples) {
      check_sample(g, stream.access_point(), sample, report);
    }
    check_final(churn, stream, report);
  }

  std::size_t within = 0;
  for (const double ms : all_ms) within += ms <= kLimitMs ? 1 : 0;
  // About half the ops are cache hits, so the per-op median sits on the
  // cliff between the hit and the miss/declare modes and jumps with a
  // point of hit rate. The typical op latency is reported instead as the
  // median over passes of each pass's mean op latency.
  report.set("p50_ms", median(pass_mean_ms), "ms");
  report.set("p99_ms", percentile(all_ms, 99.0), "ms");
  report.set("interactive_p99_ms", percentile(quote_ms, 99.0), "ms");
  report.set("ops_per_s", static_cast<double>(all_ms.size()) / timed_s, "1/s");
  report.set("goodput_rps", static_cast<double>(within) / timed_s, "1/s");
  report.set("success_rate", 1.0, "fraction");
  report.set("peak_rss_mib", peak_rss_mib(), "MiB");
  report.count(all_ms.size(), 0);
  scale_sweep(opt, 0.2 * opt.seconds, report, false);
}

double primary_engine_churn(const Options& opt, double budget_s,
                            Tracer& tracer, Report& report) {
  const NodeGraph g = scaled_udg(kNodes, opt.seed);
  ChurnStream stream(opt.seed, g);
  Churn churn(g, stream.access_point());
  for (std::size_t i = 0; i < warmup_ops(opt); ++i) churn.apply(stream.next());
  std::uint64_t ops = 0;
  const Clock::time_point t0 = Clock::now();
  while (seconds_since(t0) < budget_s) {
    const ChurnOp op = stream.next();
    Scope span(tracer, op.declare ? "engine.declare" : "engine.quote", ops);
    churn.apply(op);
    ++ops;
  }
  report.count(ops, 0);
  return seconds_since(t0) * 1e6 / static_cast<double>(ops);
}

void layers_engine_churn(const Options& opt, Tracer& tracer, Report& report) {
  const NodeGraph g = scaled_udg(kNodes, opt.seed);
  ChurnStream stream(opt.seed, g);
  const NodeId ap = stream.access_point();
  Churn churn(g, ap);
  for (std::size_t i = 0; i < warmup_ops(opt); ++i) churn.apply(stream.next());

  // Shadow mirror of the declare stream for CostDelta repair timing: the
  // access point plus the eight hottest quote sources.
  NodeGraph mirror = g;
  mirror.set_costs(churn.declared);
  tc::spath::DijkstraWorkspace ws;
  std::vector<tc::spath::CostDelta> roots(9);
  for (std::size_t r = 0; r < roots.size(); ++r) {
    roots[r].solve_node(mirror, r == 0 ? ap : stream.hot()[r - 1], ws);
  }
  std::vector<double> affected;

  const tc::svc::Pricer& pricer = churn.engine.pricer();
  const std::size_t replay = opt.tiny ? 300 : 3000;
  std::uint64_t declares = 0;
  std::uint64_t quotes = 0;
  const tc::svc::MetricsSnapshot m0 = churn.engine.metrics();
  for (std::uint64_t i = 0; i < replay; ++i) {
    const ChurnOp op = stream.next();
    if (op.declare) {
      const Cost c_old = churn.declared[op.v];
      const Cost c = churn.next_cost(op);
      {
        Scope span(tracer, "engine.declare", i);
        (void)churn.engine.declare_cost(op.v, c);
      }
      churn.declared[op.v] = c;
      ++declares;
      mirror.set_node_cost(op.v, c);
      for (tc::spath::CostDelta& d : roots) {
        Scope span(tracer, "spath.repair", i);
        d.apply_node_cost(mirror, op.v, c_old, ws);
        affected.push_back(static_cast<double>(d.last_affected()));
      }
      continue;
    }
    const tc::svc::MetricsSnapshot before = churn.engine.metrics();
    const Clock::time_point a = Clock::now();
    const auto q = churn.engine.quote(op.v);
    const Clock::time_point b = Clock::now();
    const tc::svc::MetricsSnapshot after = churn.engine.metrics();
    const bool hit = after.cache_hits > before.cache_hits;
    tracer.record(hit ? "engine.quote_hit" : "engine.quote_miss", a, b, i);
    if (++quotes % 10 != 0) continue;
    // Pricer::price on the engine's own snapshot, then price_with_spts
    // from trees solved outside the timed call.
    const auto snap = churn.engine.snapshot();
    tc::svc::PricedQuote cold, warm;
    {
      Scope span(tracer, "pricer.price", i);
      cold = pricer.price(*snap, op.v, ap);
    }
    tc::spath::SptResult spt_s = tc::spath::dijkstra_node(snap->node(), op.v);
    tc::spath::SptResult spt_t =
        tc::spath::dijkstra_node(snap->node(), ap);
    {
      Scope span(tracer, "pricer.price_with_spts", i);
      warm = pricer.price_with_spts(*snap, op.v, ap,
                                    std::move(spt_s), std::move(spt_t));
    }
    if (opt.perturb && quotes == 10) perturb_payment(warm.result);
    check_same(cold.result, warm.result, false, report,
               "engine-churn layers (cold vs warm pricer)");
    if (q.has_value() != cold.result.connected() ||
        (q && !same_result(cold.result, *q, false))) {
      report.fail("engine-churn layers: quote differs from Pricer::price");
    }
  }
  const tc::svc::MetricsSnapshot m1 = churn.engine.metrics();
  for (tc::spath::CostDelta& d : roots) {
    const tc::spath::SptResult fresh = tc::spath::dijkstra_node(mirror, d.source());
    if (fresh.dist != d.spt().dist) {
      report.fail("engine-churn layers: CostDelta repair diverged from a fresh solve");
    }
  }

  const auto per = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  const std::uint64_t hits = m1.cache_hits - m0.cache_hits;
  const std::uint64_t misses = m1.cache_misses - m0.cache_misses;
  report.set("engine.quote_hit_us",
             median(tracer.durations_us("engine.quote_hit")), "us");
  report.set("engine.quote_miss_us",
             median(tracer.durations_us("engine.quote_miss")), "us");
  report.set("engine.declare_us",
             median(tracer.durations_us("engine.declare")), "us");
  report.set("engine.hit_rate", per(hits, hits + misses), "fraction");
  report.set("engine.warm_priced_frac",
             per(m1.warm_priced - m0.warm_priced, misses), "fraction");
  report.set("engine.warm_fallbacks",
             static_cast<double>(m1.warm_fallbacks - m0.warm_fallbacks),
             "count");
  report.set("engine.warm_repairs_per_declare",
             per(m1.warm_repairs - m0.warm_repairs, declares), "ratio");
  report.set("engine.evicted_per_declare",
             per(m1.quotes_evicted - m0.quotes_evicted, declares), "ratio");
  report.set("engine.rebases",
             static_cast<double>(m1.snapshot_rebases - m0.snapshot_rebases),
             "count");
  report.set("pricer.cold_us", median(tracer.durations_us("pricer.price")),
             "us");
  report.set("pricer.warm_us",
             median(tracer.durations_us("pricer.price_with_spts")), "us");
  report.set("spath.repair_us", median(tracer.durations_us("spath.repair")),
             "us");
  report.set("spath.repair_affected",
             affected.empty() ? 0.0
                              : std::accumulate(affected.begin(),
                                                affected.end(), 0.0) /
                                    static_cast<double>(affected.size()),
             "count");

  // Batched multi-source kernel over the 32 hottest roots.
  const std::vector<NodeId> multi(stream.hot().begin(),
                                  stream.hot().begin() + 32);
  tc::spath::SptMatrix matrix;
  for (int rep = 0; rep < (opt.tiny ? 1 : 7); ++rep) {
    Scope span(tracer, "spath.multi", static_cast<std::uint64_t>(rep));
    tc::spath::spt_multi_into(ws, matrix, g, multi);
  }
  report.set("spath.multi_us_per_root",
             median(tracer.durations_us("spath.multi")) / 32.0, "us");
  report.count(replay, 0);
}

}  // namespace perfbench
