// price-scale: cold Algorithm-1 pricing (core::vcg_payments_fast) of a
// seeded sample of sources to the access point on node-model UDGs at
// n = 1024, 4096, 16384 and 65536, one thread, no engine or cache. The
// only workload where the paper's O(n log n + m) claim shows.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "check.hpp"
#include "core/fast_payment.hpp"
#include "core/vcg_unicast.hpp"
#include "spath/workspace.hpp"

namespace perfbench {

namespace {

using tc::graph::NodeGraph;
using tc::graph::NodeId;

constexpr std::size_t kSizes[] = {1024, 4096, 16384, 65536};
/// Sources priced per size in one round of the sweep. Rounds interleave
/// the sizes, about a second each on the reference host, so every size's
/// samples spread over the whole run instead of one stretch of it.
constexpr std::size_t kPerRound[] = {64, 16, 4, 1};
/// Used by the traced decomposition: share of its budget per size, and
/// the minimum sample.
constexpr double kShare[] = {0.15, 0.15, 0.25, 0.45};
constexpr std::size_t kMinSources[] = {16, 8, 4, 3};
/// The latency limit goodput counts against (the fleet's default deadline).
constexpr double kLimitMs = 50.0;

std::vector<NodeGraph> make_graphs(std::uint64_t seed) {
  std::vector<NodeGraph> graphs;
  for (const std::size_t n : kSizes) graphs.push_back(scaled_udg(n, seed));
  return graphs;
}

/// The fixed seeded source sample for one graph; its target is the
/// graph's access point (the node nearest the centre).
class SourceStream {
 public:
  SourceStream(std::uint64_t seed, const NodeGraph& g)
      : rng_(derive_seed(seed, 0x5ca1e000 + g.num_nodes())),
        n_(g.num_nodes()),
        ap_(central_node(g)) {}
  NodeId next() { return node_other_than(rng_, n_, ap_); }
  NodeId access_point() const { return ap_; }

 private:
  tc::util::Rng rng_;
  std::size_t n_;
  NodeId ap_;
};

struct Sweep {
  std::vector<std::vector<double>> us;  ///< per size: per-source latency
  std::uint64_t attempted = 0;
};

/// Times cold pricing in interleaved rounds; checks a sample of the timed
/// outputs afterwards.
Sweep sweep(const std::vector<NodeGraph>& graphs, const Options& opt,
            double budget_s, Report& report) {
  const std::size_t sizes = graphs.size();
  std::vector<SourceStream> streams;
  std::vector<std::vector<std::pair<NodeId, tc::core::PaymentResult>>> kept(
      sizes);
  for (const NodeGraph& g : graphs) streams.emplace_back(opt.seed, g);
  Sweep out;
  out.us.resize(sizes);
  const std::size_t min_rounds = opt.tiny ? 1 : 3;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t round = 0;
       round < min_rounds || seconds_since(t0) < budget_s; ++round) {
    for (std::size_t i = 0; i < sizes; ++i) {
      const std::size_t keep = graphs[i].num_nodes() <= 4096 ? 4 : 1;
      for (std::size_t k = 0; k < (opt.tiny ? 1 : kPerRound[i]); ++k) {
        const NodeId s = streams[i].next();
        const NodeId ap = streams[i].access_point();
        const Clock::time_point a = Clock::now();
        tc::core::PaymentResult r = tc::core::vcg_payments_fast(graphs[i], s, ap);
        out.us[i].push_back(us_between(a, Clock::now()));
        if (kept[i].size() < keep) kept[i].emplace_back(s, std::move(r));
      }
      out.attempted += opt.tiny ? 1 : kPerRound[i];
    }
  }
  if (opt.perturb) perturb_payment(kept.front().front().second);
  for (std::size_t i = 0; i < sizes; ++i) {
    const NodeId ap = streams[i].access_point();
    for (const auto& [s, r] : kept[i]) {
      check_audit(graphs[i], s, ap, r, report, "price-scale");
      if (graphs[i].num_nodes() <= 1024) {
        check_naive(graphs[i], s, ap, r, report, "price-scale");
      }
    }
  }
  return out;
}

std::string size_tag(std::size_t n) { return ".n" + std::to_string(n); }

}  // namespace

void scale_sweep(const Options& opt, double budget_s, Report& report,
                 bool full_metrics) {
  const std::vector<NodeGraph> graphs = make_graphs(opt.seed);
  const Sweep s = sweep(graphs, opt, budget_s, report);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    report.set("us_per_source" + size_tag(kSizes[i]), median(s.us[i]), "us");
  }
  if (!full_metrics) return;
  // Per-request figures of price-scale are those of its n=1024 sources,
  // the size the serving workloads price at; rates are per second of
  // n=1024 pricing time.
  std::vector<double> ms;
  double stage = 0.0;
  std::size_t within = 0;
  for (const double us : s.us.front()) {
    ms.push_back(us / 1e3);
    stage += us / 1e6;
    within += us / 1e3 <= kLimitMs ? 1 : 0;
  }
  report.set("p50_ms", median(ms), "ms");
  report.set("p99_ms", percentile(ms, 99.0), "ms");
  report.set("interactive_p99_ms", percentile(ms, 99.0), "ms");
  report.set("ops_per_s", static_cast<double>(ms.size()) / stage, "1/s");
  report.set("goodput_rps", static_cast<double>(within) / stage, "1/s");
  report.set("success_rate", 1.0, "fraction");
  report.count(s.attempted, 0);
}

void run_price_scale(const Options& opt, Report& report) {
  std::vector<NodeGraph> graphs;
  const double setup = median_of(5, [&] {
    const Clock::time_point t0 = Clock::now();
    graphs = make_graphs(opt.seed);
    return seconds_since(t0);
  });
  graphs.clear();
  report.set("setup_s", setup, "s");
  scale_sweep(opt, opt.seconds, report, true);
  report.set("peak_rss_mib", peak_rss_mib(), "MiB");
}

double primary_price_scale(const Options& opt, double budget_s, Tracer& tracer,
                           Report& report) {
  const NodeGraph g = scaled_udg(kSizes[0], opt.seed);
  SourceStream sources(opt.seed, g);
  const NodeId ap = sources.access_point();
  std::vector<double> lat;
  const Clock::time_point t0 = Clock::now();
  while (lat.size() < 16 || seconds_since(t0) < budget_s) {
    const NodeId s = sources.next();
    const Clock::time_point a = Clock::now();
    {
      Scope span(tracer, "price.cold.n1024", lat.size());
      (void)tc::core::vcg_payments_fast(g, s, ap);
    }
    lat.push_back(us_between(a, Clock::now()));
  }
  report.count(lat.size(), 0);
  return median(lat);
}

void layers_price_scale(const Options& opt, double budget_s, Tracer& tracer,
                        Report& report) {
  const std::vector<NodeGraph> graphs = make_graphs(opt.seed);
  std::vector<double> sizes, cold_med;
  std::uint64_t priced = 0;
  // Decompose each source's cold pricing into the calls core makes:
  // two SPT solves (spath) and pricing from the trees (core).
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const NodeGraph& g = graphs[i];
    const std::string tag = size_tag(g.num_nodes());
    SourceStream sources(opt.seed, g);
    const NodeId ap = sources.access_point();
    const std::size_t min_sources = opt.tiny ? 1 : kMinSources[i];
    const Clock::time_point t0 = Clock::now();
    for (std::size_t k = 0;
         k < min_sources || seconds_since(t0) < 0.6 * kShare[i] * budget_s;
         ++k) {
      const NodeId s = sources.next();
      tc::core::PaymentResult parts, cold;
      {
        Scope whole(tracer, "price.source" + tag, k);
        tc::spath::SptResult spt_s, spt_t;
        {
          Scope a(tracer, "spath.spt" + tag, k);
          spt_s = tc::spath::dijkstra_node(g, s);
        }
        {
          Scope a(tracer, "spath.spt" + tag, k);
          spt_t = tc::spath::dijkstra_node(g, ap);
        }
        Scope a(tracer, "core.price" + tag, k);
        parts = tc::core::vcg_payments_fast(g, s, ap, spt_s, spt_t);
      }
      {
        Scope a(tracer, "price.cold" + tag, k);
        cold = tc::core::vcg_payments_fast(g, s, ap);
      }
      if (k == 0 && opt.perturb) perturb_payment(parts);
      if (k < 2) check_same(cold, parts, true, report, "price-scale layers");
      ++priced;
    }
    const double spt = median(tracer.durations_us("spath.spt" + tag));
    const double price = median(tracer.durations_us("core.price" + tag));
    const double cold = median(tracer.durations_us("price.cold" + tag));
    report.set("spath.spt_us" + tag, spt, "us");
    report.set("core.price_us" + tag, price, "us");
    report.set("core.accounted" + tag, (2.0 * spt + price) / cold, "ratio");
    sizes.push_back(static_cast<double>(g.num_nodes()));
    cold_med.push_back(cold);
  }
  report.set("core.fast_exponent", loglog_slope(sizes, cold_med), "slope");

  // Workspace kernels per heap kind at the smallest and largest size.
  static constexpr std::pair<tc::spath::HeapKind, const char*> kHeaps[] = {
      {tc::spath::HeapKind::kBinary, "binary"},
      {tc::spath::HeapKind::kQuad, "quad"},
      {tc::spath::HeapKind::kPairing, "pairing"},
      {tc::spath::HeapKind::kBucket, "bucket"}};
  tc::spath::DijkstraWorkspace ws;
  for (const std::size_t idx : {std::size_t{0}, std::size_t{3}}) {
    const NodeGraph& g = graphs[idx];
    const std::string tag = size_tag(g.num_nodes());
    const std::size_t reps = opt.tiny ? 1 : (idx == 0 ? 24 : 3);
    for (const auto& [heap, name] : kHeaps) {
      SourceStream sources(opt.seed, g);
      const std::string span = std::string("spath.solve.") + name + tag;
      for (std::size_t k = 0; k < reps; ++k) {
        const NodeId s = sources.next();
        Scope a(tracer, span, k);
        tc::spath::dijkstra_node_into(ws, g, s, {}, tc::graph::kInvalidNode,
                                      heap);
      }
      report.set(std::string("spath.solve_us.") + name + tag,
                 median(tracer.durations_us(span)), "us");
    }
  }

  // The naive engine (one masked solve per relay) at n <= 1024.
  std::vector<double> naive_n, naive_us;
  for (const std::size_t n : {128, 256, 512, 1024}) {
    const NodeGraph g = scaled_udg(n, opt.seed);
    SourceStream sources(opt.seed, g);
    const std::string span = "core.naive" + size_tag(n);
    for (std::size_t k = 0; k < (opt.tiny ? 1u : 5u); ++k) {
      const NodeId s = sources.next();
      Scope a(tracer, span, k);
      (void)tc::core::vcg_payments_naive(g, s, sources.access_point());
    }
    naive_n.push_back(static_cast<double>(n));
    naive_us.push_back(median(tracer.durations_us(span)));
  }
  report.set("core.naive_exponent", loglog_slope(naive_n, naive_us), "slope");
  report.count(priced, 0);
}

}  // namespace perfbench
