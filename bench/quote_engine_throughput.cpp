// Serving-layer throughput: svc::QuoteEngine::quote_all() (sharded cache +
// thread-pool fan-out + incremental invalidation) versus the legacy
// single-threaded service on a paper-style UDG deployment.
//
// Each iteration re-declares a handful of random node costs (the steady
// state of a selfish network: agents keep re-bidding) and then serves a
// full quote_all sweep. The legacy baseline does what the retired
// single-threaded service's quote_all did after a re-declaration: it
// re-declares on its own graph copy and recomputes every source from
// scratch with vcg_payments_fast on one thread. The engine prices only
// invalidated entries, in parallel. The reported speedup was first
// measured on an 8-core runner; thread count follows TRUTHCAST_THREADS.
//
// Run with --iters=1 for a CI smoke (also exercised under tsan).
// --json/--csv mirror the table (BENCH_quote_engine.json is the committed
// reference for tools/bench_compare.py).
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "core/fast_payment.hpp"
#include "graph/generators.hpp"
#include "svc/quote_engine.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace tc;

/// The legacy service's quote_all: every source other than the access
/// point, priced from scratch on the calling thread.
std::size_t legacy_quote_all(const graph::NodeGraph& g, graph::NodeId ap) {
  std::size_t connected = 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == ap) continue;
    if (core::vcg_payments_fast(g, v, ap).connected()) ++connected;
  }
  return connected;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags("QuoteEngine vs legacy-service quote_all throughput");
  flags.add_int("n", 1024, "number of nodes in the UDG deployment")
      .add_int("iters", 5, "measured quote_all sweeps per engine")
      .add_int("redeclare", 4, "random re-declarations before each sweep")
      .add_int("seed", 7, "topology / declaration seed")
      .add_string("csv", "", "optional CSV output path")
      .add_string("json", "", "optional JSON output path");
  if (!flags.parse(argc, argv)) return 1;

  const auto n = static_cast<std::size_t>(flags.get_int("n"));
  const int iters = static_cast<int>(flags.get_int("iters"));
  const int redeclare = static_cast<int>(flags.get_int("redeclare"));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  graph::UdgParams params;
  params.n = n;
  // Scale the region with n to hold the paper's n=300-in-2000m density.
  const double side = 2000.0 * std::sqrt(static_cast<double>(n) / 300.0);
  params.region = {side, side};
  params.range_m = 300.0;
  const auto g = graph::make_unit_disk_node(params, 1.0, 10.0, seed);

  bench::banner("quote_all sweep throughput under re-declaration",
                "sharded + incremental engine several x the legacy service");
  std::printf("n=%zu  iters=%d  redeclare=%d  threads=%zu\n", n, iters,
              redeclare, util::default_pool().worker_count());

  // Pre-draw the declaration schedule so both engines see identical
  // profiles at every step.
  util::Rng rng(seed ^ 0xdecafULL);
  std::vector<std::pair<graph::NodeId, graph::Cost>> schedule;
  for (int i = 0; i < iters * redeclare; ++i) {
    schedule.emplace_back(
        static_cast<graph::NodeId>(1 + rng.next_below(n - 1)),
        rng.uniform(0.5, 12.0));
  }

  graph::NodeGraph legacy = g;
  svc::QuoteEngine engine(g, 0);

  // Warm both sides with one untimed sweep.
  (void)legacy_quote_all(legacy, 0);
  (void)engine.quote_all();

  const auto legacy_start = std::chrono::steady_clock::now();
  for (int it = 0; it < iters; ++it) {
    for (int r = 0; r < redeclare; ++r) {
      const auto& [v, c] = schedule[static_cast<std::size_t>(it * redeclare + r)];
      legacy.set_node_cost(v, c);
    }
    (void)legacy_quote_all(legacy, 0);
  }
  const double legacy_s = seconds_since(legacy_start);

  const auto engine_start = std::chrono::steady_clock::now();
  for (int it = 0; it < iters; ++it) {
    for (int r = 0; r < redeclare; ++r) {
      const auto& [v, c] = schedule[static_cast<std::size_t>(it * redeclare + r)];
      engine.declare_cost(v, c);
    }
    (void)engine.quote_all();
  }
  const double engine_s = seconds_since(engine_start);

  const double sweeps = static_cast<double>(iters);
  bench::Report report(
      {"engine", "n", "iters", "redeclare", "total_s", "s_per_sweep",
       "speedup"});
  report.add_row({"legacy-unicast-service", std::to_string(n),
                  std::to_string(iters), std::to_string(redeclare),
                  util::fmt(legacy_s, 3), util::fmt(legacy_s / sweeps, 4),
                  util::fmt(1.0, 2)});
  report.add_row({"quote-engine", std::to_string(n), std::to_string(iters),
                  std::to_string(redeclare), util::fmt(engine_s, 3),
                  util::fmt(engine_s / sweeps, 4),
                  util::fmt(engine_s > 0.0 ? legacy_s / engine_s : 0.0, 2)});
  report.print();
  report.write_csv(flags.get_string("csv"));
  report.write_json(flags.get_string("json"));
  std::printf("\n%s", engine.metrics().to_string().c_str());
  return 0;
}
