// Kernel throughput: allocation-free workspace kernels vs the
// pre-workspace allocating implementations.
//
// Each bench times a baseline replica of the old code (fresh vectors /
// full masked Dijkstras on the frozen allocating loop of
// tests/reference/dijkstra_reference.hpp, as shipped before the workspace
// layer) against the current engines, asserting bit-identical results:
//   dijkstra-node / dijkstra-link : one SPT, frozen allocating loop vs
//                                   workspace; the live allocating
//                                   wrappers must match the loop too
//   dijkstra-node-batched / -link-batched : many roots, independent warm
//                                   solves vs one spt_multi_into pass
//   collusion-payment             : neighbor_resistant_payments per query
//   fig3b-instance                : overpayment_link_model per instance
//   fast-payment                  : vcg_payments_fast per source, against
//                                   the frozen pre-workspace Algorithm 1
//                                   (tests/reference), memcmp-equal
//   fast-link-payment / edge-vcg-fast : fast_link_payments and
//                                   edge_vcg_payments_fast per source on
//                                   the link UDG, against the frozen
//                                   heap-sweep engines (tests/reference),
//                                   memcmp-equal
//   fast-payment-steps            : Algorithm 1's steps 2-6 alone, the
//                                   SPT-accepting vcg_payments_fast per
//                                   source with both trees solved outside
//                                   the timer, against the frozen
//                                   reference's fast_payments_from_spts,
//                                   memcmp-equal; on price-scale-shaped
//                                   UDGs (side 2000 m * sqrt(n / 1024),
//                                   range 300 m, costs U[1, 10]) at
//                                   n = 1024..65536 (--quick: 1024)
// --heap=binary|quad|pairing|bucket selects the workspace-side queue for
// the dijkstra rows (kBucket: bit-identical dist, own parent tie-break).
// Run with --json BENCH_kernels.json to refresh the committed numbers.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/edge_vcg.hpp"
#include "core/fast_link_payment.hpp"
#include "core/fast_payment.hpp"
#include "core/neighbor_collusion.hpp"
#include "core/overpayment.hpp"
#include "graph/generators.hpp"
#include "spath/batch.hpp"
#include "spath/dijkstra.hpp"
#include "spath/workspace.hpp"
#include "dijkstra_reference.hpp"
#include "fast_payment_reference.hpp"
#include "link_payment_reference.hpp"
#include "util/flags.hpp"

namespace {

using namespace tc;
using graph::Cost;
using graph::kInfCost;
using graph::kInvalidNode;
using graph::NodeId;

double min_seconds_of(std::size_t iters, const std::function<void()>& body) {
  double best = 1e300;
  for (std::size_t i = 0; i < iters; ++i) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    best = std::min(best, elapsed.count());
  }
  return best;
}

void require(bool ok, const char* what) {
  if (!ok) {
    std::cerr << "RESULT MISMATCH: " << what << "\n";
    std::exit(1);
  }
}

/// Bit-for-bit equality of two trees: source, memcmp on dist, parents.
bool same_spt(const spath::SptResult& a, const spath::SptResult& b) {
  return a.source == b.source && a.dist.size() == b.dist.size() &&
         std::memcmp(a.dist.data(), b.dist.data(),
                     a.dist.size() * sizeof(Cost)) == 0 &&
         a.parent == b.parent;
}

/// Bit-for-bit equality: memcmp on path_cost and the payment vector.
bool same_payments(const core::PaymentResult& a, const core::PaymentResult& b) {
  return a.path == b.path &&
         std::memcmp(&a.path_cost, &b.path_cost, sizeof(Cost)) == 0 &&
         a.payments.size() == b.payments.size() &&
         std::memcmp(a.payments.data(), b.payments.data(),
                     a.payments.size() * sizeof(Cost)) == 0;
}

/// Bit-for-bit equality of two edge-agent results.
bool same_edge_payments(const core::EdgeVcgResult& a,
                        const core::EdgeVcgResult& b) {
  if (a.path != b.path ||
      std::memcmp(&a.path_cost, &b.path_cost, sizeof(Cost)) != 0 ||
      a.payments.size() != b.payments.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.payments.size(); ++i) {
    const core::EdgePayment& x = a.payments[i];
    const core::EdgePayment& y = b.payments[i];
    if (x.u != y.u || x.v != y.v ||
        std::memcmp(&x.declared, &y.declared, sizeof(Cost)) != 0 ||
        std::memcmp(&x.payment, &y.payment, sizeof(Cost)) != 0) {
      return false;
    }
  }
  return true;
}

// --- pre-PR baselines (replicas of the old engine bodies) ------------------

core::PaymentResult baseline_neighbor_resistant(const graph::NodeGraph& g,
                                                NodeId source, NodeId target) {
  core::PaymentResult result;
  result.payments.assign(g.num_nodes(), 0.0);
  const spath::SptResult spt = spath::reference::dijkstra_node(g, source);
  if (!spt.reached(target)) return result;
  spt.path_to_into(target, result.path);
  result.path_cost = spt.dist[target];
  std::vector<bool> on_path(g.num_nodes(), false);
  for (std::size_t i = 1; i + 1 < result.path.size(); ++i)
    on_path[result.path[i]] = true;
  for (NodeId k = 0; k < g.num_nodes(); ++k) {
    if (k == source || k == target) continue;
    graph::NodeMask mask(g.num_nodes());
    for (NodeId v : core::closed_neighborhood(g, k)) {
      if (v != source && v != target) mask.block(v);
    }
    const spath::SptResult avoid =
        spath::reference::dijkstra_node(g, source, mask);
    const Cost avoid_cost =
        avoid.reached(target) ? avoid.dist[target] : kInfCost;
    if (!graph::finite_cost(avoid_cost)) {
      result.payments[k] = kInfCost;
      continue;
    }
    result.payments[k] =
        (on_path[k] ? g.node_cost(k) : 0.0) + (avoid_cost - result.path_cost);
  }
  return result;
}

core::OverpaymentResult baseline_overpayment_link(const graph::LinkGraph& g,
                                                  NodeId ap) {
  const std::size_t n = g.num_nodes();
  // The old study rebuilt the reverse graph on every call.
  const graph::LinkGraph rev = spath::reference::reverse_graph(g);
  const spath::SptResult to_ap = spath::reference::dijkstra_link(rev, ap);
  core::OverpaymentResult result;
  std::size_t skipped = 0;
  std::size_t monopolies = 0;
  std::vector<std::vector<Cost>> avoid_cache(n);
  auto avoid_for = [&](NodeId k) -> const std::vector<Cost>& {
    if (avoid_cache[k].empty()) {
      graph::NodeMask mask(n);
      mask.block(k);
      avoid_cache[k] = spath::reference::dijkstra_link(rev, ap, mask).dist;
    }
    return avoid_cache[k];
  };
  for (NodeId i = 0; i < n; ++i) {
    if (i == ap) continue;
    if (!to_ap.reached(i)) {
      ++skipped;
      continue;
    }
    core::SourceOverpayment src;
    src.source = i;
    const Cost full_cost = to_ap.dist[i];
    const NodeId first_hop = to_ap.parent[i];
    src.lcp_cost = full_cost - (first_hop == kInvalidNode
                                    ? 0.0
                                    : g.arc_cost(i, first_hop));
    bool monopoly = false;
    Cost payment = 0.0;
    std::size_t hops = 0;
    for (NodeId k = to_ap.parent[i]; k != kInvalidNode && !monopoly;
         k = to_ap.parent[k]) {
      ++hops;
      if (k == ap) break;
      const Cost avoided = avoid_for(k)[i];
      if (!graph::finite_cost(avoided)) {
        monopoly = true;
        break;
      }
      payment += g.arc_cost(k, to_ap.parent[k]) + (avoided - full_cost);
    }
    if (monopoly) {
      ++monopolies;
      continue;
    }
    src.payment = payment;
    src.hops = hops;
    if (src.hops <= 1) ++skipped;
    result.per_source.push_back(src);
  }
  result.metrics =
      core::summarize_overpayment(result.per_source, monopolies, skipped);
  return result;
}

bool same_overpayment(const core::OverpaymentResult& a,
                      const core::OverpaymentResult& b) {
  if (a.per_source.size() != b.per_source.size()) return false;
  for (std::size_t i = 0; i < a.per_source.size(); ++i) {
    if (a.per_source[i].source != b.per_source[i].source ||
        a.per_source[i].payment != b.per_source[i].payment ||
        a.per_source[i].lcp_cost != b.per_source[i].lcp_cost ||
        a.per_source[i].hops != b.per_source[i].hops) {
      return false;
    }
  }
  return a.metrics.tor == b.metrics.tor && a.metrics.ior == b.metrics.ior;
}

std::string fmt_ms(double seconds) { return util::fmt(seconds * 1e3, 3); }

/// The node nearest the centre of a side x side region.
NodeId central_node(const graph::NodeGraph& g, double side) {
  NodeId best = 0;
  double best_d2 = 1e300;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const double dx = g.position(v).x - side / 2;
    const double dy = g.position(v).y - side / 2;
    if (dx * dx + dy * dy < best_d2) {
      best_d2 = dx * dx + dy * dy;
      best = v;
    }
  }
  return best;
}

spath::HeapKind heap_of(const std::string& name) {
  if (name == "binary") return spath::HeapKind::kBinary;
  if (name == "quad") return spath::HeapKind::kQuad;
  if (name == "pairing") return spath::HeapKind::kPairing;
  if (name == "bucket") return spath::HeapKind::kBucket;
  std::cerr << "unknown --heap '" << name
            << "' (binary|quad|pairing|bucket)\n";
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags("Kernel throughput: workspace kernels vs allocating baseline");
  flags.add_int("iters", 5, "timing iterations (min taken)")
      .add_int("seed", 0x5eed, "topology RNG seed")
      .add_bool("quick", false, "n=256 only (CI smoke)")
      .add_string("heap", "binary",
                  "workspace queue for the dijkstra rows "
                  "(binary|quad|pairing|bucket)")
      .add_string("json", "", "optional JSON output path")
      .add_string("csv", "", "optional CSV output path");
  if (!flags.parse(argc, argv)) return 1;
  const auto iters = static_cast<std::size_t>(flags.get_int("iters"));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const spath::HeapKind heap = heap_of(flags.get_string("heap"));

  bench::banner("Kernel throughput (workspace vs fresh-allocation baseline)",
                "workspace/delta kernels >= 2x on payment engines at n=1024");

  bench::Report report({"bench", "n", "baseline_ms", "workspace_ms", "speedup",
                        "iters"});
  std::vector<std::size_t> sizes{256, 1024};
  if (flags.get_bool("quick")) sizes = {256};

  for (const std::size_t n : sizes) {
    graph::UdgParams params;
    params.n = n;

    // -- single-SPT kernels (node + link models) --------------------------
    const auto node_g = graph::make_unit_disk_node(params, 1.0, 100.0, seed);
    const auto link_g = graph::make_unit_disk_link(params, seed);
    const std::size_t sources = 32;
    double sink = 0.0;

    const double node_alloc = min_seconds_of(iters, [&] {
      for (std::size_t s = 0; s < sources; ++s) {
        sink += spath::reference::dijkstra_node(node_g, static_cast<NodeId>(s))
                    .dist[n - 1];
      }
    });
    const double node_ws = min_seconds_of(iters, [&] {
      spath::DijkstraWorkspace& ws = spath::thread_local_workspace();
      for (std::size_t s = 0; s < sources; ++s) {
        spath::dijkstra_node_into(ws, node_g, static_cast<NodeId>(s), {},
                                  kInvalidNode, heap);
        sink += ws.dist(static_cast<NodeId>(n - 1));
      }
    });
    for (std::size_t s = 0; s < sources; ++s) {
      const auto src = static_cast<NodeId>(s);
      require(same_spt(spath::dijkstra_node(node_g, src),
                       spath::reference::dijkstra_node(node_g, src)),
              "dijkstra_node wrapper diverged from the frozen loop");
    }
    report.add_row({"dijkstra-node", std::to_string(n), fmt_ms(node_alloc),
                    fmt_ms(node_ws), util::fmt(node_alloc / node_ws, 2),
                    std::to_string(iters)});

    const double link_alloc = min_seconds_of(iters, [&] {
      for (std::size_t s = 0; s < sources; ++s) {
        sink += spath::reference::dijkstra_link(link_g, static_cast<NodeId>(s))
                    .dist[n - 1];
      }
    });
    const double link_ws = min_seconds_of(iters, [&] {
      spath::DijkstraWorkspace& ws = spath::thread_local_workspace();
      for (std::size_t s = 0; s < sources; ++s) {
        spath::dijkstra_link_into(ws, link_g, static_cast<NodeId>(s), {},
                                  kInvalidNode, heap);
        sink += ws.dist(static_cast<NodeId>(n - 1));
      }
    });
    for (std::size_t s = 0; s < sources; ++s) {
      const auto src = static_cast<NodeId>(s);
      require(same_spt(spath::dijkstra_link(link_g, src),
                       spath::reference::dijkstra_link(link_g, src)),
              "dijkstra_link wrapper diverged from the frozen loop");
    }
    report.add_row({"dijkstra-link", std::to_string(n), fmt_ms(link_alloc),
                    fmt_ms(link_ws), util::fmt(link_alloc / link_ws, 2),
                    std::to_string(iters)});

    // -- many-roots batched kernels ---------------------------------------
    // Baseline: the best a per-root consumer could do before spt_multi_into
    // — warm `_into` solves materialized root by root. Workspace: one
    // batched pass into a flat matrix, same materialized rows.
    std::vector<NodeId> roots(sources);
    for (std::size_t i = 0; i < sources; ++i) roots[i] = static_cast<NodeId>(i);
    spath::SptMatrix matrix;

    std::vector<spath::SptResult> node_rows(sources);
    const double nb_base = min_seconds_of(iters, [&] {
      spath::DijkstraWorkspace& ws = spath::thread_local_workspace();
      for (std::size_t i = 0; i < sources; ++i) {
        spath::dijkstra_node_into(ws, node_g, roots[i], {}, kInvalidNode, heap);
        node_rows[i] = ws.to_result();
      }
    });
    const double nb_ws = min_seconds_of(iters, [&] {
      spath::spt_multi_into(spath::thread_local_workspace(), matrix, node_g,
                            roots, {}, heap);
    });
    for (std::size_t i = 0; i < sources; ++i) {
      require(node_rows[i].dist == std::vector<Cost>(matrix.dist(i).begin(),
                                                     matrix.dist(i).end()) &&
                  node_rows[i].parent ==
                      std::vector<NodeId>(matrix.parent(i).begin(),
                                          matrix.parent(i).end()),
              "batched node rows diverged from independent warm solves");
    }
    report.add_row({"dijkstra-node-batched", std::to_string(n),
                    fmt_ms(nb_base), fmt_ms(nb_ws),
                    util::fmt(nb_base / nb_ws, 2), std::to_string(iters)});

    std::vector<spath::SptResult> link_rows(sources);
    const double lb_base = min_seconds_of(iters, [&] {
      spath::DijkstraWorkspace& ws = spath::thread_local_workspace();
      for (std::size_t i = 0; i < sources; ++i) {
        spath::dijkstra_link_into(ws, link_g, roots[i], {}, kInvalidNode, heap);
        link_rows[i] = ws.to_result();
      }
    });
    const double lb_ws = min_seconds_of(iters, [&] {
      spath::spt_multi_into(spath::thread_local_workspace(), matrix, link_g,
                            roots, {}, heap);
    });
    for (std::size_t i = 0; i < sources; ++i) {
      require(link_rows[i].dist == std::vector<Cost>(matrix.dist(i).begin(),
                                                     matrix.dist(i).end()) &&
                  link_rows[i].parent ==
                      std::vector<NodeId>(matrix.parent(i).begin(),
                                          matrix.parent(i).end()),
              "batched link rows diverged from independent warm solves");
    }
    report.add_row({"dijkstra-link-batched", std::to_string(n),
                    fmt_ms(lb_base), fmt_ms(lb_ws),
                    util::fmt(lb_base / lb_ws, 2), std::to_string(iters)});

    // -- neighbor-collusion payment engine --------------------------------
    const NodeId s = 0;
    const auto t = static_cast<NodeId>(n / 2);
    core::PaymentResult base_pay, new_pay;
    const double coll_base = min_seconds_of(
        iters, [&] { base_pay = baseline_neighbor_resistant(node_g, s, t); });
    const double coll_ws = min_seconds_of(
        iters, [&] { new_pay = core::neighbor_resistant_payments(node_g, s, t); });
    require(same_payments(base_pay, new_pay),
            "neighbor-collusion payments diverged from baseline");
    report.add_row({"collusion-payment", std::to_string(n), fmt_ms(coll_base),
                    fmt_ms(coll_ws), util::fmt(coll_base / coll_ws, 2),
                    std::to_string(iters)});

    // -- Fig. 3(b) overpayment study, one instance ------------------------
    core::OverpaymentResult base_op, new_op;
    const double fig3_base = min_seconds_of(
        iters, [&] { base_op = baseline_overpayment_link(link_g, 0); });
    const double fig3_ws = min_seconds_of(
        iters, [&] { new_op = core::overpayment_link_model(link_g, 0); });
    require(same_overpayment(base_op, new_op),
            "overpayment study diverged from baseline");
    report.add_row({"fig3b-instance", std::to_string(n), fmt_ms(fig3_base),
                    fmt_ms(fig3_ws), util::fmt(fig3_base / fig3_ws, 2),
                    std::to_string(iters)});

    // -- Algorithm 1, cold, per source -----------------------------------
    std::vector<core::PaymentResult> ref_pays(sources), fast_pays(sources);
    const auto pay_target = static_cast<NodeId>(n / 2);  // >= sources
    const double pay_base = min_seconds_of(iters, [&] {
      for (std::size_t i = 0; i < sources; ++i) {
        ref_pays[i] = core::reference::vcg_payments_fast(
            node_g, static_cast<NodeId>(i), pay_target);
      }
    });
    const double pay_ws = min_seconds_of(iters, [&] {
      for (std::size_t i = 0; i < sources; ++i) {
        fast_pays[i] =
            core::vcg_payments_fast(node_g, static_cast<NodeId>(i), pay_target);
      }
    });
    for (std::size_t i = 0; i < sources; ++i) {
      require(same_payments(ref_pays[i], fast_pays[i]),
              "Algorithm 1 payments diverged from the frozen reference");
    }
    report.add_row({"fast-payment", std::to_string(n), fmt_ms(pay_base),
                    fmt_ms(pay_ws), util::fmt(pay_base / pay_ws, 2),
                    std::to_string(iters)});

    // -- Algorithm 1 on symmetric link costs, node and edge agents -------
    const double link_pay_base = min_seconds_of(iters, [&] {
      for (std::size_t i = 0; i < sources; ++i) {
        ref_pays[i] = core::reference::fast_link_payments(
            link_g, static_cast<NodeId>(i), pay_target);
      }
    });
    const double link_pay_ws = min_seconds_of(iters, [&] {
      for (std::size_t i = 0; i < sources; ++i) {
        fast_pays[i] = core::fast_link_payments(
            link_g, static_cast<NodeId>(i), pay_target);
      }
    });
    for (std::size_t i = 0; i < sources; ++i) {
      require(same_payments(ref_pays[i], fast_pays[i]),
              "link payments diverged from the frozen reference");
    }
    report.add_row({"fast-link-payment", std::to_string(n),
                    fmt_ms(link_pay_base), fmt_ms(link_pay_ws),
                    util::fmt(link_pay_base / link_pay_ws, 2),
                    std::to_string(iters)});

    std::vector<core::EdgeVcgResult> ref_edges(sources), fast_edges(sources);
    const double edge_base = min_seconds_of(iters, [&] {
      for (std::size_t i = 0; i < sources; ++i) {
        ref_edges[i] = core::reference::edge_vcg_payments_fast(
            link_g, static_cast<NodeId>(i), pay_target);
      }
    });
    const double edge_ws = min_seconds_of(iters, [&] {
      for (std::size_t i = 0; i < sources; ++i) {
        fast_edges[i] = core::edge_vcg_payments_fast(
            link_g, static_cast<NodeId>(i), pay_target);
      }
    });
    for (std::size_t i = 0; i < sources; ++i) {
      require(same_edge_payments(ref_edges[i], fast_edges[i]),
              "edge-agent payments diverged from the frozen reference");
    }
    report.add_row({"edge-vcg-fast", std::to_string(n), fmt_ms(edge_base),
                    fmt_ms(edge_ws), util::fmt(edge_base / edge_ws, 2),
                    std::to_string(iters)});

    if (sink == 12345.6789) std::cerr << "";  // keep the sink live
  }

  // -- Algorithm 1 steps 2-6 across scale, both trees given -------------
  std::vector<std::size_t> step_sizes{1024, 4096, 16384, 65536};
  if (flags.get_bool("quick")) step_sizes = {1024};
  for (const std::size_t n : step_sizes) {
    graph::UdgParams params;
    params.n = n;
    const double side = 2000.0 * std::sqrt(static_cast<double>(n) / 1024.0);
    params.region = {side, side};
    params.range_m = 300.0;
    const auto g = graph::make_unit_disk_node(params, 1.0, 10.0, seed + n);
    const NodeId target = central_node(g, side);
    const spath::SptResult spt_target = spath::dijkstra_node(g, target);
    // Up to 32 sources at n = 1024, halving per size step (at least 4),
    // taken in id order among the nodes that reach the target.
    const std::size_t want = std::max<std::size_t>(4, 32 * 1024 / n);
    std::vector<NodeId> srcs;
    std::vector<spath::SptResult> src_trees;
    for (NodeId v = 0; v < n && srcs.size() < want; ++v) {
      if (v == target || !spt_target.reached(v)) continue;
      srcs.push_back(v);
      src_trees.push_back(spath::dijkstra_node(g, v));
    }
    std::vector<core::PaymentResult> ref(srcs.size()), fast(srcs.size());
    const double steps_base = min_seconds_of(iters, [&] {
      for (std::size_t i = 0; i < srcs.size(); ++i) {
        ref[i] = core::reference::fast_payments_from_spts(
            g, srcs[i], target, src_trees[i], spt_target);
      }
    });
    const double steps_ws = min_seconds_of(iters, [&] {
      for (std::size_t i = 0; i < srcs.size(); ++i) {
        fast[i] = core::vcg_payments_fast(g, srcs[i], target, src_trees[i],
                                          spt_target);
      }
    });
    for (std::size_t i = 0; i < srcs.size(); ++i) {
      require(same_payments(ref[i], fast[i]),
              "steps 2-6 diverged from the frozen reference");
    }
    report.add_row({"fast-payment-steps", std::to_string(n),
                    fmt_ms(steps_base), fmt_ms(steps_ws),
                    util::fmt(steps_base / steps_ws, 2),
                    std::to_string(iters)});
  }

  report.print();
  report.write_csv(flags.get_string("csv"));
  report.write_json(flags.get_string("json"));
  return 0;
}
