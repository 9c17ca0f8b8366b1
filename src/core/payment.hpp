// The unified payment-computation result type.
//
// Every centralized pricing entry point — `vcg_payments_naive`,
// `vcg_payments_fast`, `link_vcg_payments`, `fast_link_payments`,
// `neighbor_resistant_payments`, `q_set_payments` — and the serving layer
// (`svc::QuoteEngine`) returns this one type with identical conventions:
//
//  * Disconnected (no source->target path): `path` is empty, `path_cost`
//    is kInfCost, and `payments` is all-zero (size = num_nodes). Engines
//    never throw for unreachable targets; `connected()` is the query.
//  * Monopoly relay: `payments[k]` is kInfCost exactly when removing k
//    (or its collusion set, for the Q-set schemes) disconnects the
//    endpoints — the agent could demand any price. Cannot happen on
//    biconnected topologies (`graph::is_biconnected`).
//  * Off-path nodes are paid exactly 0.0 under the plain VCG schemes; the
//    collusion-resistant schemes may pay them a non-negative option value.
//  * `profile_version` stamps the declaration epoch the result was priced
//    under. One-shot engine calls leave it 0 ("unversioned"); the serving
//    layer stamps every quote, and `distsim::Ledger` can reject
//    settlement of quotes priced under a superseded profile.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.hpp"

namespace tc::core {

/// Result of computing VCG-style payments for one unicast request.
struct PaymentResult {
  /// The least cost path source..target inclusive (the mechanism output).
  /// Empty when the endpoints are disconnected.
  std::vector<graph::NodeId> path;
  /// Declared-cost total of `path` (interior relay costs in the node
  /// model; arc-cost sum in the link model). kInfCost when disconnected.
  graph::Cost path_cost = graph::kInfCost;
  /// payments[k]: payment owed to node k; 0 for nodes that earn nothing.
  /// May be kInfCost when removing k disconnects the endpoints (monopoly;
  /// cannot happen on biconnected graphs).
  std::vector<graph::Cost> payments;
  /// Declaration epoch this result was priced under; 0 when the result
  /// came from a one-shot engine call outside any serving epoch.
  std::uint64_t profile_version = 0;

  [[nodiscard]] bool connected() const {
    return graph::finite_cost(path_cost);
  }

  [[nodiscard]] graph::Cost total_payment() const {
    graph::Cost total = 0.0;
    for (graph::Cost p : payments) total += p;
    return total;
  }

  /// Overpayment = total payment minus the path's declared cost (what a
  /// non-strategic "pay cost" scheme would charge). Section III.G studies
  /// the ratio total_payment / path_cost.
  [[nodiscard]] graph::Cost overpayment() const {
    return total_payment() - path_cost;
  }

  /// Charge for a session of `packets` packets at this per-packet price
  /// (Section II.C's "s * p_k" for s packets).
  [[nodiscard]] graph::Cost total_for_packets(std::uint64_t packets) const {
    return total_payment() * static_cast<graph::Cost>(packets);
  }
};

}  // namespace tc::core
