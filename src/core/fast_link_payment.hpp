// Algorithm 1 adapted to the link-weighted model (paper Section III.F):
// "the fast payment scheme based on Algorithm 1 can be modified to
// compute the payment in time O(n log n + m) when each node is an agent
// in a link-weighted directed network."
//
// The adaptation here covers *symmetric* link costs (c_uv = c_vu — the
// paper's own Fig. 3 a-d cost model, where link cost is a function of
// distance only). Symmetry is what makes the replacement-path exchange
// arguments (Lemmas 1-3) go through: with genuinely asymmetric arcs the
// subpath-reversal step of Lemma 2's proof is unavailable, and computing
// all vertex-replacement paths in a directed graph subquadratically is a
// long-standing open problem. For asymmetric inputs use
// link_vcg_payments (naive per-relay Dijkstra).
//
// There is no separate link engine: fast_link_payments checks symmetry
// and runs Algorithm 1's kernel (fast_payment.hpp, DESIGN.md §1.2.1)
// instantiated with the link cost policy, where a hop u-v costs w(u,v)
// instead of the relay's node cost. It shares the node engine's fused
// scan, restricted Dijkstra, range-min tree and thread-local scratch,
// and is bit-identical to the heap-sweep engine it replaced (pinned by
// tests/core_link_payment_bits_test.cpp).
#pragma once

#include "core/payment.hpp"
#include "graph/link_graph.hpp"

namespace tc::core {

/// True when every arc u->v has a reverse arc v->u of equal cost.
[[nodiscard]] bool is_symmetric(const graph::LinkGraph& g);

/// Computes the least-cost path s->t and every on-path node-agent's VCG
/// payment (own forwarding arc + avoiding-path difference) in a single
/// O(n log n + m) pass. Requires is_symmetric(g); throws
/// std::invalid_argument otherwise. Identical output to
/// link_vcg_payments.
[[nodiscard]] PaymentResult fast_link_payments(const graph::LinkGraph& g,
                                               graph::NodeId source,
                                               graph::NodeId target);

}  // namespace tc::core
