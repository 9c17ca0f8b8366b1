#include "core/fast_link_payment.hpp"

#include <stdexcept>

#include "core/audit_hooks.hpp"
#include "core/fast_payment.hpp"
#include "util/check.hpp"

namespace tc::core {

using graph::Arc;
using graph::NodeId;

bool is_symmetric(const graph::LinkGraph& g) {
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const Arc& a : g.out_arcs(u)) {
      if (g.arc_cost(a.to, u) != a.cost) return false;
    }
  }
  return true;
}

PaymentResult fast_link_payments(const graph::LinkGraph& g, NodeId source,
                                 NodeId target) {
  TC_CHECK_MSG(source != target, "source and target must differ");
  if (!is_symmetric(g)) {
    throw std::invalid_argument(
        "fast_link_payments requires symmetric link costs; use "
        "link_vcg_payments for directed/asymmetric networks");
  }
  PaymentResult result;
  internal::link_payments_into(g, source, target, result);
  TC_DCHECK(internal::audit_ok(g, source, target, result));
  return result;
}

}  // namespace tc::core
