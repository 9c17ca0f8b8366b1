// perfbench correctness gates: every workload checks the outputs it timed
// against an independent oracle before any number is printed.
#pragma once

#include <cmath>
#include <string>

#include "bench.hpp"
#include "core/payment.hpp"
#include "core/vcg_unicast.hpp"
#include "graph/node_graph.hpp"
#include "mech/invariants.hpp"

namespace perfbench {

/// Exact (bit-identical) or 1e-9-tolerant equality of two payment results.
inline bool same_result(const tc::core::PaymentResult& a,
                        const tc::core::PaymentResult& b, bool exact) {
  if (a.path != b.path || a.payments.size() != b.payments.size()) return false;
  if (a.connected() != b.connected()) return false;
  for (std::size_t k = 0; k < a.payments.size(); ++k) {
    const double x = a.payments[k];
    const double y = b.payments[k];
    if (exact ? !(x == y) : (std::isinf(x) != std::isinf(y) ||
                             (!std::isinf(x) && std::abs(x - y) > 1e-9))) {
      return false;
    }
  }
  return true;
}

inline void check_same(const tc::core::PaymentResult& want,
                       const tc::core::PaymentResult& got, bool exact,
                       Report& report, const std::string& where) {
  if (!same_result(want, got, exact)) {
    report.fail(where + ": payment result differs from the oracle");
  }
}

/// fast vs naive VCG on the same declarations: the same route, and
/// payments within the 1e-9 the repo's differential tests allow. (The two
/// engines sum relay costs in different orders, so payments can differ in
/// the last bit or two; a bit-for-bit gate fails on correct output.)
inline void check_naive(const tc::graph::NodeGraph& g, tc::graph::NodeId s,
                        tc::graph::NodeId t,
                        const tc::core::PaymentResult& fast, Report& report,
                        const std::string& where) {
  check_same(tc::core::vcg_payments_naive(g, s, t), fast, false, report,
             where + " (naive vs fast, source " + std::to_string(s) + ")");
}

/// mech::audit_unicast_payment: least cost, IR, off-path zero, monopoly.
inline void check_audit(const tc::graph::NodeGraph& g, tc::graph::NodeId s,
                        tc::graph::NodeId t,
                        const tc::core::PaymentResult& r, Report& report,
                        const std::string& where) {
  tc::mech::UnicastOutcome outcome;
  outcome.path = r.path;
  outcome.path_cost = r.path_cost;
  outcome.payments = r.payments;
  const tc::mech::AuditReport audit =
      tc::mech::audit_unicast_payment(g, s, t, outcome);
  if (!audit.ok()) {
    report.fail(where + " audit, source " + std::to_string(s) + ": " +
                audit.to_string());
  }
}

/// The seeded mismatch behind --perturb: lowers one relay's payment (or
/// an off-path zero when there is no relay) so every gate must trip.
inline void perturb_payment(tc::core::PaymentResult& r) {
  if (r.path.size() > 2) {
    r.payments[r.path[1]] *= 0.5;
  } else if (!r.payments.empty()) {
    r.payments.back() += 1.0;
  }
}

}  // namespace perfbench
