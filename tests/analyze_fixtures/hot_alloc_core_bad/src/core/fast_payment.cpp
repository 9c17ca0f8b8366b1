// Seeded violation: Algorithm 1's pricing core hands each level to a
// helper that builds a fresh per-node array per call — the per-call
// allocation the PaymentScratch exists to remove. The hot-alloc rule must
// reach it from the fast_payments_into root in src/core.
#include <cstddef>
#include <vector>

namespace core {

struct PaymentScratch {
  std::vector<double> r_minus;
};

double settle_level(std::size_t n) {
  std::vector<double> r_minus(n, 0.0);  // per-call allocation
  double best = 0.0;
  for (double d : r_minus) best = d < best ? d : best;
  return best;
}

void fast_payments_into(PaymentScratch& scratch, std::size_t n,
                        std::vector<double>& out) {
  scratch.r_minus.resize(n);  // grow-only scratch arena: allowed
  out.assign(n, 0.0);
  out[0] = settle_level(n);
}

}  // namespace core
