// Seeded violation: the link-cost pricing core hands its levels to a
// helper that buckets the level members into a fresh vector of vectors
// per call — the per-level allocation the shared PaymentScratch exists to
// remove. The hot-alloc rule must reach it from the link_payments_into
// root in src/core, through a call with explicit template arguments.
#include <cstddef>
#include <vector>

namespace core {

struct PaymentScratch {
  std::vector<double> r_minus;
};

template <class Cost>
Cost cheapest_level(std::size_t levels) {
  std::vector<std::vector<Cost>> at_level(levels);  // per-call allocation
  Cost best = 0.0;
  for (const auto& bucket : at_level) {
    for (Cost d : bucket) best = d < best ? d : best;
  }
  return best;
}

void link_payments_into(PaymentScratch& scratch, std::size_t n,
                        std::vector<double>& out) {
  scratch.r_minus.resize(n);  // grow-only scratch arena: allowed
  out.assign(n, 0.0);
  out[0] = cheapest_level<double>(n);
}

}  // namespace core
