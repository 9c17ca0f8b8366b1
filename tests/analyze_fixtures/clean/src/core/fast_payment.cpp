// Algorithm 1's pricing core done right: every per-call array lives in the
// caller's grow-only PaymentScratch, and the output reuses the caller's
// result capacity.
#include <algorithm>
#include <cstddef>
#include <vector>

namespace core {

struct PaymentScratch {
  std::vector<double> r_minus;
};

double cheapest(const std::vector<double>& row) {
  return row.empty() ? 0.0 : *std::min_element(row.begin(), row.end());
}

void fast_payments_into(PaymentScratch& scratch, std::size_t n,
                        std::vector<double>& out) {
  scratch.r_minus.assign(n, 1.0);
  out.assign(n, 0.0);
  out[0] = cheapest(scratch.r_minus);
}

}  // namespace core
