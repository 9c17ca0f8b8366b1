// Seeded violation: Algorithm 1's pricing core collects relaxation
// candidates into a default-constructed local vector, which allocates on
// the first push_back of every call. The hot-alloc rule must match the
// plain `std::vector<T> name;` declaration, not only constructor calls.
#include <cstddef>
#include <vector>

namespace core {

struct PaymentScratch {
  std::vector<double> r_minus;
};

std::size_t relax(const PaymentScratch& scratch, double through) {
  std::vector<std::size_t> candidates;  // per-call allocation
  for (std::size_t w = 0; w < scratch.r_minus.size(); ++w) {
    if (through < scratch.r_minus[w]) candidates.push_back(w);
  }
  return candidates.size();
}

void fast_payments_into(PaymentScratch& scratch, std::size_t n,
                        std::vector<double>& out) {
  scratch.r_minus.resize(n);  // grow-only scratch arena: allowed
  out.assign(n, 0.0);
  out[0] = static_cast<double>(relax(scratch, 1.0));
}

}  // namespace core
