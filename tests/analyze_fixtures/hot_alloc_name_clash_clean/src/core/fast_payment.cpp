// A pricing core that calls std::vector::assign and a grow-only candidate
// array. distsim defines an unrelated Schedule::assign that allocates;
// core cannot see it (no include reaches distsim), so the hot-alloc rule
// must not resolve `.assign(...)` here to it.
#include <cstddef>
#include <vector>

namespace core {

struct PaymentScratch {
  std::vector<double> r_minus;
  std::vector<std::size_t> relax_ids;
};

void fast_payments_into(PaymentScratch& scratch, std::size_t n,
                        std::vector<double>& out) {
  scratch.r_minus.assign(n, 1.0);
  scratch.relax_ids.resize(n);  // grow-only scratch arena: allowed
  out.assign(n, 0.0);
}

}  // namespace core
