// Off the hot path: builds a role list once per simulation.
#include "distsim/schedule.hpp"

namespace distsim {

Schedule Schedule::assign(int roles) {
  std::vector<int> candidates;
  for (int r = 0; r < roles; ++r) candidates.push_back(r);
  return Schedule{candidates};
}

}  // namespace distsim
