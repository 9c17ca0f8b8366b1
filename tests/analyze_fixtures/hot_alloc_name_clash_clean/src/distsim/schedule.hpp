#pragma once

#include <vector>

namespace distsim {

struct Schedule {
  static Schedule assign(int roles);
  std::vector<int> members;
};

}  // namespace distsim
