// Indexed d-ary min-heaps with decrease-key, keyed by NodeId.
//
// Dijkstra needs decrease-key; an indexed heap (position map per node)
// avoids the lazy-deletion duplicates of std::priority_queue. Arity is a
// compile-time parameter: arity 4 trades deeper comparisons for fewer
// levels and better cache behavior on large frontiers (measured per
// HeapKind by perfbench price-scale's spath.solve_us rows and by
// kernel_throughput --heap).
#pragma once

#include <cstddef>
#include <vector>

#include "graph/types.hpp"
#include "util/check.hpp"

namespace tc::spath {

template <unsigned Arity = 2>
class IndexedDHeap {
  static_assert(Arity >= 2, "heap arity must be >= 2");

 public:
  explicit IndexedDHeap(std::size_t num_keys)
      : position_(num_keys, kAbsent) {}

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  bool contains(graph::NodeId key) const {
    TC_DCHECK(key < position_.size());
    return position_[key] != kAbsent;
  }

  /// Re-keys the heap for `num_keys` keys and empties it, in O(leftover
  /// entries) — the workspace kernels' reuse hook. The position array only
  /// grows, so alternating between graph sizes never reallocates back and
  /// forth.
  void reset(std::size_t num_keys) {
    for (const Entry& e : heap_) position_[e.key] = kAbsent;
    heap_.clear();
    if (position_.size() < num_keys) position_.resize(num_keys, kAbsent);
  }

  /// Inserts a new key or lowers the priority of an existing one.
  /// Raising a priority is a programming error (Dijkstra never raises).
  void push_or_decrease(graph::NodeId key, graph::Cost priority) {
    TC_DCHECK(key < position_.size());
    std::size_t pos = position_[key];
    if (pos == kAbsent) {
      heap_.push_back({priority, key});
      pos = heap_.size() - 1;
      position_[key] = pos;
      sift_up(pos);
    } else {
      TC_DCHECK(priority <= heap_[pos].priority);
      heap_[pos].priority = priority;
      sift_up(pos);
    }
  }

  /// Returns and removes the (priority, key) pair with minimum priority.
  std::pair<graph::Cost, graph::NodeId> pop_min() {
    TC_DCHECK(!heap_.empty());
    const Entry top = heap_.front();
    position_[top.key] = kAbsent;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_[0] = last;
      position_[last.key] = 0;
      sift_down(0);
    }
    return {top.priority, top.key};
  }

  graph::Cost priority_of(graph::NodeId key) const {
    TC_DCHECK(contains(key));
    return heap_[position_[key]].priority;
  }

 private:
  struct Entry {
    graph::Cost priority;
    graph::NodeId key;
  };

  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  void sift_up(std::size_t pos) {
    const Entry e = heap_[pos];
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / Arity;
      if (heap_[parent].priority <= e.priority) break;
      heap_[pos] = heap_[parent];
      position_[heap_[pos].key] = pos;
      pos = parent;
    }
    heap_[pos] = e;
    position_[e.key] = pos;
  }

  void sift_down(std::size_t pos) {
    const Entry e = heap_[pos];
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first_child = pos * Arity + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t last_child = std::min(first_child + Arity, n);
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (heap_[c].priority < heap_[best].priority) best = c;
      }
      if (heap_[best].priority >= e.priority) break;
      heap_[pos] = heap_[best];
      position_[heap_[pos].key] = pos;
      pos = best;
    }
    heap_[pos] = e;
    position_[e.key] = pos;
  }

  std::vector<Entry> heap_;
  std::vector<std::size_t> position_;
};

using BinaryHeap = IndexedDHeap<2>;
using QuadHeap = IndexedDHeap<4>;

}  // namespace tc::spath
