// Pairing heap with decrease-key, keyed by NodeId.
//
// The classic theoretical companion to Dijkstra: O(1) amortized
// decrease-key versus O(log n) for array heaps. On the sparse wireless
// graphs this library targets, array heaps usually win on constants
// (better locality, no pointer chasing); perfbench price-scale's
// spath.solve_us rows quantify the gap. Nodes are pool-allocated per heap
// instance.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/types.hpp"
#include "util/check.hpp"

namespace tc::spath {

class PairingHeap {
 public:
  explicit PairingHeap(std::size_t num_keys)
      : nodes_(num_keys), in_heap_(num_keys, false) {}

  bool empty() const { return root_ == kNull; }
  std::size_t size() const { return size_; }
  bool contains(graph::NodeId key) const {
    TC_DCHECK(key < in_heap_.size());
    return in_heap_[key];
  }

  /// Re-keys the heap for `num_keys` keys and empties it. Leftover nodes
  /// (possible after an early-stopped Dijkstra) are cleared by walking the
  /// remaining tree, so the cost is O(leftover entries).
  void reset(std::size_t num_keys) {
    if (root_ != kNull) {
      scratch_.clear();
      scratch_.push_back(root_);
      while (!scratch_.empty()) {
        const graph::NodeId v = scratch_.back();
        scratch_.pop_back();
        in_heap_[v] = false;
        if (nodes_[v].child != kNull) scratch_.push_back(nodes_[v].child);
        if (nodes_[v].sibling != kNull) scratch_.push_back(nodes_[v].sibling);
      }
      root_ = kNull;
    }
    size_ = 0;
    if (nodes_.size() < num_keys) {
      nodes_.resize(num_keys);
      in_heap_.resize(num_keys, false);
    }
  }

  graph::Cost priority_of(graph::NodeId key) const {
    TC_DCHECK(contains(key));
    return nodes_[key].priority;
  }

  /// Inserts a new key or lowers an existing key's priority. Raising is a
  /// programming error (Dijkstra never raises).
  void push_or_decrease(graph::NodeId key, graph::Cost priority) {
    TC_DCHECK(key < nodes_.size());
    if (!in_heap_[key]) {
      Node& node = nodes_[key];
      node = Node{};
      node.priority = priority;
      in_heap_[key] = true;
      ++size_;
      root_ = root_ == kNull ? key : meld(root_, key);
      return;
    }
    TC_DCHECK(priority <= nodes_[key].priority);
    nodes_[key].priority = priority;
    if (key == root_) return;
    // Cut the subtree rooted at key and meld it with the root.
    detach(key);
    root_ = meld(root_, key);
  }

  std::pair<graph::Cost, graph::NodeId> pop_min() {
    TC_DCHECK(!empty());
    const graph::NodeId min_key = root_;
    const graph::Cost min_priority = nodes_[min_key].priority;
    in_heap_[min_key] = false;
    --size_;
    root_ = two_pass_merge(nodes_[min_key].child);
    if (root_ != kNull) {
      nodes_[root_].parent = kNull;
      nodes_[root_].sibling = kNull;
    }
    return {min_priority, min_key};
  }

 private:
  static constexpr graph::NodeId kNull = graph::kInvalidNode;

  struct Node {
    graph::Cost priority = 0.0;
    graph::NodeId child = kNull;
    graph::NodeId sibling = kNull;
    graph::NodeId parent = kNull;  // parent or left sibling (for detach)
    bool is_left_child = false;    // true when parent points to the parent
  };

  /// Melds two root nodes, returns the new root.
  graph::NodeId meld(graph::NodeId a, graph::NodeId b) {
    if (a == kNull) return b;
    if (b == kNull) return a;
    if (nodes_[b].priority < nodes_[a].priority) std::swap(a, b);
    // b becomes a's first child.
    Node& pa = nodes_[a];
    Node& pb = nodes_[b];
    pb.sibling = pa.child;
    if (pa.child != kNull) {
      nodes_[pa.child].parent = b;
      nodes_[pa.child].is_left_child = false;
    }
    pb.parent = a;
    pb.is_left_child = true;
    pa.child = b;
    pa.parent = kNull;
    pa.sibling = kNull;
    return a;
  }

  /// Detaches `key`'s subtree from its parent / sibling chain.
  void detach(graph::NodeId key) {
    Node& node = nodes_[key];
    if (node.parent == kNull) return;  // already a root (shouldn't happen)
    if (node.is_left_child) {
      nodes_[node.parent].child = node.sibling;
    } else {
      nodes_[node.parent].sibling = node.sibling;
    }
    if (node.sibling != kNull) {
      nodes_[node.sibling].parent = node.parent;
      nodes_[node.sibling].is_left_child = node.is_left_child;
    }
    node.parent = kNull;
    node.sibling = kNull;
  }

  /// Standard two-pass pairing of a child list; returns the merged root.
  graph::NodeId two_pass_merge(graph::NodeId first) {
    if (first == kNull) return kNull;
    // Pass 1: meld pairs left to right.
    std::vector<graph::NodeId>& pairs = scratch_;
    pairs.clear();
    graph::NodeId cur = first;
    while (cur != kNull) {
      const graph::NodeId next = nodes_[cur].sibling;
      graph::NodeId after = kNull;
      nodes_[cur].sibling = kNull;
      nodes_[cur].parent = kNull;
      if (next != kNull) {
        after = nodes_[next].sibling;
        nodes_[next].sibling = kNull;
        nodes_[next].parent = kNull;
        pairs.push_back(meld(cur, next));
      } else {
        pairs.push_back(cur);
      }
      cur = after;
    }
    // Pass 2: meld right to left.
    graph::NodeId root = pairs.back();
    for (std::size_t i = pairs.size() - 1; i-- > 0;) {
      root = meld(pairs[i], root);
    }
    return root;
  }

  std::vector<Node> nodes_;
  std::vector<bool> in_heap_;
  std::vector<graph::NodeId> scratch_;
  graph::NodeId root_ = kNull;
  std::size_t size_ = 0;
};

}  // namespace tc::spath
