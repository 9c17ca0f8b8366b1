// Batched shortest-path drivers on top of the workspace kernels: many
// SPT roots into one flat matrix (spt_multi_into), and many single-node
// avoiding-path costs from one shared base SPT (avoiding_paths_batch).
// Outputs are indexed by input position and each entry depends only on
// its own input, never on the other roots or their order.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/link_graph.hpp"
#include "graph/mask.hpp"
#include "graph/node_graph.hpp"
#include "spath/dijkstra.hpp"
#include "spath/workspace.hpp"

namespace tc::spath {

/// Flat multi-root SPT storage: one dist row and one parent row per root,
/// contiguous in root order. The matrix is the allocation in a batched
/// solve — spt_multi_into reuses its buffers across refills (grow-only),
/// so a steady-state many-roots consumer (quote_all miss bursts, warm
/// cache refill, collusion scans) allocates nothing per root.
class SptMatrix {
 public:
  std::size_t num_roots() const { return sources_.size(); }
  std::size_t num_nodes() const { return num_nodes_; }
  graph::NodeId source(std::size_t i) const { return sources_[i]; }

  std::span<const graph::Cost> dist(std::size_t i) const {
    TC_DCHECK(i < num_roots());
    return {dist_.data() + i * num_nodes_, num_nodes_};
  }
  std::span<const graph::NodeId> parent(std::size_t i) const {
    TC_DCHECK(i < num_roots());
    return {parent_.data() + i * num_nodes_, num_nodes_};
  }

  /// Row i as an allocating-API SptResult (copies; for consumers that
  /// hand ownership onward, e.g. CostDelta::adopt_node).
  [[nodiscard]] SptResult to_result(std::size_t i) const;

  /// Re-keys for a new batch; existing buffers are reused when large
  /// enough. Row contents are unspecified until the solve fills them.
  void reset(std::span<const graph::NodeId> sources, std::size_t num_nodes);

  std::span<graph::Cost> mutable_dist(std::size_t i) {
    TC_DCHECK(i < num_roots());
    return {dist_.data() + i * num_nodes_, num_nodes_};
  }
  std::span<graph::NodeId> mutable_parent(std::size_t i) {
    TC_DCHECK(i < num_roots());
    return {parent_.data() + i * num_nodes_, num_nodes_};
  }

 private:
  std::size_t num_nodes_ = 0;
  std::vector<graph::NodeId> sources_;
  std::vector<graph::Cost> dist_;
  std::vector<graph::NodeId> parent_;
};

/// Multi-source batched solve: one full SPT per root written into `m`'s
/// flat rows via the row kernels, bit-identical to
/// dijkstra_node(g, sources[i], mask) per row (kBucket parent caveat at
/// HeapKind). One workspace's lanes and heap stay hot across roots and
/// the outputs stream into one contiguous matrix, so the batch beats
/// launching the same roots as independent solves even when those are
/// already warm. Deterministic: row i depends only on (g, sources[i],
/// mask, heap), never on the other roots or their order.
void spt_multi_into(DijkstraWorkspace& ws, SptMatrix& m,
                    const graph::NodeGraph& g,
                    std::span<const graph::NodeId> sources,
                    const graph::NodeMask& mask = {},
                    HeapKind heap = HeapKind::kBinary);

/// Link-model counterpart (dijkstra_link per root).
void spt_multi_into(DijkstraWorkspace& ws, SptMatrix& m,
                    const graph::LinkGraph& g,
                    std::span<const graph::NodeId> sources,
                    const graph::NodeMask& mask = {},
                    HeapKind heap = HeapKind::kBinary);

/// Cost of the least-cost s->t path avoiding each avoid_list[j] (which
/// must exclude the endpoints): out[j] equals
/// avoiding_path_node(g, s, t, avoid_list[j]).cost bit for bit, but the
/// whole batch shares one base SPT and re-evaluates only each removal's
/// subtree (MaskedSptDelta), instead of running |avoid_list| full masked
/// Dijkstras. Path witnesses, when needed, come from the single-call API.
[[nodiscard]] std::vector<graph::Cost> avoiding_paths_batch(
    const graph::NodeGraph& g, graph::NodeId s, graph::NodeId t,
    std::span<const graph::NodeId> avoid_list);

/// As above with a precomputed unmasked base SPT from s (base.source must
/// be s), for callers that already ran it.
[[nodiscard]] std::vector<graph::Cost> avoiding_paths_batch(
    const graph::NodeGraph& g, const SptResult& base, graph::NodeId t,
    std::span<const graph::NodeId> avoid_list);

}  // namespace tc::spath
