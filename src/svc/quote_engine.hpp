// QuoteEngine: concurrent sharded quote serving over epoch-versioned
// profile snapshots (see DESIGN.md §7 "Serving layer").
//
// Concurrency model
//   * The declared-cost profile lives in an immutable ProfileSnapshot
//     published through an atomic shared_ptr. Readers load the pointer,
//     price against the frozen profile, and never block writers; a
//     re-declaration derives the next snapshot copy-on-write (shared base
//     graph + per-epoch cost overlay, see svc/snapshot.hpp) and bumps the
//     atomic epoch — O(1) amortized instead of a full graph copy
//     (Options::cow_snapshots=false restores the eager-copy publish).
//     Every quote is stamped with the epoch it was priced under
//     (PaymentResult::profile_version), so a returned quote is always
//     internally consistent with one single epoch even while declarations
//     race in.
//   * The quote cache is sharded by (source, target) key; each shard has
//     its own mutex and map, so concurrent quote() calls on different
//     keys do not contend. Shard locks are held only for map
//     lookup/insert — pricing runs lock-free against the snapshot.
//   * quote_all() and quote_batch() fan out over
//     util::ThreadPool::parallel_for.
//
// Incremental invalidation
//   A re-declaration by node v evicts exactly the cached quotes v can
//   affect. Quotes store a dependency certificate (svc::QuoteDeps): a
//   per-node lower bound thru[v] on the cheapest source->target path
//   through v, and vmax, the largest finite path value the quote depends
//   on (the LCP and every relay-avoiding replacement path, recovered
//   from the VCG payment identity). If min(thru_old, thru_new) — minus a
//   slack term accumulated from previously retained cost *decreases* —
//   exceeds vmax, the quote is provably byte-identical under the new
//   profile and is retained with its epoch stamp advanced. This subsumes
//   the simpler "evict when v ∈ path ∪ N(path)" rule and additionally
//   catches far-away nodes sitting on replacement paths, which that rule
//   misses. Quotes without a certificate, bulk re-declarations, and
//   engines configured with incremental_invalidation=false fall back to
//   a conservative full flush. Equivalence against an always-recompute
//   oracle is enforced by tests/svc_quote_engine_test.cpp.
//
// Warm SPT cache
//   Node-model engines whose pricer accepts_warm_spts() keep a small LRU
//   set of shortest-path trees rooted at recently quoted endpoints. A
//   re-declaration does not discard them: the writer appends an O(1)
//   change record, and the next cache-miss reader replays the records in
//   epoch order through spath::CostDelta, repairing every warm root in
//   O(affected) instead of re-running Dijkstra. Repaired trees are
//   bit-identical to from-scratch solves (cost_delta.hpp), so they feed
//   vcg_payments_fast's SPT-accepting overload directly and quotes evicted
//   by the sweep above are re-validated without paying step 1 again. Any
//   hazard — bulk declaration, a reader whose snapshot lags or leads the
//   replay log, log overflow — falls back to cold pricing or a rebuild
//   (metrics: warm_repairs / warm_solves / warm_priced / warm_fallbacks).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "spath/batch.hpp"
#include "spath/cost_delta.hpp"
#include "spath/workspace.hpp"
#include "svc/config.hpp"
#include "svc/metrics.hpp"
#include "svc/pricer.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace tc::svc {

class QuoteEngine {
 public:
  /// Engine knobs come from the unified svc::Config (config.hpp); the
  /// alias keeps construction sites reading naturally.
  using Options = EngineConfig;

  /// Node-weighted service (paper Section II.B). Initial declarations are
  /// the graph's stored node costs. The default pricer is the fast VCG
  /// engine (Algorithm 1).
  QuoteEngine(graph::NodeGraph topology, graph::NodeId access_point,
              std::shared_ptr<const Pricer> pricer, Options options);
  QuoteEngine(graph::NodeGraph topology, graph::NodeId access_point,
              std::shared_ptr<const Pricer> pricer = nullptr);

  /// Link-weighted service (Section III.F). The default pricer is the
  /// naive link VCG engine (works on asymmetric arcs).
  QuoteEngine(graph::LinkGraph topology, graph::NodeId access_point,
              std::shared_ptr<const Pricer> pricer, Options options);
  QuoteEngine(graph::LinkGraph topology, graph::NodeId access_point,
              std::shared_ptr<const Pricer> pricer = nullptr);

  QuoteEngine(const QuoteEngine&) = delete;
  QuoteEngine& operator=(const QuoteEngine&) = delete;

  graph::NodeId access_point() const { return access_point_; }
  std::size_t num_nodes() const { return num_nodes_; }
  GraphModel model() const { return pricer_->model(); }
  const Pricer& pricer() const { return *pricer_; }

  /// Current declaration epoch (starts at 1, bumps per re-declaration).
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// The current immutable profile snapshot (readers may keep it as long
  /// as they like; it never mutates).
  [[nodiscard]] std::shared_ptr<const ProfileSnapshot> snapshot() const;

  /// Node `v` (re)declares its relay cost (node model). Returns the epoch
  /// now in effect (unchanged when the declaration is a no-op).
  std::uint64_t declare_cost(graph::NodeId v, graph::Cost declared);

  /// Bulk declaration (node model); conservative full cache flush.
  std::uint64_t declare_costs(const std::vector<graph::Cost>& declared);

  /// Node `u` (re)declares the cost of its outgoing arc u->v (link
  /// model). The arc must exist. Returns the epoch now in effect.
  std::uint64_t declare_arc_cost(graph::NodeId u, graph::NodeId v,
                                 graph::Cost declared);

  /// Current declared cost of node `v` (node model).
  graph::Cost declared_cost(graph::NodeId v) const;

  /// Administrative removal (node model): `v` stopped relaying — e.g. a
  /// crash detected by a delivery timeout in distsim::run_session. Priced
  /// as an unbounded relay cost: subsequent quotes route around v, and
  /// sources that cannot avoid it come back unroutable instead of being
  /// quoted a dead path. Bumps the epoch like any re-declaration, so
  /// quotes priced before the crash are fenced out at settlement.
  std::uint64_t mark_node_down(graph::NodeId v);
  /// True while `v` is marked down (declared cost is not finite).
  bool node_down(graph::NodeId v) const;

  /// Route + payment quote source -> access point, cached, stamped with
  /// the epoch it was priced under. nullopt when unreachable.
  [[nodiscard]] std::optional<core::PaymentResult> quote(
      graph::NodeId source);

  /// Quote for an arbitrary ordered pair. Cached and epoch-stamped, too.
  [[nodiscard]] std::optional<core::PaymentResult> quote(
      graph::NodeId source, graph::NodeId target);

  /// Quotes for every source toward the access point, fanned out over
  /// the thread pool. quotes[access_point] is nullopt.
  [[nodiscard]] std::vector<std::optional<core::PaymentResult>> quote_all();

  /// Bulk pair quotes, fanned out over the thread pool.
  [[nodiscard]] std::vector<std::optional<core::PaymentResult>> quote_batch(
      const std::vector<std::pair<graph::NodeId, graph::NodeId>>& pairs);

  /// Scheme-specific monopoly-freedom diagnostic (delegates to the
  /// pricer) under the current snapshot.
  [[nodiscard]] bool monopoly_free() const;

  /// Drops every cached quote (counted as a full flush in metrics).
  void flush_cache();

  /// Point-in-time instrumentation snapshot.
  [[nodiscard]] MetricsSnapshot metrics() const { return metrics_.snapshot(); }

 private:
  struct CacheEntry {
    std::uint64_t epoch = 0;
    PricedQuote quote;
    /// Cumulative declared-cost decrease retained since this entry was
    /// priced; subtracted from thru bounds to keep them sound.
    graph::Cost decrease_slack = 0.0;
  };

  struct Shard {
    /// Leaf lock: held only for map lookup/insert, never across pricing,
    /// never together with another shard's mutex or warm_->mutex.
    util::Mutex mutex;
    std::unordered_map<std::uint64_t, CacheEntry> entries
        TC_GUARDED_BY(mutex);
  };

  /// One recorded re-declaration, replayed into the warm SPT cache.
  struct CostChange {
    std::uint64_t new_epoch = 0;
    graph::NodeId v = graph::kInvalidNode;
    graph::Cost c_old = 0.0;
    graph::Cost c_new = 0.0;
  };

  struct WarmRoot {
    spath::CostDelta delta;
    std::uint64_t last_used = 0;
  };

  /// Warm SPT state (node model only). `graph` mirrors the snapshot at
  /// epoch `graph_epoch`; `pending` holds the not-yet-replayed changes
  /// between graph_epoch and the writer's latest epoch. All fields are
  /// guarded by `mutex` (writers take it after writer_mutex_; readers
  /// take it alone — never while holding a shard mutex).
  struct WarmState {
    WarmState(graph::NodeGraph g, std::uint64_t epoch)
        : graph(std::move(g)), graph_epoch(epoch) {}

    util::Mutex mutex;
    bool poisoned TC_GUARDED_BY(mutex) = false;
    graph::NodeGraph graph TC_GUARDED_BY(mutex);
    std::uint64_t graph_epoch TC_GUARDED_BY(mutex) = 0;
    std::deque<CostChange> pending TC_GUARDED_BY(mutex);
    std::unordered_map<graph::NodeId, WarmRoot> roots TC_GUARDED_BY(mutex);
    std::uint64_t tick TC_GUARDED_BY(mutex) = 0;
    spath::DijkstraWorkspace ws TC_GUARDED_BY(mutex);
    /// Roots held when the cache was last poisoned, in ascending order;
    /// the next rebuild re-solves them all in one batched multi-source
    /// pass instead of letting each fault back in cold.
    std::vector<graph::NodeId> refill TC_GUARDED_BY(mutex);
    /// Reused flat storage for the refill batch.
    spath::SptMatrix matrix TC_GUARDED_BY(mutex);
  };

  std::optional<core::PaymentResult> quote_impl(graph::NodeId source,
                                                graph::NodeId target);
  /// quote_all's fast path for warm-capable node pricers: solves the
  /// shared target tree and every cache-missing source's tree in one
  /// batched multi-source pass, then prices the misses on the pool.
  void quote_all_batched(
      const std::shared_ptr<const ProfileSnapshot>& snap,
      std::vector<std::optional<core::PaymentResult>>& quotes,
      util::ThreadPool& pool);
  /// Miss path: warm SPT pricing when available, cold pricing otherwise.
  [[nodiscard]] PricedQuote price_on_miss(const ProfileSnapshot& snap,
                                          graph::NodeId source,
                                          graph::NodeId target);
  /// Produces repaired SPTs rooted at source/target matching `snap`'s
  /// graph, or returns false (caller must price cold).
  bool warm_spts(const ProfileSnapshot& snap, graph::NodeId source,
                 graph::NodeId target, spath::SptResult& spt_source,
                 spath::SptResult& spt_target);
  /// Writer-side: records one declaration for later warm replay (or
  /// poisons the warm cache on overflow).
  void warm_note_change(std::uint64_t new_epoch, graph::NodeId v,
                        graph::Cost c_old, graph::Cost c_new)
      TC_REQUIRES(writer_mutex_);
  /// Writer-side: invalidates the warm cache (bulk declarations).
  void warm_poison() TC_REQUIRES(writer_mutex_);
  /// Publishes `snap` as the new current snapshot.
  void publish(std::shared_ptr<const ProfileSnapshot> snap)
      TC_REQUIRES(writer_mutex_);
  void full_flush_locked() TC_REQUIRES(writer_mutex_);
  /// Invalidation sweeps.
  void sweep_node(graph::NodeId v, graph::Cost c_old, graph::Cost c_new,
                  std::uint64_t old_epoch, std::uint64_t new_epoch)
      TC_REQUIRES(writer_mutex_);
  void sweep_link(graph::NodeId u, graph::NodeId w, graph::Cost c_old,
                  graph::Cost c_new, std::uint64_t old_epoch,
                  std::uint64_t new_epoch) TC_REQUIRES(writer_mutex_);

  std::size_t num_nodes_;
  graph::NodeId access_point_;
  std::shared_ptr<const Pricer> pricer_;
  Options options_;

  /// Published with release semantics under writer_mutex_, read lock-free
  /// with acquire loads — intentionally NOT TC_GUARDED_BY so the reader
  /// path stays annotation-clean (the atomics are the synchronization).
  std::atomic<std::shared_ptr<const ProfileSnapshot>> snapshot_;
  std::atomic<std::uint64_t> epoch_{1};
  /// Serializes declare/flush writers. Lock order (DESIGN.md §11):
  /// writer_mutex_ first, then shard mutexes / warm_->mutex (one at a
  /// time); never acquired while any other engine lock is held.
  util::Mutex writer_mutex_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// COW overlay length before folding into a fresh base.
  std::size_t rebase_cap_ = 0;
  /// Replay-log length before the warm cache is poisoned instead.
  std::size_t warm_pending_cap_ = 0;
  std::unique_ptr<WarmState> warm_;
  Metrics metrics_;
};

}  // namespace tc::svc
