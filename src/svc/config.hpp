// svc::Config: the one way to configure the serving layer.
//
// Before the Fleet existed, engines were constructed four ways — bare
// QuoteEngine::Options literals in tests, ad-hoc flag plumbing in each
// bench, hardcoded defaults in the CLI, and implicit Options{} everywhere
// else. Config consolidates both layers behind one validated struct:
//
//   * EngineConfig — per-tenant QuoteEngine knobs (cache sharding, COW
//     snapshots, warm SPT cache, incremental invalidation). One of these
//     is applied to every engine a Fleet hosts.
//   * FleetConfig  — service-level knobs: shard/worker count, bounded
//     queue depth and shed watermark, default request deadline, and the
//     per-tenant token-bucket admission limits. Dispatch itself has no
//     knobs: static placement and the fixed 8:1 interactive:batch round
//     robin are what measurement kept (DESIGN.md §15).
//
// validate() returns "" or the first problem found, so binaries can turn
// a bad flag combination into a clean error instead of a TC_CHECK crash
// deep inside a worker thread. Construction sites (truthcast_cli, the
// benches, the tests) all flow through Config now — adding a knob means
// touching this header and nothing else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/thread_pool.hpp"

namespace tc::svc {

/// Per-engine (per-tenant) options: the knobs QuoteEngine understands.
/// Field semantics are documented on the engine (quote_engine.hpp).
struct EngineConfig {
  /// Cache shards (0 = default 16). More shards, less lock contention.
  std::size_t shards = 0;
  /// Cache-entry cap per shard; oldest-inserted entries are dropped.
  std::size_t max_entries_per_shard = 1024;
  /// When false, every re-declaration flushes the whole cache (the
  /// always-correct conservative mode; also the oracle baseline).
  bool incremental_invalidation = true;
  /// Publish re-declarations as copy-on-write snapshot derivations.
  bool cow_snapshots = true;
  /// Keep warm per-root SPTs repaired via spath::CostDelta across
  /// re-declarations (node model + accepts_warm_spts() pricers only).
  bool warm_spt_cache = true;
  /// Max warm SPT roots retained (LRU; the access point is pinned).
  std::size_t max_warm_spts = 64;
  /// Pool for quote_all()/quote_batch(); nullptr = util::default_pool().
  util::ThreadPool* pool = nullptr;

  /// "" when coherent; otherwise the first problem found.
  [[nodiscard]] std::string validate() const {
    if (max_entries_per_shard == 0) {
      return "engine.max_entries_per_shard must be positive";
    }
    if (warm_spt_cache && max_warm_spts < 2) {
      return "engine.max_warm_spts must hold at least source+target";
    }
    return {};
  }
};

/// Service-level options for svc::Fleet.
struct FleetConfig {
  /// Worker shards. Tenant t lives on shard t % shards; each shard owns
  /// one worker thread and the engines of its tenants (0 = default 4).
  std::size_t shards = 0;
  /// Bounded per-shard request queue; a full queue rejects outright.
  std::size_t queue_capacity = 4096;
  /// Above this queue depth, kBatch-priority requests are shed while
  /// kInteractive traffic is still admitted (0 = capacity / 2).
  std::size_t shed_watermark = 0;
  /// Deadline applied to requests that do not carry one, in microseconds.
  /// A request whose deadline has passed when a worker dequeues it gets a
  /// typed kExpiredDeadline rejection, never a stale quote.
  std::uint64_t default_deadline_us = 50'000;
  /// Per-tenant token bucket: sustained admissions per second (0 disables
  /// throttling) and burst capacity.
  double tenant_rate_per_sec = 0.0;
  double tenant_burst = 64.0;

  [[nodiscard]] std::string validate() const {
    if (queue_capacity == 0) return "fleet.queue_capacity must be positive";
    if (shed_watermark > queue_capacity) {
      return "fleet.shed_watermark must not exceed fleet.queue_capacity";
    }
    if (default_deadline_us == 0) {
      return "fleet.default_deadline_us must be positive";
    }
    if (tenant_rate_per_sec < 0.0 || tenant_burst < 1.0) {
      return "fleet.tenant token bucket needs rate >= 0 and burst >= 1";
    }
    return {};
  }
};

/// The unified serving-layer configuration: one of these constructs a
/// Fleet (and, via .engine, every engine the fleet hosts). Standalone
/// QuoteEngine construction takes the .engine section directly.
struct Config {
  EngineConfig engine;
  FleetConfig fleet;

  [[nodiscard]] std::string validate() const {
    std::string err = engine.validate();
    if (err.empty()) err = fleet.validate();
    return err;
  }
};

}  // namespace tc::svc
