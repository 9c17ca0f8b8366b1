// Serving-layer instrumentation: per-engine counters (Metrics) and the
// fleet-wide admission/latency book (FleetMetrics).
//
// Counters are lock-free atomics so concurrent quote() calls never
// serialize on bookkeeping; per-quote latencies go through a small
// mutex-guarded util::Percentiles reservoir (one lock per served quote,
// far cheaper than the Dijkstra work it measures). `snapshot()` is safe
// to call at any time from any thread.
//
// FleetMetrics adds the service dimension: every admission decision a
// svc::Fleet makes (admit / queue-full shed / watermark shed / throttle /
// deadline expiry) is counted fleet-wide and per tenant, and end-to-end
// request latencies (submit -> response, queue wait included) feed
// per-priority-class and per-tenant reservoirs reported as p50/p99/p999.
// Tenant rows are striped across STRIPES mutexes so shard workers on
// different tenants rarely contend on bookkeeping.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/stats.hpp"
#include "util/thread_annotations.hpp"

namespace tc::svc {

/// Point-in-time copy of every engine counter, for reporting.
struct MetricsSnapshot {
  std::uint64_t quotes_served = 0;   ///< quote()/quote_all() results returned
  std::uint64_t cache_hits = 0;      ///< served from a shard cache
  std::uint64_t cache_misses = 0;    ///< priced by the Pricer
  std::uint64_t declarations = 0;    ///< epoch bumps (single + bulk)
  std::uint64_t quotes_evicted = 0;  ///< cache entries killed by invalidation
  std::uint64_t quotes_retained = 0; ///< entries proven unaffected and kept
  std::uint64_t full_flushes = 0;    ///< conservative whole-cache drops
  std::uint64_t warm_repairs = 0;    ///< warm SPT roots repaired in place
  std::uint64_t warm_solves = 0;     ///< warm roots solved from scratch
  std::uint64_t warm_priced = 0;     ///< misses priced from warm SPTs
  std::uint64_t warm_fallbacks = 0;  ///< warm path bailed to cold pricing
  std::uint64_t snapshot_rebases = 0;  ///< COW overlays folded into a base
  /// Per-quote wall latencies in microseconds (hits and misses alike).
  double latency_p50_us = 0.0;
  double latency_p90_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_p999_us = 0.0;
  double latency_max_us = 0.0;

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t lookups = cache_hits + cache_misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(cache_hits) /
                              static_cast<double>(lookups);
  }

  /// Multi-line human-readable block (used by the CLI and the bench).
  [[nodiscard]] std::string to_string() const;
};

/// Thread-safe counter block owned by a QuoteEngine.
class Metrics {
 public:
  void record_hit() { cache_hits_.fetch_add(1, std::memory_order_relaxed); }
  void record_miss() { cache_misses_.fetch_add(1, std::memory_order_relaxed); }
  void record_served(double latency_us);
  void record_declaration() {
    declarations_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_evictions(std::uint64_t evicted, std::uint64_t retained);
  void record_full_flush() {
    full_flushes_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_warm_repairs(std::uint64_t count) {
    warm_repairs_.fetch_add(count, std::memory_order_relaxed);
  }
  void record_warm_solve() {
    warm_solves_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_warm_priced() {
    warm_priced_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_warm_fallback() {
    warm_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_snapshot_rebase() {
    snapshot_rebases_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  std::atomic<std::uint64_t> quotes_served_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> declarations_{0};
  std::atomic<std::uint64_t> quotes_evicted_{0};
  std::atomic<std::uint64_t> quotes_retained_{0};
  std::atomic<std::uint64_t> full_flushes_{0};
  std::atomic<std::uint64_t> warm_repairs_{0};
  std::atomic<std::uint64_t> warm_solves_{0};
  std::atomic<std::uint64_t> warm_priced_{0};
  std::atomic<std::uint64_t> warm_fallbacks_{0};
  std::atomic<std::uint64_t> snapshot_rebases_{0};
  /// Leaf lock guarding the latency reservoir only; taken with no other
  /// lock held (record_served/snapshot call nothing while holding it).
  mutable util::Mutex latency_mutex_;
  // mutable is honest here: snapshot() const sorts the reservoir, and
  // the TC_GUARDED_BY annotation makes the Clang analysis enforce the
  // lock (which is why tc_analyze's mutable-const rule sanctions
  // guarded mutables alongside atomics).
  mutable util::Percentiles latencies_ TC_GUARDED_BY(latency_mutex_);
};

// ---------------------------------------------------------------------------
// Fleet-level instrumentation
// ---------------------------------------------------------------------------

/// Tenant identifier (dense ids are typical but not required).
using TenantId = std::uint32_t;

/// Request priority class: the SLO tier a request is admitted under.
/// Interactive traffic survives the watermark shed that drops batch
/// traffic, and the two classes report latency percentiles separately.
enum class Priority : std::uint8_t { kInteractive = 0, kBatch = 1 };

[[nodiscard]] const char* to_string(Priority p);

/// Point-in-time per-tenant roll-up inside a FleetMetricsSnapshot.
struct TenantMetricsRow {
  TenantId tenant = 0;
  std::uint64_t served = 0;     ///< responses carrying a priced answer
  std::uint64_t unroutable = 0; ///< served, but no path existed
  std::uint64_t declares = 0;   ///< declare / mark_node_down applied
  std::uint64_t shed = 0;       ///< queue-full + watermark rejections
  std::uint64_t throttled = 0;  ///< token-bucket rejections
  std::uint64_t expired = 0;    ///< deadline passed before pricing
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_p999_us = 0.0;
  double latency_max_us = 0.0;
};

/// Point-in-time copy of every fleet counter, for reporting.
struct FleetMetricsSnapshot {
  std::uint64_t submitted = 0;       ///< requests entering admission
  std::uint64_t served = 0;          ///< priced responses (quote/batch)
  std::uint64_t declares = 0;        ///< declarations applied
  std::uint64_t admin = 0;           ///< create/drop tenant ops
  std::uint64_t shed_queue_full = 0; ///< hard bound: shard queue at cap
  std::uint64_t shed_watermark = 0;  ///< batch traffic shed over watermark
  std::uint64_t throttled = 0;       ///< per-tenant token bucket empty
  std::uint64_t expired = 0;         ///< typed deadline rejections
  std::uint64_t rejected = 0;        ///< no-such-tenant / invalid requests
  /// Always 0: the fleet neither steals runs nor coalesces quotes
  /// (DESIGN.md §15). Kept so existing readers still compile.
  std::uint64_t stolen_runs = 0;
  std::uint64_t stolen_requests = 0;
  std::uint64_t coalesced_requests = 0;
  /// Per-class served / denied quote counts (attainment inputs).
  std::uint64_t interactive_served = 0;
  std::uint64_t interactive_denied = 0;
  std::uint64_t batch_served = 0;
  std::uint64_t batch_denied = 0;
  /// End-to-end latency (submit -> response) per priority class, us.
  double interactive_p50_us = 0.0;
  double interactive_p99_us = 0.0;
  double interactive_p999_us = 0.0;
  double batch_p50_us = 0.0;
  double batch_p99_us = 0.0;
  double batch_p999_us = 0.0;
  /// One row per tenant that saw traffic, sorted by tenant id.
  std::vector<TenantMetricsRow> tenants;

  /// Fraction of admitted quote requests that were answered (not shed,
  /// throttled, or expired) — the headline SLO attainment number.
  [[nodiscard]] double attainment() const {
    const std::uint64_t denied =
        shed_queue_full + shed_watermark + throttled + expired;
    const std::uint64_t answered = served;
    const std::uint64_t total = answered + denied;
    return total == 0 ? 1.0
                      : static_cast<double>(answered) /
                            static_cast<double>(total);
  }

  /// Per-class SLO attainment: answered / (answered + denied) among
  /// quote requests of one priority class.
  [[nodiscard]] double attainment(Priority p) const {
    const bool inter = p == Priority::kInteractive;
    const std::uint64_t answered = inter ? interactive_served : batch_served;
    const std::uint64_t denied = inter ? interactive_denied : batch_denied;
    const std::uint64_t total = answered + denied;
    return total == 0 ? 1.0
                      : static_cast<double>(answered) /
                            static_cast<double>(total);
  }

  /// Multi-line human-readable block (CLI --fleet --metrics, soak bench).
  [[nodiscard]] std::string to_string() const;
};

/// Thread-safe fleet-wide counter block owned by a svc::Fleet.
class FleetMetrics {
 public:
  void record_submitted() {
    submitted_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_served(TenantId tenant, Priority priority, double latency_us,
                     bool unroutable);
  void record_declare(TenantId tenant, Priority priority, double latency_us);
  void record_admin() { admin_.fetch_add(1, std::memory_order_relaxed); }
  void record_shed_queue_full(TenantId tenant, Priority priority);
  void record_shed_watermark(TenantId tenant, Priority priority);
  void record_throttled(TenantId tenant, Priority priority);
  void record_expired(TenantId tenant, Priority priority);
  void record_rejected() { rejected_.fetch_add(1, std::memory_order_relaxed); }

  /// Non-const (unlike Metrics::snapshot): the percentile queries sort
  /// the reservoirs lazily, and the Fleet owns this object outright, so
  /// honesty beats a block of mutable members here.
  [[nodiscard]] FleetMetricsSnapshot snapshot();

 private:
  /// Tenant stripe count; tenants hash onto stripes so concurrent shard
  /// workers rarely share a bookkeeping mutex.
  static constexpr std::size_t kStripes = 16;

  struct TenantStats {
    std::uint64_t served = 0;
    std::uint64_t unroutable = 0;
    std::uint64_t declares = 0;
    std::uint64_t shed = 0;
    std::uint64_t throttled = 0;
    std::uint64_t expired = 0;
    util::Percentiles latencies;
  };

  /// Cache-line width used to pad each stripe. Literal 64 instead of
  /// std::hardware_destructive_interference_size: the std constant is 64
  /// on every target we build, and naming it in a header trips GCC's
  /// -Winterference-size ABI warning.
  static constexpr std::size_t kCacheLine = 64;

  /// Stripes are what concurrent shard workers hammer in parallel, so
  /// each one is padded to cache-line granularity: without alignas two
  /// neighboring stripes share a line and their (uncontended) mutexes
  /// false-share under write traffic from different cores.
  struct alignas(kCacheLine) Stripe {
    /// Leaf lock: held only for map/reservoir updates, never across
    /// calls out of the metrics object.
    util::Mutex mutex;
    std::unordered_map<TenantId, TenantStats> tenants TC_GUARDED_BY(mutex);
  };
  static_assert(alignof(Stripe) >= kCacheLine,
                "stripe must start on its own cache line");
  static_assert(sizeof(Stripe) % kCacheLine == 0,
                "stripe size must pad to whole cache lines so array "
                "neighbors never share one");

  /// Applies `fn` to the tenant's stats under the stripe lock.
  template <typename Fn>
  void with_tenant(TenantId tenant, Fn&& fn) {
    Stripe& s = stripes_[tenant % kStripes];
    util::MutexLock lock(s.mutex);
    fn(s.tenants[tenant]);
  }

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> declares_{0};
  std::atomic<std::uint64_t> admin_{0};
  std::atomic<std::uint64_t> shed_queue_full_{0};
  std::atomic<std::uint64_t> shed_watermark_{0};
  std::atomic<std::uint64_t> throttled_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> rejected_{0};
  /// Per-class quote outcome counters (attainment numerator/denominator).
  std::atomic<std::uint64_t> interactive_served_{0};
  std::atomic<std::uint64_t> interactive_denied_{0};
  std::atomic<std::uint64_t> batch_served_{0};
  std::atomic<std::uint64_t> batch_denied_{0};
  /// Leaf lock guarding the per-class reservoirs only.
  util::Mutex class_mutex_;
  util::Percentiles interactive_ TC_GUARDED_BY(class_mutex_);
  util::Percentiles batch_ TC_GUARDED_BY(class_mutex_);
  std::array<Stripe, kStripes> stripes_;
};

}  // namespace tc::svc
