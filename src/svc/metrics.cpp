#include "svc/metrics.hpp"

#include <algorithm>
#include <sstream>

namespace tc::svc {

void Metrics::record_served(double latency_us) {
  quotes_served_.fetch_add(1, std::memory_order_relaxed);
  util::MutexLock lock(latency_mutex_);
  latencies_.add(latency_us);
}

void Metrics::record_evictions(std::uint64_t evicted, std::uint64_t retained) {
  quotes_evicted_.fetch_add(evicted, std::memory_order_relaxed);
  quotes_retained_.fetch_add(retained, std::memory_order_relaxed);
}

MetricsSnapshot Metrics::snapshot() const {
  MetricsSnapshot s;
  s.quotes_served = quotes_served_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.declarations = declarations_.load(std::memory_order_relaxed);
  s.quotes_evicted = quotes_evicted_.load(std::memory_order_relaxed);
  s.quotes_retained = quotes_retained_.load(std::memory_order_relaxed);
  s.full_flushes = full_flushes_.load(std::memory_order_relaxed);
  s.warm_repairs = warm_repairs_.load(std::memory_order_relaxed);
  s.warm_solves = warm_solves_.load(std::memory_order_relaxed);
  s.warm_priced = warm_priced_.load(std::memory_order_relaxed);
  s.warm_fallbacks = warm_fallbacks_.load(std::memory_order_relaxed);
  s.snapshot_rebases = snapshot_rebases_.load(std::memory_order_relaxed);
  util::MutexLock lock(latency_mutex_);
  if (latencies_.count() > 0) {
    s.latency_p50_us = latencies_.percentile(50.0);
    s.latency_p90_us = latencies_.percentile(90.0);
    s.latency_p99_us = latencies_.percentile(99.0);
    s.latency_p999_us = latencies_.percentile(99.9);
    s.latency_max_us = latencies_.percentile(100.0);
  }
  return s;
}

std::string MetricsSnapshot::to_string() const {
  std::ostringstream out;
  out << "quotes served     " << quotes_served << "\n"
      << "cache hits        " << cache_hits << " (hit rate "
      << static_cast<int>(hit_rate() * 100.0 + 0.5) << "%)\n"
      << "cache misses      " << cache_misses << "\n"
      << "declarations      " << declarations << "\n"
      << "quotes evicted    " << quotes_evicted << "\n"
      << "quotes retained   " << quotes_retained << "\n"
      << "full flushes      " << full_flushes << "\n"
      << "warm repairs      " << warm_repairs << "\n"
      << "warm solves       " << warm_solves << "\n"
      << "warm priced       " << warm_priced << "\n"
      << "warm fallbacks    " << warm_fallbacks << "\n"
      << "snapshot rebases  " << snapshot_rebases << "\n"
      << "latency us        p50 " << latency_p50_us << "  p90 "
      << latency_p90_us << "  p99 " << latency_p99_us << "  p999 "
      << latency_p999_us << "  max " << latency_max_us << "\n";
  return out.str();
}

const char* to_string(Priority p) {
  return p == Priority::kInteractive ? "interactive" : "batch";
}

void FleetMetrics::record_served(TenantId tenant, Priority priority,
                                 double latency_us, bool unroutable) {
  served_.fetch_add(1, std::memory_order_relaxed);
  (priority == Priority::kInteractive ? interactive_served_ : batch_served_)
      .fetch_add(1, std::memory_order_relaxed);
  {
    util::MutexLock lock(class_mutex_);
    (priority == Priority::kInteractive ? interactive_ : batch_)
        .add(latency_us);
  }
  with_tenant(tenant, [&](TenantStats& t) {
    ++t.served;
    if (unroutable) ++t.unroutable;
    t.latencies.add(latency_us);
  });
}

void FleetMetrics::record_declare(TenantId tenant, Priority priority,
                                  double latency_us) {
  declares_.fetch_add(1, std::memory_order_relaxed);
  {
    util::MutexLock lock(class_mutex_);
    (priority == Priority::kInteractive ? interactive_ : batch_)
        .add(latency_us);
  }
  with_tenant(tenant, [&](TenantStats& t) {
    ++t.declares;
    t.latencies.add(latency_us);
  });
}

namespace {
/// Shared per-class denial bump for the four rejection recorders.
void bump_denied(std::atomic<std::uint64_t>& interactive,
                 std::atomic<std::uint64_t>& batch, Priority priority) {
  (priority == Priority::kInteractive ? interactive : batch)
      .fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

void FleetMetrics::record_shed_queue_full(TenantId tenant, Priority priority) {
  shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
  bump_denied(interactive_denied_, batch_denied_, priority);
  with_tenant(tenant, [](TenantStats& t) { ++t.shed; });
}

void FleetMetrics::record_shed_watermark(TenantId tenant, Priority priority) {
  shed_watermark_.fetch_add(1, std::memory_order_relaxed);
  bump_denied(interactive_denied_, batch_denied_, priority);
  with_tenant(tenant, [](TenantStats& t) { ++t.shed; });
}

void FleetMetrics::record_throttled(TenantId tenant, Priority priority) {
  throttled_.fetch_add(1, std::memory_order_relaxed);
  bump_denied(interactive_denied_, batch_denied_, priority);
  with_tenant(tenant, [](TenantStats& t) { ++t.throttled; });
}

void FleetMetrics::record_expired(TenantId tenant, Priority priority) {
  expired_.fetch_add(1, std::memory_order_relaxed);
  bump_denied(interactive_denied_, batch_denied_, priority);
  with_tenant(tenant, [](TenantStats& t) { ++t.expired; });
}

FleetMetricsSnapshot FleetMetrics::snapshot() {
  FleetMetricsSnapshot s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.declares = declares_.load(std::memory_order_relaxed);
  s.admin = admin_.load(std::memory_order_relaxed);
  s.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  s.shed_watermark = shed_watermark_.load(std::memory_order_relaxed);
  s.throttled = throttled_.load(std::memory_order_relaxed);
  s.expired = expired_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.interactive_served = interactive_served_.load(std::memory_order_relaxed);
  s.interactive_denied = interactive_denied_.load(std::memory_order_relaxed);
  s.batch_served = batch_served_.load(std::memory_order_relaxed);
  s.batch_denied = batch_denied_.load(std::memory_order_relaxed);
  {
    util::MutexLock lock(class_mutex_);
    if (interactive_.count() > 0) {
      s.interactive_p50_us = interactive_.percentile(50.0);
      s.interactive_p99_us = interactive_.percentile(99.0);
      s.interactive_p999_us = interactive_.percentile(99.9);
    }
    if (batch_.count() > 0) {
      s.batch_p50_us = batch_.percentile(50.0);
      s.batch_p99_us = batch_.percentile(99.0);
      s.batch_p999_us = batch_.percentile(99.9);
    }
  }
  for (Stripe& stripe : stripes_) {
    util::MutexLock lock(stripe.mutex);
    for (auto& [tenant, stats] : stripe.tenants) {
      TenantMetricsRow row;
      row.tenant = tenant;
      row.served = stats.served;
      row.unroutable = stats.unroutable;
      row.declares = stats.declares;
      row.shed = stats.shed;
      row.throttled = stats.throttled;
      row.expired = stats.expired;
      if (stats.latencies.count() > 0) {
        row.latency_p50_us = stats.latencies.percentile(50.0);
        row.latency_p99_us = stats.latencies.percentile(99.0);
        row.latency_p999_us = stats.latencies.percentile(99.9);
        row.latency_max_us = stats.latencies.percentile(100.0);
      }
      s.tenants.push_back(row);
    }
  }
  std::sort(s.tenants.begin(), s.tenants.end(),
            [](const TenantMetricsRow& a, const TenantMetricsRow& b) {
              return a.tenant < b.tenant;
            });
  return s;
}

std::string FleetMetricsSnapshot::to_string() const {
  std::ostringstream out;
  out << "submitted         " << submitted << "\n"
      << "served            " << served << "\n"
      << "declares          " << declares << "\n"
      << "admin ops         " << admin << "\n"
      << "shed (queue full) " << shed_queue_full << "\n"
      << "shed (watermark)  " << shed_watermark << "\n"
      << "throttled         " << throttled << "\n"
      << "expired           " << expired << "\n"
      << "rejected          " << rejected << "\n"
      << "attainment        "
      << static_cast<int>(attainment() * 1000.0 + 0.5) / 10.0 << "%"
      << "  interactive "
      << static_cast<int>(attainment(Priority::kInteractive) * 1000.0 + 0.5) /
             10.0
      << "%  batch "
      << static_cast<int>(attainment(Priority::kBatch) * 1000.0 + 0.5) / 10.0
      << "%\n"
      << "interactive us    p50 " << interactive_p50_us << "  p99 "
      << interactive_p99_us << "  p999 " << interactive_p999_us << "\n"
      << "batch us          p50 " << batch_p50_us << "  p99 " << batch_p99_us
      << "  p999 " << batch_p999_us << "\n"
      << "tenants with traffic  " << tenants.size() << "\n";
  return out.str();
}

}  // namespace tc::svc
