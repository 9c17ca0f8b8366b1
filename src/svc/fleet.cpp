#include "svc/fleet.hpp"

#include <algorithm>
#include <array>
#include <deque>

#include "util/check.hpp"

namespace tc::svc {

using graph::NodeId;

namespace {

constexpr std::size_t kDefaultFleetShards = 4;
/// Mailbox items folded into runs per try_pop_n call.
constexpr std::size_t kFoldBatch = 256;
constexpr std::size_t kNumClasses = 2;
/// DRR quantum per Priority class, in requests: interactive:batch 8:1.
constexpr std::array<std::int64_t, kNumClasses> kQuantum = {64, 8};

std::size_t class_index(Priority p) { return static_cast<std::size_t>(p); }

bool is_quote_kind(const RequestOp& op) {
  return std::holds_alternative<QuoteOp>(op) ||
         std::holds_alternative<QuoteBatchOp>(op);
}

bool is_admin_kind(const RequestOp& op) {
  return std::holds_alternative<CreateTenantOp>(op) ||
         std::holds_alternative<DropTenantOp>(op);
}

double elapsed_us(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Prices a QuoteOp / QuoteBatchOp against its tenant's engine.
Response price_quote(QuoteEngine& engine, const RequestOp& op) {
  Response r;
  const std::size_t n = engine.num_nodes();
  if (const auto* quote = std::get_if<QuoteOp>(&op)) {
    const NodeId target = quote->target == graph::kInvalidNode
                              ? engine.access_point()
                              : quote->target;
    if (quote->source >= n || target >= n || quote->source == target) {
      r.status = Status::kInvalidRequest;
      return r;
    }
    r.quote = quote->target == graph::kInvalidNode
                  ? engine.quote(quote->source)
                  : engine.quote(quote->source, quote->target);
  } else {
    const auto& batch = std::get<QuoteBatchOp>(op);
    for (const auto& [u, v] : batch.pairs) {
      if (u >= n || v >= n || u == v) {
        r.status = Status::kInvalidRequest;
        return r;
      }
    }
    r.quotes = engine.quote_batch(batch.pairs);
  }
  r.epoch = engine.epoch();
  return r;
}

/// Applies a DeclareOp / MarkNodeDownOp to its tenant's engine.
Response apply_write(QuoteEngine& engine, const RequestOp& op) {
  Response r;
  const std::size_t n = engine.num_nodes();
  if (const auto* declare = std::get_if<DeclareOp>(&op)) {
    if (declare->node >= n || declare->cost < 0.0 ||
        !graph::finite_cost(declare->cost)) {
      r.status = Status::kInvalidRequest;
      return r;
    }
    r.epoch = engine.declare_cost(declare->node, declare->cost);
    return r;
  }
  const auto& down = std::get<MarkNodeDownOp>(op);
  if (down.node >= n || down.node == engine.access_point()) {
    r.status = Status::kInvalidRequest;
    return r;
  }
  r.epoch = engine.mark_node_down(down.node);
  return r;
}

}  // namespace

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kUnknownTenant: return "unknown-tenant";
    case Status::kTenantExists: return "tenant-exists";
    case Status::kInvalidRequest: return "invalid-request";
    case Status::kShedQueueFull: return "shed-queue-full";
    case Status::kShedWatermark: return "shed-watermark";
    case Status::kThrottled: return "throttled";
    case Status::kExpiredDeadline: return "expired-deadline";
    case Status::kShutdown: return "shutdown";
  }
  return "unknown";
}

Fleet::Fleet(Config config) : config_(std::move(config)) {
  const std::string err = config_.validate();
  TC_CHECK_MSG(err.empty(), "invalid svc::Config");
  if (config_.fleet.shards == 0) config_.fleet.shards = kDefaultFleetShards;
  if (config_.fleet.shed_watermark == 0) {
    config_.fleet.shed_watermark = config_.fleet.queue_capacity / 2;
  }
  shards_.reserve(config_.fleet.shards);
  for (std::size_t i = 0; i < config_.fleet.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(config_.fleet.queue_capacity));
  }
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, s = shard.get()] { worker_loop(*s); });
  }
}

Fleet::~Fleet() {
  stopping_.store(true, std::memory_order_release);
  for (auto& shard : shards_) shard->mailbox.close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

std::future<Response> Fleet::submit(Request req) {
  metrics_.record_submitted();
  const auto now = Clock::now();
  const std::uint64_t deadline_us =
      req.deadline_us != 0 ? req.deadline_us
                           : config_.fleet.default_deadline_us;
  // A deadline the clock cannot represent means "no deadline": saturate
  // instead of overflowing the microsecond -> nanosecond conversion.
  const auto headroom = std::chrono::duration_cast<std::chrono::microseconds>(
      Clock::time_point::max() - now);
  Pending p;
  p.submitted = now;
  p.deadline =
      deadline_us >= static_cast<std::uint64_t>(headroom.count())
          ? Clock::time_point::max()
          : now + std::chrono::microseconds(
                      static_cast<std::int64_t>(deadline_us));
  p.req = std::move(req);
  std::future<Response> future = p.promise.get_future();

  Response reject;
  if (stopping_.load(std::memory_order_acquire)) {
    reject.status = Status::kShutdown;
  } else if (is_quote_kind(p.req.op) &&
             config_.fleet.tenant_rate_per_sec > 0.0 &&
             !admit_quote(p.req.tenant)) {
    // Admission step 2 gates quotes only: a declare or admin op that the
    // fleet admits must reach the worker, or replayed state would fork.
    reject.status = Status::kThrottled;
  } else if (admit_and_stage(shard_of(p.req.tenant), p, reject)) {
    return future;
  }
  finish(p, std::move(reject));
  return future;
}

bool Fleet::admit_and_stage(Shard& shard, Pending& p, Response& reject) {
  const std::size_t depth = shard.queued.load(std::memory_order_relaxed);
  if (is_quote_kind(p.req.op) && p.req.priority == Priority::kBatch &&
      depth >= config_.fleet.shed_watermark) {
    reject.status = Status::kShedWatermark;
    return false;
  }
  if (depth >= config_.fleet.queue_capacity) {
    reject.status = Status::kShedQueueFull;
    return false;
  }
  // Count before the push so the worker's decrement can never run first
  // and wrap the depth other submitters read.
  shard.queued.fetch_add(1, std::memory_order_relaxed);
  // try_push moves from p only on success; a rejected p still owns its
  // promise, which the shed path must answer.
  if (!shard.mailbox.try_push(std::move(p))) {
    shard.queued.fetch_sub(1, std::memory_order_relaxed);
    reject.status = stopping_.load(std::memory_order_acquire)
                        ? Status::kShutdown
                        : Status::kShedQueueFull;
    return false;
  }
  return true;
}

Status Fleet::create_tenant(TenantId tenant, graph::NodeGraph topology,
                            graph::NodeId access_point,
                            std::shared_ptr<const Pricer> pricer) {
  Request req;
  req.tenant = tenant;
  req.op = CreateTenantOp{std::move(topology), access_point,
                          std::move(pricer)};
  return call(std::move(req)).status;
}

Status Fleet::drop_tenant(TenantId tenant) {
  Request req;
  req.tenant = tenant;
  req.op = DropTenantOp{};
  return call(std::move(req)).status;
}

bool Fleet::admit_quote(TenantId tenant) {
  const auto now = Clock::now();
  const double rate = config_.fleet.tenant_rate_per_sec;
  const double burst = config_.fleet.tenant_burst;
  util::MutexLock lock(admission_mutex_);
  auto [it, inserted] = buckets_.try_emplace(tenant);
  TokenBucket& bucket = it->second;
  if (inserted) {
    bucket.tokens = burst;
    bucket.refilled = now;
  } else {
    const double sec =
        std::chrono::duration<double>(now - bucket.refilled).count();
    bucket.tokens = std::min(burst, bucket.tokens + sec * rate);
    bucket.refilled = now;
  }
  if (bucket.tokens < 1.0) return false;
  bucket.tokens -= 1.0;
  return true;
}

void Fleet::finish(Pending& p, Response r) {
  const TenantId tenant = p.req.tenant;
  const Priority priority = p.req.priority;
  r.tenant = tenant;
  r.latency_us = elapsed_us(p.submitted, Clock::now());
  switch (r.status) {
    case Status::kOk:
      if (is_quote_kind(p.req.op)) {
        const bool unroutable =
            std::holds_alternative<QuoteOp>(p.req.op) && !r.quote.has_value();
        metrics_.record_served(tenant, priority, r.latency_us, unroutable);
      } else if (is_admin_kind(p.req.op)) {
        metrics_.record_admin();
      } else {
        metrics_.record_declare(tenant, priority, r.latency_us);
      }
      break;
    case Status::kShedQueueFull:
      metrics_.record_shed_queue_full(tenant, priority);
      break;
    case Status::kShedWatermark:
      metrics_.record_shed_watermark(tenant, priority);
      break;
    case Status::kThrottled:
      metrics_.record_throttled(tenant, priority);
      break;
    case Status::kExpiredDeadline:
      metrics_.record_expired(tenant, priority);
      break;
    default:
      metrics_.record_rejected();
      break;
  }
  p.promise.set_value(std::move(r));
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Only the shard's worker thread touches this, so nothing here is
/// locked. Invariant: a tenant has a run iff it has queued requests,
/// and then it sits exactly once in the ready list of its run's head
/// request's class.
struct Fleet::Worker {
  std::unordered_map<TenantId, std::deque<Pending>> runs;
  std::array<std::deque<TenantId>, kNumClasses> ready;
  std::array<std::int64_t, kNumClasses> deficit = {};
  std::size_t turn = 0;
  std::unordered_map<TenantId, std::unique_ptr<QuoteEngine>> engines;

  void add(Pending p) {
    std::deque<Pending>& run = runs[p.req.tenant];
    if (run.empty()) ready[class_index(p.req.priority)].push_back(p.req.tenant);
    run.push_back(std::move(p));
  }

  /// Deficit round robin: detaches into `chunk` the longest same-class
  /// prefix of the next ready run that the class's credit allows.
  /// Returns false when no run is ready.
  bool detach(std::vector<Pending>& chunk) {
    std::size_t cls = turn;
    for (std::size_t scanned = 0; scanned < kNumClasses; ++scanned) {
      if (!ready[cls].empty()) break;
      // An empty class forfeits its accumulated credit (classic DRR).
      deficit[cls] = 0;
      cls = (cls + 1) % kNumClasses;
    }
    if (ready[cls].empty()) return false;
    if (deficit[cls] <= 0) deficit[cls] += kQuantum[cls];

    const TenantId tenant = ready[cls].front();
    ready[cls].pop_front();
    auto it = runs.find(tenant);
    std::deque<Pending>& run = it->second;
    chunk.clear();
    while (!run.empty() &&
           static_cast<std::int64_t>(chunk.size()) < deficit[cls] &&
           class_index(run.front().req.priority) == cls) {
      chunk.push_back(std::move(run.front()));
      run.pop_front();
    }
    deficit[cls] -= static_cast<std::int64_t>(chunk.size());
    turn = deficit[cls] > 0 ? cls : (cls + 1) % kNumClasses;
    // The rest of the run queues behind the other ready tenants of its
    // new head's class; it cannot be picked before this chunk is done.
    if (run.empty()) {
      runs.erase(it);
    } else {
      ready[class_index(run.front().req.priority)].push_back(tenant);
    }
    return true;
  }
};

void Fleet::worker_loop(Shard& shard) {
  Worker worker;
  std::vector<Pending> arrivals;
  std::vector<Pending> chunk;
  for (;;) {
    while (shard.mailbox.try_pop_n(arrivals, kFoldBatch) > 0) {
      for (Pending& p : arrivals) worker.add(std::move(p));
      arrivals.clear();
    }
    if (!worker.detach(chunk)) {
      // Nothing is ready: block for the next arrival. nullopt means the
      // mailbox is closed and drained, and every run has been served.
      std::optional<Pending> next = shard.mailbox.pop();
      if (!next) return;
      worker.add(std::move(*next));
      continue;
    }
    shard.queued.fetch_sub(chunk.size(), std::memory_order_relaxed);
    for (Pending& p : chunk) execute(worker, p);
  }
}

void Fleet::execute(Worker& worker, Pending& p) {
  const TenantId tenant = p.req.tenant;
  auto it = worker.engines.find(tenant);
  QuoteEngine* engine = it == worker.engines.end() ? nullptr : it->second.get();
  Response r;
  if (is_quote_kind(p.req.op)) {
    if (Clock::now() > p.deadline) {
      r.status = Status::kExpiredDeadline;
    } else if (engine == nullptr) {
      r.status = Status::kUnknownTenant;
    } else {
      r = price_quote(*engine, p.req.op);
    }
  } else if (auto* create = std::get_if<CreateTenantOp>(&p.req.op)) {
    const bool pricer_ok = create->pricer == nullptr ||
                           create->pricer->model() == GraphModel::kNode;
    if (engine != nullptr) {
      r.status = Status::kTenantExists;
    } else if (create->access_point >= create->topology.num_nodes() ||
               !pricer_ok) {
      r.status = Status::kInvalidRequest;
    } else {
      worker.engines.emplace(
          tenant, std::make_unique<QuoteEngine>(
                      std::move(create->topology), create->access_point,
                      std::move(create->pricer), config_.engine));
    }
  } else if (std::holds_alternative<DropTenantOp>(p.req.op)) {
    if (engine == nullptr) {
      r.status = Status::kUnknownTenant;
    } else {
      worker.engines.erase(it);
    }
  } else if (engine == nullptr) {
    r.status = Status::kUnknownTenant;
  } else {
    r = apply_write(*engine, p.req.op);
  }
  finish(p, std::move(r));
}

}  // namespace tc::svc
