// svc::Fleet: many tenants, one service, one request API.
//
// A Fleet hosts thousands of independent QuoteEngine tenants — one
// engine (graph + access point + pricer + cache stack) per TenantId —
// behind a single typed submit(Request) -> future<Response> surface.
// Everything a client can ask for is a Request alternative: quotes
// (single and batch), cost declarations, administrative node-down
// marks, and tenant lifecycle (create/drop). Every answer is a typed
// Response carrying a Status — a shed or expired request gets an
// explicit rejection, never a stale quote.
//
// Dispatch (DESIGN.md §15)
//   A tenant lives on shard `tenant % shards` for its whole life. Each
//   shard runs ONE worker thread behind a bounded mailbox
//   (util::BoundedQueue): clients push, the worker pops. The worker
//   folds arrivals into per-tenant FIFO *runs* and serves the runs by
//   deficit round robin over the two SLO classes, interactive:batch
//   weighted 8:1, so a batch flood cannot inflate interactive tail
//   latency while batch still makes progress. Runs, round-robin state
//   and tenant engines belong to the worker alone and carry no lock;
//   the mailbox's own leaf lock is the only lock in a shard. Per-tenant
//   FIFO order follows: one run, one worker, served front to back.
//
// Admission control (runs inline on the submitting thread)
//   1. shutdown check            -> kShutdown
//   2. per-tenant token bucket   -> kThrottled      (quote kinds only)
//   3. watermark shed            -> kShedWatermark  (kBatch quotes once
//                                   the shard queue is deeper than
//                                   FleetConfig::shed_watermark)
//   4. depth gate + mailbox push -> kShedQueueFull  (hard capacity)
//   Admission rejections resolve the future immediately — a client
//   never waits on a request the fleet already refused. Declares and
//   admin ops skip 2-3: state mutations must not be silently dropped
//   by load shedding (a rejected declare is still visible to the
//   client as kShedQueueFull, so replay stays deterministic).
//
// Deadlines
//   Every request carries a deadline (deadline_us after submission; 0
//   means FleetConfig::default_deadline_us; a deadline past the clock's
//   range saturates to "never"). A worker that reaches a *quote* past
//   its deadline answers kExpiredDeadline instead of pricing dead
//   work. Declares and admin ops always execute once queued, whatever
//   their age — dropping a write that was admitted would fork the
//   tenant's declared-cost history.
//
// Every decision above is counted in FleetMetrics (fleet-wide and
// per-tenant, with per-priority-class latency percentiles); see
// svc/metrics.hpp and DESIGN.md §12/§15.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "svc/config.hpp"
#include "svc/quote_engine.hpp"
#include "util/bounded_queue.hpp"
#include "util/thread_annotations.hpp"

namespace tc::svc {

/// Outcome class of a fleet response. kOk is the only success.
enum class Status : std::uint8_t {
  kOk = 0,
  kUnknownTenant,   ///< no engine registered for Request::tenant
  kTenantExists,    ///< CreateTenantOp for an id already hosted
  kInvalidRequest,  ///< out-of-range node, bad cost, source==target, ...
  kShedQueueFull,   ///< shard mailbox at hard capacity
  kShedWatermark,   ///< batch-priority quote shed above the watermark
  kThrottled,       ///< per-tenant token bucket empty
  kExpiredDeadline, ///< deadline passed before pricing (quotes only)
  kShutdown,        ///< fleet is stopping; request not accepted
};

[[nodiscard]] const char* to_string(Status s);

// --------------------------------------------------------------------------
// Request alternatives (the tagged union's arms)
// --------------------------------------------------------------------------

/// Quote one route. target == graph::kInvalidNode means "to the access
/// point" (the paper's canonical direction); otherwise an ordered pair.
struct QuoteOp {
  graph::NodeId source = 0;
  graph::NodeId target = graph::kInvalidNode;
};

/// Bulk ordered-pair quotes, priced as one engine call (thread-pool
/// fan-out inside the tenant's engine).
struct QuoteBatchOp {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
};

/// Node `node` (re)declares its relay cost.
struct DeclareOp {
  graph::NodeId node = 0;
  graph::Cost cost = 0.0;
};

/// Administrative removal: `node` stopped relaying (crash, decommission).
struct MarkNodeDownOp {
  graph::NodeId node = 0;
};

/// Registers a tenant: its topology, access point, and (optionally) a
/// non-default pricer. Engine knobs come from the fleet's Config.
struct CreateTenantOp {
  graph::NodeGraph topology;
  graph::NodeId access_point = 0;
  std::shared_ptr<const Pricer> pricer;  ///< nullptr = engine default
};

/// Unregisters a tenant and destroys its engine.
struct DropTenantOp {};

using RequestOp = std::variant<QuoteOp, QuoteBatchOp, DeclareOp,
                               MarkNodeDownOp, CreateTenantOp, DropTenantOp>;

/// One message into the fleet.
struct Request {
  TenantId tenant = 0;
  Priority priority = Priority::kInteractive;
  /// Microseconds after submission before the request is dead; 0 means
  /// FleetConfig::default_deadline_us.
  std::uint64_t deadline_us = 0;
  RequestOp op;
};

/// One message out. Which payload fields are meaningful depends on the
/// request kind; status == kOk guarantees the matching one is set.
struct Response {
  Status status = Status::kOk;
  TenantId tenant = 0;
  /// Declaration epoch now in effect (declare / mark-down responses) or
  /// the epoch a quote was priced under.
  std::uint64_t epoch = 0;
  /// QuoteOp result; nullopt with status kOk means "no route exists".
  std::optional<core::PaymentResult> quote;
  /// QuoteBatchOp results, one slot per requested pair.
  std::vector<std::optional<core::PaymentResult>> quotes;
  /// Submit -> completion wall latency as measured by the fleet.
  double latency_us = 0.0;

  [[nodiscard]] bool ok() const { return status == Status::kOk; }
};

// --------------------------------------------------------------------------
// Fleet
// --------------------------------------------------------------------------

class Fleet {
 public:
  /// Validates `config` (TC_CHECK on the first problem; call
  /// config.validate() yourself to fail softly) and starts the workers.
  explicit Fleet(Config config = {});
  /// Drains every shard mailbox (queued requests still get answers),
  /// then joins the workers. Submissions racing shutdown get kShutdown.
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Submits one request. Admission control runs inline; a rejected
  /// request's future is ready immediately. The future never dangles:
  /// shutdown answers queued requests before the workers exit.
  [[nodiscard]] std::future<Response> submit(Request req);

  /// Blocking convenience: submit and wait.
  [[nodiscard]] Response call(Request req) {
    return submit(std::move(req)).get();
  }

  /// Admin conveniences; both route through the request path (kOk /
  /// kTenantExists / kUnknownTenant / kShedQueueFull / kShutdown).
  Status create_tenant(TenantId tenant, graph::NodeGraph topology,
                       graph::NodeId access_point,
                       std::shared_ptr<const Pricer> pricer = nullptr);
  Status drop_tenant(TenantId tenant);

  std::size_t num_shards() const { return shards_.size(); }
  const Config& config() const { return config_; }

  /// Point-in-time fleet-wide + per-tenant instrumentation snapshot.
  [[nodiscard]] FleetMetricsSnapshot metrics() { return metrics_.snapshot(); }

 private:
  using Clock = std::chrono::steady_clock;

  /// One queued request: the message, its resolved deadline, and the
  /// promise the worker (or admission control) answers.
  struct Pending {
    Request req;
    std::promise<Response> promise;
    Clock::time_point submitted;
    Clock::time_point deadline;
  };

  /// One shard: the mailbox clients push into and the worker that
  /// drains it. Everything else the worker needs lives in its Worker.
  struct Shard {
    explicit Shard(std::size_t capacity) : mailbox(capacity) {}

    util::BoundedQueue<Pending> mailbox;
    /// Admitted requests not yet detached for execution (mailbox plus
    /// runs). Advisory cross-thread reads feed the admission gates.
    std::atomic<std::size_t> queued{0};
    std::thread worker;
  };

  /// A worker's private state: runs, round-robin state and engines
  /// (defined in fleet.cpp).
  struct Worker;

  /// Classic token bucket, refilled lazily on each admission check.
  struct TokenBucket {
    double tokens = 0.0;
    Clock::time_point refilled;
  };

  Shard& shard_of(TenantId tenant) {
    return *shards_[tenant % shards_.size()];
  }
  /// Token-bucket admission for quote kinds; true = admit.
  bool admit_quote(TenantId tenant) TC_EXCLUDES(admission_mutex_);
  /// Gates 3-4 and the mailbox push. On rejection the Pending still
  /// owns its promise.
  [[nodiscard]] bool admit_and_stage(Shard& shard, Pending& p,
                                     Response& reject);
  /// Resolves `p` with `r`, stamping latency and fleet metrics.
  void finish(Pending& p, Response r);
  void worker_loop(Shard& shard);
  /// Executes one request against the worker's engines and answers it.
  void execute(Worker& worker, Pending& p);

  Config config_;
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Guards the token buckets only; taken briefly inside submit().
  util::Mutex admission_mutex_;
  std::unordered_map<TenantId, TokenBucket> buckets_
      TC_GUARDED_BY(admission_mutex_);
  FleetMetrics metrics_;
};

}  // namespace tc::svc
