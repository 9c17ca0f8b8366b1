// fleet-zipf: svc::Fleet under skewed multi-tenant load. 1000 tenants,
// each a 20-node Erdos-Renyi graph; quote tenants drawn from Zipf(1.1);
// 10% declares from each tenant's owner (this process's one generator);
// quotes 25% pair / 75% to the access point; priority 50/50.
//
// Phase 1 is an open loop: Poisson arrivals at a fixed offered rate, each
// request timed from when it was due, as (submit - due) +
// Response::latency_us. Phase 2 is a closed loop with a fixed number of
// requests in flight. Threads: 2 shard workers + 1 engine-pool worker +
// the generator (this thread) = 4, the nproc the benchmark is sized for.
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "check.hpp"
#include "core/fast_payment.hpp"
#include "graph/generators.hpp"
#include "svc/fleet.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using tc::graph::Cost;
using tc::graph::NodeGraph;
using tc::graph::NodeId;
using tc::svc::Priority;
using tc::svc::Response;
using tc::svc::TenantId;

constexpr std::size_t kNodes = 20;
constexpr std::size_t kShards = 2;
/// Offered rate of the open loop, requests per second: about half the
/// closed-loop ops_per_s this benchmark measured when it was defined.
constexpr double kOfferedRate = 20000.0;
/// Requests kept in flight by the closed loop.
constexpr std::size_t kWindow = 256;
constexpr double kWriteRatio = 0.10;
constexpr double kPairRatio = 0.25;
constexpr double kZipfS = 1.1;
constexpr double kLimitMs = 50.0;
/// The open loop is invalid when its generator fell behind its schedule:
/// the median request went out more than this late. A stall the generator
/// recovers from is not falling behind; the requests it delayed carry
/// their lag in the latency measured from due.
constexpr double kMaxMedianLagMs = 1.0;
/// Each phase is cut into this many equal time segments. A figure is
/// reported from its quietest quartile of segments: the lower quartile of
/// per-segment latencies, the upper quartile of per-segment rates. Host
/// interference (a descheduled vCPU) only ever adds latency and removes
/// throughput, so it moves a few segments, not the result; a regression
/// in the fleet moves every segment.
constexpr std::size_t kSegments = 16;

double quiet_latency(const std::vector<double>& per_segment) {
  return percentile(per_segment, 25.0);
}
double quiet_rate(const std::vector<double>& per_segment) {
  return percentile(per_segment, 75.0);
}
/// Every k-th answered quote is kept and re-priced by the oracle.
constexpr std::uint64_t kCheckEvery = 64;

std::size_t num_tenants(const Options& opt) { return opt.tiny ? 64 : 1000; }

NodeGraph tenant_graph(std::uint64_t seed, TenantId t) {
  return tc::graph::make_erdos_renyi(kNodes, 0.3, 0.5, 9.0,
                                     derive_seed(seed, 0x7e0000 + t));
}

struct Planned {
  TenantId tenant = 0;
  Priority priority = Priority::kInteractive;
  bool declare = false;
  NodeId a = 0;  ///< quote source / declaring node
  NodeId b = tc::graph::kInvalidNode;  ///< quote target (invalid = AP)
  Cost cost = 0.0;
};

struct Inflight {
  std::future<Response> future;
  Planned req;
  Clock::time_point due;
  Clock::time_point submitted;
  bool open_loop = false;
};

struct QuoteSample {
  NodeId source = 0;
  NodeId target = 0;
  std::uint64_t epoch = 0;
  std::optional<tc::core::PaymentResult> quote;
};

/// Open-loop figures of one time segment (requests bucketed by due time).
struct Segment {
  std::vector<double> ms, inter_ms, lag_ms;
  std::uint64_t within = 0;
};

struct TenantLog {
  struct Declare {
    NodeId node = 0;
    Cost cost = 0.0;
    std::uint64_t epoch = 0;  ///< the epoch the fleet answered with
  };
  std::vector<Declare> declares;  ///< accepted, in order
  std::uint64_t last_epoch = 0;
  std::vector<QuoteSample> samples;
  std::vector<Planned> accepted_open;  ///< open-loop stream, for replay
};

class FleetBench {
 public:
  explicit FleetBench(const Options& opt)
      : opt_(opt),
        tenants_(num_tenants(opt)),
        rng_(derive_seed(opt.seed, 0xf1ee7)),
        zipf_(tenants_, kZipfS),
        pool_(1) {}

  /// Builds the fleet and registers every tenant; returns seconds.
  double setup() {
    fleet_.reset();
    graphs_.clear();
    const Clock::time_point t0 = Clock::now();
    tc::svc::Config config;
    config.fleet.shards = kShards;
    config.engine.pool = &pool_;
    fleet_ = std::make_unique<tc::svc::Fleet>(config);
    for (TenantId t = 0; t < tenants_; ++t) {
      graphs_.push_back(tenant_graph(opt_.seed, t));
      if (fleet_->create_tenant(t, graphs_.back(), 0) != tc::svc::Status::kOk) {
        errors_.push_back("fleet-zipf: create_tenant failed");
      }
    }
    const double s = seconds_since(t0);
    logs_.assign(tenants_, TenantLog{});
    return s;
  }

  /// Poisson arrivals at kOfferedRate for `secs`.
  void open_loop(double secs, Tracer& tracer) {
    const Clock::time_point start = Clock::now();
    open_start_ = start;
    seg_s = secs / kSegments;
    segments.assign(kSegments, Segment{});
    Clock::time_point due = start;
    std::uint64_t id = 0;
    for (;;) {
      const double gap = -std::log(1.0 - rng_.next_double()) / kOfferedRate;
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap));
      if (std::chrono::duration<double>(due - start).count() >= secs) break;
      while (Clock::now() < due) harvest_ready(8);
      submit(plan(), due, true, tracer, id++);
    }
    for (const Inflight& f : inflight_) {
      if (f.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++backlog;
      }
    }
    while (!inflight_.empty()) harvest_head();
  }

  /// kWindow requests in flight for `secs`; returns completions per
  /// second of the quiet segments.
  double closed_loop(double secs, Tracer& tracer) {
    std::vector<double> rates;
    std::uint64_t id = 0;
    for (std::size_t seg = 0; seg < kSegments; ++seg) {
      const Clock::time_point start = Clock::now();
      std::uint64_t done = 0;
      while (seconds_since(start) < secs / kSegments) {
        while (inflight_.size() < kWindow) {
          submit(plan(), Clock::now(), false, tracer, id++);
        }
        harvest_head();
        ++done;
      }
      rates.push_back(static_cast<double>(done) / seconds_since(start));
    }
    while (!inflight_.empty()) harvest_head();
    return quiet_rate(rates);
  }

  /// Oracle gates: sampled quotes re-priced at their epoch, then every
  /// tenant's final state probed against a conservative oracle engine.
  void verify(Report& report) {
    for (const std::string& e : errors_) report.fail(e);
    if (opt_.perturb) {
      for (TenantLog& log : logs_) {
        if (!log.samples.empty() && log.samples.front().quote) {
          perturb_payment(*log.samples.front().quote);
          break;
        }
      }
    }
    std::size_t divergences = 0;
    for (TenantId t = 0; t < tenants_; ++t) {
      TenantLog& log = logs_[t];
      NodeGraph g = graphs_[t];
      std::size_t applied = 0;
      std::stable_sort(log.samples.begin(), log.samples.end(),
                       [](const QuoteSample& x, const QuoteSample& y) {
                         return x.epoch < y.epoch;
                       });
      for (const QuoteSample& s : log.samples) {
        while (applied < log.declares.size() &&
               log.declares[applied].epoch <= s.epoch) {
          g.set_node_cost(log.declares[applied].node,
                          log.declares[applied].cost);
          ++applied;
        }
        const tc::core::PaymentResult want =
            tc::core::vcg_payments_fast(g, s.source, s.target);
        const bool same = s.quote.has_value()
                              ? same_result(want, *s.quote, false)
                              : !want.connected();
        if (!same) ++divergences;
      }
      divergences += probe_tenant(t);
    }
    if (divergences != 0) {
      report.fail("fleet-zipf: " + std::to_string(divergences) +
                  " divergence(s) from the per-tenant oracle");
    }
  }

  /// Replays each tenant's accepted open-loop stream on a standalone
  /// engine with the fleet's EngineConfig, one "engine.replay" span per
  /// call.
  void replay_engines(Tracer& tracer) {
    tc::svc::EngineConfig config;
    config.pool = &pool_;
    std::uint64_t id = 0;
    for (TenantId t = 0; t < tenants_; ++t) {
      tc::svc::QuoteEngine engine(graphs_[t], 0, nullptr, config);
      for (const Planned& p : logs_[t].accepted_open) {
        Scope span(tracer, "engine.replay", id++);
        if (p.declare) {
          (void)engine.declare_cost(p.a, p.cost);
        } else if (p.b == tc::graph::kInvalidNode) {
          (void)engine.quote(p.a);
        } else {
          (void)engine.quote(p.a, p.b);
        }
      }
    }
  }

  tc::svc::FleetMetricsSnapshot fleet_metrics() { return fleet_->metrics(); }
  void shutdown() { fleet_.reset(); }

  std::vector<Segment> segments;
  std::vector<double> sojourn_us;
  double seg_s = 1.0;
  std::size_t backlog = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  Planned plan() {
    Planned p;
    p.priority = rng_.bernoulli(0.5) ? Priority::kInteractive : Priority::kBatch;
    if (rng_.bernoulli(kWriteRatio)) {
      p.tenant = static_cast<TenantId>(rng_.next_below(tenants_));
      p.declare = true;
      p.a = static_cast<NodeId>(1 + rng_.next_below(kNodes - 1));
      p.cost = rng_.uniform(0.5, 12.0);
      return p;
    }
    p.tenant = static_cast<TenantId>(zipf_.sample(rng_));
    p.a = static_cast<NodeId>(1 + rng_.next_below(kNodes - 1));
    if (rng_.bernoulli(kPairRatio)) {
      p.b = static_cast<NodeId>(rng_.next_below(kNodes));
      if (p.b == p.a) p.b = 0;
    }
    return p;
  }

  void submit(const Planned& p, Clock::time_point due, bool open,
              Tracer& tracer, std::uint64_t id) {
    tc::svc::Request req;
    req.tenant = p.tenant;
    req.priority = p.priority;
    if (p.declare) {
      req.op = tc::svc::DeclareOp{p.a, p.cost};
    } else {
      req.op = tc::svc::QuoteOp{p.a, p.b};
    }
    Inflight f;
    f.req = p;
    f.due = due;
    f.open_loop = open;
    f.submitted = Clock::now();
    {
      Scope span(tracer, "fleet.submit", id);
      f.future = fleet_->submit(std::move(req));
    }
    if (open) segment_of(due).lag_ms.push_back(us_between(due, f.submitted) / 1e3);
    ++attempted;
    inflight_.push_back(std::move(f));
  }

  Segment& segment_of(Clock::time_point due) {
    const auto k = static_cast<std::size_t>(
        std::chrono::duration<double>(due - open_start_).count() / seg_s);
    return segments[std::min(k, segments.size() - 1)];
  }

  void harvest_ready(std::size_t max) {
    for (std::size_t i = 0; i < max && !inflight_.empty(); ++i) {
      if (inflight_.front().future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        return;
      }
      harvest_head();
    }
  }

  void harvest_head() {
    Inflight f = std::move(inflight_.front());
    inflight_.pop_front();
    complete(f, f.future.get());
  }

  void complete(const Inflight& f, const Response& r) {
    TenantLog& log = logs_[f.req.tenant];
    const bool ok = r.ok();
    if (!ok) ++failed;
    if (ok) {
      if (r.epoch < log.last_epoch) {
        errors_.push_back("fleet-zipf: tenant epoch went backwards");
      }
      log.last_epoch = r.epoch;
      if (f.req.declare) {
        // A declare bumps the epoch by one, or by none when it re-declares
        // the current cost.
        const std::uint64_t prev =
            log.declares.empty() ? 1 : log.declares.back().epoch;
        if (r.epoch != prev && r.epoch != prev + 1) {
          errors_.push_back("fleet-zipf: declare epoch out of sequence");
        }
        log.declares.push_back({f.req.a, f.req.cost, r.epoch});
      } else if (++quotes_ % kCheckEvery == 0) {
        log.samples.push_back({f.req.a,
                               f.req.b == tc::graph::kInvalidNode ? NodeId{0}
                                                                 : f.req.b,
                               r.epoch, r.quote});
      }
      if (f.open_loop) log.accepted_open.push_back(f.req);
    }
    if (!f.open_loop) return;
    // A failed request counts as missing the latency limit.
    const double measured =
        us_between(f.due, f.submitted) / 1e3 + r.latency_us / 1e3;
    const double ms = ok ? measured : std::max(measured, kLimitMs);
    Segment& seg = segment_of(f.due);
    seg.ms.push_back(ms);
    if (f.req.priority == Priority::kInteractive) seg.inter_ms.push_back(ms);
    if (ok && ms <= kLimitMs) ++seg.within;
    if (ok) sojourn_us.push_back(r.latency_us);
  }

  /// fleet_soak's probe: a fresh conservative engine replays the tenant's
  /// accepted declares; probe quotes through the fleet must match it.
  std::size_t probe_tenant(TenantId t) {
    tc::svc::EngineConfig conservative;
    conservative.incremental_invalidation = false;
    conservative.cow_snapshots = false;
    conservative.warm_spt_cache = false;
    conservative.pool = &pool_;
    tc::svc::QuoteEngine oracle(graphs_[t], 0, nullptr, conservative);
    for (const TenantLog::Declare& d : logs_[t].declares) {
      (void)oracle.declare_cost(d.node, d.cost);
    }
    std::size_t divergences = 0;
    for (const NodeId source :
         {NodeId{1}, static_cast<NodeId>(kNodes / 2),
          static_cast<NodeId>(kNodes - 1)}) {
      tc::svc::Request req;
      req.tenant = t;
      req.op = tc::svc::QuoteOp{source, tc::graph::kInvalidNode};
      const Response got = fleet_->call(std::move(req));
      const auto want = oracle.quote(source);
      const bool same = got.ok() && got.epoch == oracle.epoch() &&
                        got.quote.has_value() == want.has_value() &&
                        (!want || same_result(*want, *got.quote, true));
      if (!same) ++divergences;
    }
    return divergences;
  }

  const Options& opt_;
  const std::size_t tenants_;
  tc::util::Rng rng_;
  Zipf zipf_;
  tc::util::ThreadPool pool_;  // declared before fleet_: outlives it
  std::unique_ptr<tc::svc::Fleet> fleet_;
  std::vector<NodeGraph> graphs_;
  std::vector<TenantLog> logs_;
  std::deque<Inflight> inflight_;
  std::vector<std::string> errors_;
  std::uint64_t quotes_ = 0;
  Clock::time_point open_start_;
};

/// Quiet-quartile figures of an open loop.
struct OpenSummary {
  double p50_ms = 0, p99_ms = 0, inter_p99_ms = 0, goodput = 0;
  double lag_p50_ms = 0, lag_p99_ms = 0;
};

/// Summarizes the open loop. When `gate` is set, fails the run if the
/// generator fell behind its schedule: its figures would not describe an
/// open loop. (The traced decomposition only reports the lag.)
OpenSummary summarize_open(const FleetBench& b, Report& report, bool gate) {
  OpenSummary out;
  std::vector<double> p50, p99, inter, goodput, lag;
  for (const Segment& seg : b.segments) {
    p50.push_back(median(seg.ms));
    p99.push_back(percentile(seg.ms, 99.0));
    inter.push_back(percentile(seg.inter_ms, 99.0));
    goodput.push_back(static_cast<double>(seg.within) / b.seg_s);
    lag.insert(lag.end(), seg.lag_ms.begin(), seg.lag_ms.end());
  }
  out.lag_p50_ms = median(lag);
  out.lag_p99_ms = percentile(lag, 99.0);
  std::fprintf(stderr,
               "fleet-zipf open loop: offered %.0f/s, generator lag p50 %.4f "
               "ms p99 %.4f ms, backlog at phase end %zu\n",
               kOfferedRate, out.lag_p50_ms, out.lag_p99_ms, b.backlog);
  if (gate && !(out.lag_p50_ms <= kMaxMedianLagMs)) {
    report.fail("fleet-zipf: run invalid, the generator fell behind its "
                "schedule (median lag " + std::to_string(out.lag_p50_ms) +
                " ms)");
    return out;
  }
  out.p50_ms = quiet_latency(p50);
  out.p99_ms = quiet_latency(p99);
  out.inter_p99_ms = quiet_latency(inter);
  out.goodput = quiet_rate(goodput);
  return out;
}

}  // namespace

void run_fleet_zipf(const Options& opt, Report& report) {
  FleetBench b(opt);
  const double setup = median_of(15, [&] { return b.setup(); });
  report.set("setup_s", setup, "s");
  Tracer off(false);
  b.open_loop(0.45 * opt.seconds, off);
  const double ops = b.closed_loop(0.35 * opt.seconds, off);
  report.set("peak_rss_mib", peak_rss_mib(), "MiB");
  const OpenSummary open = summarize_open(b, report, true);
  report.set("p50_ms", open.p50_ms, "ms");
  report.set("p99_ms", open.p99_ms, "ms");
  report.set("interactive_p99_ms", open.inter_p99_ms, "ms");
  report.set("goodput_rps", open.goodput, "1/s");
  report.set("ops_per_s", ops, "1/s");
  report.set("success_rate",
             1.0 - static_cast<double>(b.failed) /
                       static_cast<double>(b.attempted),
             "fraction");
  report.count(b.attempted, b.failed);
  b.verify(report);
  b.shutdown();
  scale_sweep(opt, 0.2 * opt.seconds, report, false);
}

double primary_fleet_zipf(const Options& opt, double budget_s, Tracer& tracer,
                          Report& report) {
  FleetBench b(opt);
  b.setup();
  b.open_loop(budget_s, tracer);
  report.count(b.attempted, b.failed);
  b.verify(report);
  return summarize_open(b, report, true).p50_ms * 1e3;
}

void layers_fleet_zipf(const Options& opt, double budget_s, Tracer& tracer,
                       Report& report) {
  FleetBench b(opt);
  b.setup();
  b.open_loop(0.6 * budget_s, tracer);
  Tracer off(false);  // fleet.submit_us covers open-loop submits only
  (void)b.closed_loop(0.4 * budget_s, off);
  const tc::svc::FleetMetricsSnapshot m = b.fleet_metrics();
  const OpenSummary open = summarize_open(b, report, false);
  b.verify(report);
  b.shutdown();
  b.replay_engines(tracer);

  const double sojourn = median(b.sojourn_us);
  const double engine = median(tracer.durations_us("engine.replay"));
  report.set("fleet.submit_us", median(tracer.durations_us("fleet.submit")),
             "us");
  report.set("fleet.sojourn_us", sojourn, "us");
  report.set("fleet.engine_us", engine, "us");
  report.set("fleet.overhead_us", sojourn - engine, "us");
  report.set("fleet.coalesce_ratio",
             m.served == 0 ? 0.0
                           : static_cast<double>(m.coalesced_requests) /
                                 static_cast<double>(m.served),
             "fraction");
  report.set("fleet.stolen_runs", static_cast<double>(m.stolen_runs), "count");
  report.set("fleet.stolen_requests", static_cast<double>(m.stolen_requests),
             "count");
  report.set("fleet.shed",
             static_cast<double>(m.shed_queue_full + m.shed_watermark),
             "count");
  report.set("fleet.expired", static_cast<double>(m.expired), "count");
  report.set("fleet.throttled", static_cast<double>(m.throttled), "count");
  report.set("harness.gen_lag_p99_ms", open.lag_p99_ms, "ms");
  report.set("harness.backlog_at_end", static_cast<double>(b.backlog),
             "count");
  report.count(b.attempted, b.failed);
}

}  // namespace perfbench
