// perfbench: shared plumbing for the three seeded workloads.
//
// Everything here belongs to the benchmark, not to the truthcast
// libraries: the run options, the metric report, the span tracer, the
// Zipf sampler, the seeded graph generators and the host stamp. Workloads
// call into the libraries only through their public headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/node_graph.hpp"
#include "util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the smoke mode: every workload finishes in seconds.
  bool tiny = false;
  /// Deliberately corrupt one checked output, so the gates must fail.
  bool perturb = false;
  std::string trace_out;
  std::string git_sha = "unknown";
};

/// Metrics, correctness verdicts and request counts of one run.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  /// Records a failed correctness gate; any failure suppresses all numbers.
  void fail(const std::string& what) { errors_.push_back(what); }
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// The one-line result object (keys: correct, attempted, failed, metrics).
  std::string result_json() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Linear-interpolated percentile (p in [0, 100]); sorts a copy.
double percentile(std::vector<double> xs, double p);
inline double median(const std::vector<double>& xs) {
  return percentile(xs, 50.0);
}
/// Median of `reps` calls to `fn`, each returning seconds.
template <typename Fn>
double median_of(int reps, Fn&& fn) {
  std::vector<double> xs;
  for (int i = 0; i < reps; ++i) xs.push_back(fn());
  return median(xs);
}
/// Least-squares slope of log(y) against log(x).
double loglog_slope(const std::vector<double>& x, const std::vector<double>& y);

/// Peak resident set size of this process, MiB (getrusage ru_maxrss).
double peak_rss_mib();
/// User + system CPU seconds consumed by this process so far.
double process_cpu_s();

/// In-memory span recorder. A span is one call into a layer: its name,
/// start, end, the enclosing span and the request it served. Spans are
/// recorded from one thread at a time (each workload's driving thread)
/// and written out when the run ends. A disabled tracer records nothing.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open one; returns its index.
  std::uint32_t begin(std::string_view name, std::uint64_t request = 0);
  void end(std::uint32_t span);
  /// Records an already-finished span (used where the start is a due
  /// time rather than "now").
  void record(std::string_view name, Clock::time_point start,
              Clock::time_point end, std::uint64_t request = 0);

  /// Durations (us) of every span called `name`.
  std::vector<double> durations_us(std::string_view name) const;
  /// Writes spans plus per-name total and self time as JSON.
  bool write_json(const std::string& path, const std::string& host) const;

 private:
  struct Span {
    std::uint32_t name;
    std::uint32_t parent;
    std::uint64_t request;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::uint32_t intern(std::string_view name);

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
};

/// RAII span; a no-op on a disabled tracer.
class Scope {
 public:
  Scope(Tracer& t, std::string_view name, std::uint64_t request = 0)
      : t_(t), id_(t.enabled() ? t.begin(name, request) : 0) {}
  ~Scope() {
    if (t_.enabled()) t_.end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::uint32_t id_;
};

/// Zipf(s) over ranks 0..n-1: weight(rank) = (rank+1)^-s.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t sample(tc::util::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Mixes a workload seed with a stream key into an independent seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t key);

/// The paper's Fig. 3 node-model UDG scaled to n nodes: 300 m range, the
/// region side grows with sqrt(n) from 2000 m at n=1024, so the mean
/// degree stays about 70; node costs uniform in [1, 10].
tc::graph::NodeGraph scaled_udg(std::size_t n, std::uint64_t seed);

/// The node nearest the centre of the graph's deployment region: the
/// access point of the UDG workloads, so every seed prices routes of the
/// same geometry (a corner access point would double every path).
tc::graph::NodeId central_node(const tc::graph::NodeGraph& g);
/// Uniform node in [0, n) other than `skip`.
tc::graph::NodeId node_other_than(tc::util::Rng& rng, std::size_t n,
                                  tc::graph::NodeId skip);

/// Host stamp (nproc, affinity, CPU model, AVX-512, compiler, build
/// type, git sha) as a JSON object.
std::string host_json(const Options& opt);
/// Empty when the build is fit to measure; otherwise why not (Debug,
/// assertions on, or sanitizers).
std::string build_refusal();
/// Logical CPUs this process may run on (the affinity mask).
std::size_t affinity_cpus();

// --- Workloads ------------------------------------------------------------
//
// run_*: the untraced run; fills every end-to-end metric.
// layers_*: the traced decomposition; fills the per-layer metrics of the
//           layers the workload exercises.
// primary_*: the workload's headline figure for the trace-overhead ratio
//            (lower is better), measured with the given tracer.

void run_fleet_zipf(const Options& opt, Report& report);
void run_engine_churn(const Options& opt, Report& report);
void run_price_scale(const Options& opt, Report& report);

void layers_fleet_zipf(const Options& opt, double budget_s, Tracer& tracer,
                       Report& report);
/// Replays a fixed op count rather than a time budget, so its counters
/// repeat exactly for a seed.
void layers_engine_churn(const Options& opt, Tracer& tracer, Report& report);
void layers_price_scale(const Options& opt, double budget_s, Tracer& tracer,
                        Report& report);

double primary_fleet_zipf(const Options& opt, double budget_s, Tracer& tracer,
                          Report& report);
double primary_engine_churn(const Options& opt, double budget_s,
                            Tracer& tracer, Report& report);
double primary_price_scale(const Options& opt, double budget_s,
                           Tracer& tracer, Report& report);

/// The cold-pricing scale sweep behind us_per_source.n<N>. price-scale
/// spends its whole budget on it; the other workloads run it briefly
/// after their own phases as the kernel/pricer control.
void scale_sweep(const Options& opt, double budget_s, Report& report,
                 bool full_metrics);

}  // namespace perfbench
