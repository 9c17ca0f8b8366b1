#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "bench.hpp"
#include "graph/generators.hpp"

namespace perfbench {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string Report::result_json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}}";
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return std::nan("");
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (rank - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double loglog_slope(const std::vector<double>& x,
                    const std::vector<double>& y) {
  const auto n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double lx = std::log(x[i]);
    const double ly = std::log(y[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// --- Tracer ---------------------------------------------------------------

std::uint32_t Tracer::intern(std::string_view name) {
  const std::string key(name);
  const auto it = ids_.find(key);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(key);
  ids_.emplace(key, id);
  return id;
}

std::uint32_t Tracer::begin(std::string_view name, std::uint64_t request) {
  const auto idx = static_cast<std::uint32_t>(spans_.size());
  const std::uint32_t parent = open_.empty() ? kNoParent : open_.back();
  const Clock::time_point now = Clock::now();
  spans_.push_back({intern(name), parent, request, now, now});
  open_.push_back(idx);
  return idx;
}

void Tracer::end(std::uint32_t span) {
  spans_[span].end = Clock::now();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Tracer::record(std::string_view name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t request) {
  if (!enabled_) return;
  const std::uint32_t parent = open_.empty() ? kNoParent : open_.back();
  spans_.push_back({intern(name), parent, request, start, end});
}

std::vector<double> Tracer::durations_us(std::string_view name) const {
  std::vector<double> out;
  const auto it = ids_.find(std::string(name));
  if (it == ids_.end()) return out;
  for (const Span& s : spans_) {
    if (s.name == it->second) out.push_back(us_between(s.start, s.end));
  }
  return out;
}

bool Tracer::write_json(const std::string& path,
                        const std::string& host) const {
  if (path.empty()) return true;
  // Self time: a span's duration minus the time its direct children
  // cover. Children of one span run sequentially on the recording
  // thread, so their durations add without overlap.
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) child_us[s.parent] += us_between(s.start, s.end);
  }
  std::vector<double> total(names_.size(), 0.0), self(names_.size(), 0.0);
  std::vector<std::uint64_t> calls(names_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = us_between(spans_[i].start, spans_[i].end);
    total[spans_[i].name] += d;
    self[spans_[i].name] += d - child_us[i];
    ++calls[spans_[i].name];
  }
  std::ofstream out(path);
  if (!out) return false;
  const Clock::time_point t0 =
      spans_.empty() ? Clock::now() : spans_.front().start;
  out << "{\"host\": " << host << ",\n\"layers\": {";
  for (std::size_t n = 0; n < names_.size(); ++n) {
    out << (n ? ",\n" : "\n") << json_string(names_[n])
        << ": {\"calls\": " << calls[n]
        << ", \"total_us\": " << json_number(total[n])
        << ", \"self_us\": " << json_number(self[n]) << "}";
  }
  out << "},\n\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "[" << json_string(names_[s.name]) << ", "
        << json_number(us_between(t0, s.start)) << ", "
        << json_number(us_between(t0, s.end)) << ", "
        << (s.parent == kNoParent ? std::string("null")
                                  : std::to_string(s.parent))
        << ", " << s.request << ", " << json_number(us_between(s.start, s.end) - child_us[i]) << "]";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// --- Inputs ---------------------------------------------------------------

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t rank = 0; rank < n; ++rank) {
    total += std::pow(static_cast<double>(rank + 1), -s);
    cdf_[rank] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::sample(tc::util::Rng& rng) const {
  const double u = rng.next_double();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1
                          : static_cast<std::size_t>(it - cdf_.begin());
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t key) {
  return tc::util::mix64(seed * 0x9E3779B97F4A7C15ULL ^ tc::util::mix64(key));
}

tc::graph::NodeGraph scaled_udg(std::size_t n, std::uint64_t seed) {
  tc::graph::UdgParams params;
  params.n = n;
  const double side = 2000.0 * std::sqrt(static_cast<double>(n) / 1024.0);
  params.region = {side, side};
  params.range_m = 300.0;
  return tc::graph::make_unit_disk_node(params, 1.0, 10.0,
                                        derive_seed(seed, n));
}

tc::graph::NodeId central_node(const tc::graph::NodeGraph& g) {
  double lo_x = 0, lo_y = 0, hi_x = 0, hi_y = 0;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const tc::geom::Point& p = g.position(static_cast<tc::graph::NodeId>(v));
    lo_x = v == 0 ? p.x : std::min(lo_x, p.x);
    lo_y = v == 0 ? p.y : std::min(lo_y, p.y);
    hi_x = v == 0 ? p.x : std::max(hi_x, p.x);
    hi_y = v == 0 ? p.y : std::max(hi_y, p.y);
  }
  const double cx = (lo_x + hi_x) / 2, cy = (lo_y + hi_y) / 2;
  tc::graph::NodeId best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const tc::geom::Point& p = g.position(static_cast<tc::graph::NodeId>(v));
    const double d = (p.x - cx) * (p.x - cx) + (p.y - cy) * (p.y - cy);
    if (d < best_d) {
      best_d = d;
      best = static_cast<tc::graph::NodeId>(v);
    }
  }
  return best;
}

tc::graph::NodeId node_other_than(tc::util::Rng& rng, std::size_t n,
                                  tc::graph::NodeId skip) {
  auto v = static_cast<tc::graph::NodeId>(rng.next_below(n - 1));
  return v >= skip ? v + 1 : v;
}

// --- Host stamp -----------------------------------------------------------

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

namespace {

std::string affinity_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return "unknown";
  std::string out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    int last = c;
    while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &set)) ++last;
    if (!out.empty()) out += ",";
    out += std::to_string(c);
    if (last > c) out += "-" + std::to_string(last);
    c = last;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string host_json(const Options& opt) {
  // Same runtime check the spath kernels dispatch their AVX-512 path on.
  const bool avx512 = __builtin_cpu_supports("avx512f");
  std::ostringstream out;
  out << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"affinity_cpus\": " << affinity_cpus()
      << ", \"affinity\": " << json_string(affinity_list())
      << ", \"cpu_model\": " << json_string(cpu_model())
      << ", \"avx512f\": " << (avx512 ? "true" : "false")
      << ", \"compiler\": " << json_string(std::string("g++ ") + __VERSION__)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"git_sha\": " << json_string(opt.git_sha)
      << ", \"workload\": " << json_string(opt.workload)
      << ", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
      << ", \"trace\": " << (opt.trace ? "true" : "false") << "}";
  return out.str();
}

std::string build_refusal() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type == "Debug" || type.empty()) {
    return "refusing to measure a '" + type + "' build (need Release)";
  }
  if (std::string(PERFBENCH_SANITIZE) != "") {
    return "refusing to measure a sanitizer build (" +
           std::string(PERFBENCH_SANITIZE) + ")";
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "refusing to measure a sanitizer build";
#endif
#ifndef NDEBUG
  return "refusing to measure a build with assertions enabled";
#endif
  return "";
}

}  // namespace perfbench
