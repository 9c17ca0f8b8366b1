// perfbench: one seeded benchmark for truthcast.
//
//   perfbench --workload <fleet-zipf|engine-churn|price-scale> --seed <n>
//             --seconds <s> --trace <0|1> [--tiny] [--perturb]
//             [--trace-out <file>] [--git-sha <sha>]
//
// --trace 0 runs the workload untraced and prints every end-to-end metric.
// --trace 1 prints every per-layer metric: it times the workload's
// headline loop untraced and traced (the tracing overhead), then runs the
// span-traced decomposition of all three workloads, so each layer is
// measured on the workload that exercises it.
//
// Every run checks its outputs against independent oracles first. A failed
// gate, an invalid open loop or a Debug/sanitizer build prints no numbers
// and exits non-zero. The last stdout line is the result object; the line
// before it is the host stamp.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<fleet-zipf|engine-churn|price-scale> --seed <n> --seconds "
               "<s> --trace <0|1> [--tiny] [--perturb] [--trace-out <file>] "
               "[--git-sha <sha>]\n",
               why);
  return 2;
}

void run_traced(const Options& opt, Report& report, Tracer& tracer) {
  using Primary = double (*)(const Options&, double, Tracer&, Report&);
  const Primary primary = opt.workload == "fleet-zipf"     ? primary_fleet_zipf
                          : opt.workload == "engine-churn" ? primary_engine_churn
                                                           : primary_price_scale;
  // The same headline loop untraced then traced; their ratio is the
  // tracing overhead, and the pair's CPU use is the harness utilization.
  const double slice = 0.12 * opt.seconds;
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  Tracer off(false);
  Tracer overhead(true);
  const double untraced = primary(opt, slice, off, report);
  const double traced = primary(opt, slice, overhead, report);
  const double wall = seconds_since(t0);
  const double cores = static_cast<double>(affinity_cpus());
  report.set("harness.trace_overhead", traced / untraced, "ratio");
  report.set("harness.cpu_util", (process_cpu_s() - cpu0) / (wall * cores),
             "fraction");

  layers_fleet_zipf(opt, 0.3 * opt.seconds, tracer, report);
  layers_engine_churn(opt, tracer, report);
  layers_price_scale(opt, 0.36 * opt.seconds, tracer, report);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--perturb") {
      opt.perturb = true;
    } else if (arg == "--workload" || arg == "--seed" || arg == "--seconds" ||
               arg == "--trace" || arg == "--trace-out" || arg == "--git-sha") {
      const char* v = value();
      if (v == nullptr) return usage(("missing value for " + arg).c_str());
      if (arg == "--workload") {
        opt.workload = v;
      } else if (arg == "--seed") {
        opt.seed = std::strtoull(v, nullptr, 10);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::atof(v);
        have_seconds = opt.seconds > 0.0;
      } else if (arg == "--trace") {
        opt.trace = std::string(v) == "1";
        have_trace = std::string(v) == "0" || opt.trace;
      } else if (arg == "--trace-out") {
        opt.trace_out = v;
      } else {
        opt.git_sha = v;
      }
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload != "fleet-zipf" && opt.workload != "engine-churn" &&
      opt.workload != "price-scale") {
    return usage("unknown or missing --workload");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  if (const std::string why = build_refusal(); !why.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    return 3;
  }

  const std::string host = host_json(opt);
  Report report;
  Tracer tracer(opt.trace);
  if (opt.trace) {
    run_traced(opt, report, tracer);
  } else if (opt.workload == "fleet-zipf") {
    run_fleet_zipf(opt, report);
  } else if (opt.workload == "engine-churn") {
    run_engine_churn(opt, report);
  } else {
    run_price_scale(opt, report);
  }

  if (!report.correct()) {
    for (const std::string& e : report.errors()) {
      std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
    }
    return 1;
  }
  if (!tracer.write_json(opt.trace_out, host)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
    return 1;
  }
  std::printf("{\"host\": %s}\n%s\n", host.c_str(),
              report.result_json().c_str());
  return 0;
}
