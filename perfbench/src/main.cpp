// ESSEX benchmark driver.
//
//   essex_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--smoke] [--corrupt] [--trace-dir DIR]
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. A layer
// that does no work in a workload reports 0. --smoke shrinks every
// problem for the benchmark's own tests; --corrupt damages one output of
// the workload so that its correctness check must trip.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <span>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"peak_heap_mb", "MiB"},
    {"completed_frac", "ratio"}, {"product_s", "s"},
    {"product_tail_s", "s"},  {"throughput_per_s", "1/s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"ocean.member_s", "s"},
    {"ocean.cell_steps_per_s", "1/s"},
    {"ocean.central_s", "s"},
    {"ocean.member_inflation", "ratio"},
    {"esse.absorb_s", "s"},
    {"esse.gram_reuse", "ratio"},
    {"esse.svd_s", "s"},
    {"esse.svd_runs", "count"},
    {"esse.analysis_s", "s"},
    {"esse.analysis_rmse_ratio", "ratio"},
    {"linalg.absorb_gbps", "GB/s"},
    {"linalg.svd_gbps", "GB/s"},
    {"obs.build_s", "s"},
    {"acoustics.tl_s", "s"},
    {"acoustics.stats_s", "s"},
    {"acoustics.coupled_s", "s"},
    {"service.queue_wait_p95_s", "s"},
    {"service.request_p50_s", "s"},
    {"service.resizes", "count"},
    {"service.rejected", "count"},
    {"mtc.useful_ratio", "ratio"},
    {"mtc.retries", "count"},
    {"workflow.orchestration_s", "s"},
    {"workflow.parallel_eff", "ratio"},
    {"common.trace_overhead", "ratio"},
    {"bench.generator_late_s", "s"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "essex_bench: " << why
            << "\nusage: essex_bench --workload "
               "<forecast_cycle|large_assim|acoustic_uncertainty|"
               "service_stream> --seed N --seconds S --trace 0|1 "
               "[--smoke] [--corrupt] [--trace-dir DIR]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
      have_seconds = opt.seconds > 0.0;
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opt.trace = v == "1";
      have_trace = true;
    } else if (arg == "--trace-dir") {
      opt.trace_dir = value();
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--corrupt") {
      opt.corrupt = true;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    usage("--seed, a positive --seconds and --trace are required");
  opt.threads = std::max(1u, std::thread::hardware_concurrency());
  return opt;
}

void print_json(const Report& rep, bool trace) {
  std::string out = "{\"correct\": ";
  out += rep.failures.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(rep.attempted);
  out += ", \"failed\": " + std::to_string(rep.failed);
  out += ", \"metrics\": {";
  bool first = true;
  const std::span<const MetricSpec> specs =
      trace ? std::span<const MetricSpec>(kPerLayer) : kEndToEnd;
  for (const MetricSpec& spec : specs) {
    const auto it = rep.metrics.find(spec.name);
    // A non-finite value has already failed the run; JSON has no NaN.
    double v = it == rep.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    char item[256];
    std::snprintf(item, sizeof item,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", spec.name, v, spec.unit);
    first = false;
    out += item;
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Report rep;
  try {
    if (opt.workload == "forecast_cycle") {
      rep = run_forecast_cycle(opt);
    } else if (opt.workload == "large_assim") {
      rep = run_large_assim(opt);
    } else if (opt.workload == "acoustic_uncertainty") {
      rep = run_acoustic_uncertainty(opt);
    } else if (opt.workload == "service_stream") {
      rep = run_service_stream(opt);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "essex_bench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  // Every metric a workload sets must be a declared, finite one; every
  // end-to-end metric must be set.
  const auto declared = [](const std::string& name) {
    const auto named = [&](const MetricSpec& s) { return name == s.name; };
    return std::any_of(std::begin(kEndToEnd), std::end(kEndToEnd), named) ||
           std::any_of(std::begin(kPerLayer), std::end(kPerLayer), named);
  };
  for (const auto& [name, value] : rep.metrics) {
    if (!declared(name)) {
      std::cerr << "essex_bench: undeclared metric " << name << "\n";
      return 1;
    }
    rep.check(std::isfinite(value), "metric " + name + " is not finite");
  }
  if (!opt.trace) {
    for (const MetricSpec& s : kEndToEnd)
      if (!rep.metrics.count(s.name)) {
        std::cerr << "essex_bench: end-to-end metric " << s.name
                  << " not measured\n";
        return 1;
      }
  }
  for (const std::string& f : rep.failures)
    std::cerr << "CHECK FAILED: " << f << "\n";
  print_json(rep, opt.trace);
  return 0;
}
