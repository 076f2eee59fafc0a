// ESSEX benchmark: shared types for the four workloads.
//
// Each workload is driven from outside through the layers' public
// functions. It sets up its inputs from the seed (several times, so the
// set-up time is a median), measures for the requested number of
// seconds, checks its outputs, and fills a Report. With tracing on it
// measures twice — untraced, then with telemetry sinks attached — and
// reports per-layer numbers read from the sinks plus the benchmark's own
// spans around every call it makes into a layer.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace essex::telemetry {
class Sink;
}

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny problem sizes, for the benchmark's own tests.
  bool smoke = false;
  /// Deliberately corrupt one output so the matching check must trip.
  bool corrupt = false;
  std::size_t threads = 1;  ///< worker threads (the host's core count)
  std::string trace_dir = ".bench_build/traces";
};

/// What one workload run reports. `attempted`/`failed` count the
/// workload's unit operations (cycles, assimilation passes, acoustic
/// products, service requests) in the measured part. Metric units are
/// declared once, in main.cpp's tables.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< correctness checks that tripped
  std::map<std::string, double> metrics;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void set(const std::string& name, double value) { metrics[name] = value; }
};

Report run_forecast_cycle(const Options& opt);
Report run_large_assim(const Options& opt);
Report run_acoustic_uncertainty(const Options& opt);
Report run_service_stream(const Options& opt);

// ---------------------------------------------------------------- helpers

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// q-quantile (0..1) by linear interpolation between order statistics;
/// 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// The upper tail of a batch workload's per-operation times: their third
/// quartile. The batch workloads time a few to a few dozen operations,
/// far fewer than the 200 a 95th percentile with ten samples beyond it
/// needs, and the slowest of them swings with any single hiccup.
inline double upper_quartile(const std::vector<double>& v) {
  return quantile(v, 0.75);
}

/// Peak of the bytes this process held allocated through operator new
/// so far, MiB (see heap.cpp).
double peak_heap_mb();

/// True when every element is finite.
bool all_finite(std::span<const double> v);

/// Root-mean-square difference of two equal-length vectors.
double rmse(const std::vector<double>& a, const std::vector<double>& b);

/// Fill the metrics every workload reports: median set-up time of the
/// given set-up runs, peak heap, and the completed fraction of the
/// attempted operations.
void set_common_metrics(Report& r, const std::vector<double>& setup_times);

/// Sink readers that return 0 when the layer recorded nothing.
double hist_mean(const essex::telemetry::Sink& s, const std::string& name);
double hist_sum(const essex::telemetry::Sink& s, const std::string& name);
double hist_count(const essex::telemetry::Sink& s, const std::string& name);
double counter(const essex::telemetry::Sink& s, const std::string& name);

/// Write the sinks of a traced run with telemetry::write_sessions_json
/// to <trace_dir>/<workload>.telemetry.json.
void write_trace(const Options& opt,
                 const std::vector<const essex::telemetry::Sink*>& sinks);

/// Build a workload's inputs several times — at least three, and for
/// at least a second when one set-up is quick — recording each set-up's
/// wall time (`setup_s` is their median). Returns the last inputs; the
/// previous set is released before the next is built.
template <typename Make>
auto set_up(Make make, std::vector<double>& times) {
  decltype(make()) in;
  const double t_begin = now_s();
  while (times.size() < 3 || (now_s() - t_begin < 1.0 && times.size() < 15)) {
    in.reset();
    const double t0 = now_s();
    in = make();
    times.push_back(now_s() - t0);
  }
  return in;
}

}  // namespace perfbench
