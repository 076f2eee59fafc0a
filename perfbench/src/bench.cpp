#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "common/telemetry.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

bool all_finite(std::span<const double> v) {
  return std::all_of(v.begin(), v.end(),
                     [](double x) { return std::isfinite(x); });
}

double rmse(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(a.size()));
}

void set_common_metrics(Report& r, const std::vector<double>& setup_times) {
  r.set("setup_s", median(setup_times));
  r.set("peak_heap_mb", peak_heap_mb());
  const double done = static_cast<double>(r.attempted - r.failed);
  r.set("completed_frac",
        r.attempted ? done / static_cast<double>(r.attempted) : 0.0);
}

double hist_mean(const essex::telemetry::Sink& s, const std::string& name) {
  const auto& m = s.metrics();
  return m.has(name) ? m.histogram_at(name).mean() : 0.0;
}

double hist_sum(const essex::telemetry::Sink& s, const std::string& name) {
  const auto& m = s.metrics();
  return m.has(name) ? m.histogram_at(name).sum() : 0.0;
}

double hist_count(const essex::telemetry::Sink& s, const std::string& name) {
  const auto& m = s.metrics();
  return m.has(name) ? static_cast<double>(m.histogram_at(name).count())
                     : 0.0;
}

double counter(const essex::telemetry::Sink& s, const std::string& name) {
  const auto& m = s.metrics();
  return m.has(name) ? m.value(name) : 0.0;
}

void write_trace(const Options& opt,
                 const std::vector<const essex::telemetry::Sink*>& sinks) {
  const std::filesystem::path path =
      std::filesystem::path(opt.trace_dir) /
      (opt.workload + ".telemetry.json");
  essex::telemetry::write_sessions_json(path.string(), sinks);
}

}  // namespace perfbench
