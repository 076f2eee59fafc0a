// service_stream: a service::ForecastService (max_workers = cores,
// max_inflight = 2, elastic, default admission) fed by one generator
// thread with 3 h double-gyre forecasts in a 3:1 mix of 12×10×3 and
// 24×20×3 grids. Ensembles are adaptive ({8, ×2, 48}, ρ* = 0.90), so
// cancel-on-convergence fires; every request has its own perturbation
// seed, so no work is shared. Each request is a few ms of compute, so
// dispatch, admission, elastic resizing, the fault-tolerant executor,
// the thread pool and the runner's orchestration loop dominate.
//
// A run stands up several services one after another. Each serves phase
// 1, an open loop at a fixed offered rate in which every request is timed
// from the moment it was due, so a stalled generator or server shows as
// latency; then phase 2, a burst below the admission queue bound, drained
// to measure capacity. The offered rate is under a third of capacity:
// at half, queueing amplified the host's run-to-run speed changes and
// the typical latency spread by 19–30% between runs.
// Outcomes are counted from the handles, never from ServiceStats: the
// service seals a request's handle before it counts the request in its
// stats, so stats are read only after drain().
//
// Why several services: how often requests meet a 10–50 ms delay, and
// whether the elastic pool gets stuck at one worker (which backs the
// open loop up by seconds), vary from one service instance to the next.
// The capacity and the tail latency are medians over the services, so
// one unlucky service does not move them: a stuck pool that backs up
// more than a twentieth of a run's requests would set the 95th percentile
// of the pooled latencies on its own (one run read 6.4 s instead of
// ~50 ms). The tail is therefore the median of the services' 95th
// percentiles. The typical latency is the median of all phase-1
// latencies of the run: at this rate fewer than half of the requests are
// delayed, so it stays in the fast mode, whereas the mean follows the
// delayed share.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "esse/cycle.hpp"
#include "esse/repro.hpp"
#include "ocean/monterey.hpp"
#include "service/forecast_service.hpp"
#include "workflow/parallel_runner.hpp"

namespace perfbench {
namespace {

using namespace essex;

constexpr double kForecastHours = 3.0;
constexpr double kRatePerS = 30.0;       ///< phase-1 offered rate
constexpr std::size_t kInstances = 4;    ///< services per untraced run
constexpr double kPhase1Share = 0.7;     ///< of an instance's time
constexpr std::size_t kBurst = 120;      ///< below max_queued = 256
constexpr std::size_t kInflight = 2;     ///< ServiceConfig::max_inflight
constexpr std::size_t kWaiters = kInflight + 1;  ///< collector threads
constexpr std::uint64_t kPriorSeed = 1;

struct Tenant {
  explicit Tenant(ocean::Scenario s) : sc(std::move(s)) {}

  ocean::Scenario sc;
  std::unique_ptr<ocean::OceanModel> model;
  esse::ErrorSubspace prior;
};

struct Inputs {
  std::unique_ptr<Tenant> small, large;
  std::size_t phase1 = 0;   ///< phase-1 requests per instance
  std::size_t burst = 0;    ///< burst requests per instance
  std::vector<bool> is_large;  ///< per request, instance-major
  std::size_t sampled = 0;  ///< the request re-run one-shot for the digest

  std::size_t per_instance() const { return phase1 + burst; }
};

std::unique_ptr<Tenant> make_tenant(std::size_t nx, std::size_t ny,
                                    const Options& opt) {
  auto t =
      std::make_unique<Tenant>(ocean::make_double_gyre_scenario(nx, ny, 3));
  t->model = std::make_unique<ocean::OceanModel>(
      t->sc.grid, t->sc.params, ocean::WindForcing(t->sc.wind), t->sc.initial);
  // The tenants' priors are part of the deployment, not of the request
  // stream, so they do not follow the seed: how many members a request
  // needs to converge depends on the prior, and a per-seed prior shifted
  // the work of every request in a run by the same amount.
  t->prior = esse::bootstrap_subspace(*t->model, t->sc.initial, 0.0,
                                      kForecastHours, 8, 0.99, 6,
                                      kPriorSeed, opt.threads);
  return t;
}

double rate(const Options& opt) {
  return opt.smoke ? kRatePerS / 3.0 : kRatePerS;
}

std::unique_ptr<Inputs> setup(const Options& opt) {
  auto in = std::make_unique<Inputs>();
  in->small = make_tenant(12, 10, opt);
  in->large = make_tenant(24, 20, opt);
  const double instance_s = opt.seconds / static_cast<double>(kInstances);
  in->phase1 = std::max<std::size_t>(
      4, static_cast<std::size_t>(rate(opt) * kPhase1Share * instance_s));
  in->burst = opt.smoke ? 16 : kBurst;
  // Exactly one large request in every block of four, at a seeded
  // position: every phase of every instance holds the 3:1 mix to within
  // one request.
  Rng rng(opt.seed, 0x5E4F);
  const std::size_t total = kInstances * in->per_instance();
  in->is_large.assign(total + 4, false);
  for (std::size_t b = 0; b < total; b += 4)
    in->is_large[b + rng.uniform_index(4)] = true;
  in->is_large.resize(total);
  in->sampled = rng.uniform_index(in->phase1);
  return in;
}

workflow::ForecastRequest forecast_request(const Inputs& in, std::size_t i,
                                           const Options& opt,
                                           telemetry::Sink* sink) {
  const Tenant& t = in.is_large[i] ? *in.large : *in.small;
  workflow::ParallelRunnerConfig cfg;
  cfg.cycle.forecast_hours = kForecastHours;
  cfg.cycle.threads = opt.threads;
  cfg.cycle.ensemble = {8, 2.0, 48};
  cfg.cycle.convergence = {0.90, 8};
  cfg.cycle.max_rank = 6;
  cfg.cycle.perturbation.seed = opt.seed * 1000003 + i;
  return workflow::ForecastRequest{*t.model, t.sc.initial, t.prior, 0.0, cfg,
                                   sink};
}

/// One submitted request as the generator and the collector see it.
struct Slot {
  service::ForecastHandle handle;
  std::uint64_t id = 0;
  double due = 0.0;
  double done = 0.0;
  service::RequestState state = service::RequestState::kQueued;
};

/// Stamps each request's terminal time without polling. Requests start
/// in submission order and at most kInflight run at once, so every
/// running request is among the kInflight oldest unstamped ones. Each of
/// kWaiters > kInflight threads claims the oldest unclaimed request and
/// blocks on its handle, so a thread is already waiting on every running
/// request when it ends. Handles other than the sampled one are dropped
/// once terminal, so finished results do not pile up in memory.
class Collector {
 public:
  Collector(std::vector<Slot>& slots, std::size_t keep)
      : slots_(slots), keep_(keep) {
    for (std::size_t w = 0; w < kWaiters; ++w)
      threads_.emplace_back([this] { loop(); });
  }
  ~Collector() { finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Hand over request `i`; requests are added in index order.
  void add(std::size_t i, service::ForecastHandle h) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      slots_[i].id = h.id();
      slots_[i].handle = std::move(h);
      ++added_;
    }
    work_.notify_one();
  }

  /// Block until every added request is terminal.
  void wait_all() {
    std::unique_lock<std::mutex> lk(mu_);
    idle_.wait(lk, [&] { return stamped_ == added_; });
  }

  void finish() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stopping_ = true;
    }
    work_.notify_all();
    for (std::thread& t : threads_)
      if (t.joinable()) t.join();
  }

 private:
  void loop() {
    for (;;) {
      std::size_t i;
      {
        std::unique_lock<std::mutex> lk(mu_);
        work_.wait(lk, [&] { return claimed_ < added_ || stopping_; });
        if (claimed_ == added_) return;
        i = claimed_++;
      }
      Slot& slot = slots_[i];
      slot.state = slot.handle.wait();
      slot.done = now_s();
      if (i != keep_) slot.handle = service::ForecastHandle();
      std::lock_guard<std::mutex> lk(mu_);
      if (++stamped_ == added_) idle_.notify_all();
    }
  }

  std::vector<Slot>& slots_;
  const std::size_t keep_;
  std::mutex mu_;
  std::condition_variable work_, idle_;
  std::size_t added_ = 0, claimed_ = 0, stamped_ = 0;  // guarded by mu_
  bool stopping_ = false;                              // guarded by mu_
  std::vector<std::thread> threads_;
};

/// One service instance's numbers.
struct Instance {
  std::vector<double> latency_s;  ///< phase 1, due time to terminal
  double capacity_rps = 0.0;      ///< burst drain rate
  double generator_late_s = 0.0;
  std::vector<std::uint64_t> phase1_ids;
  std::size_t rejected = 0;
  service::ServiceStats stats;  ///< read after drain()
};

/// Serve instance `k`'s requests — phase 1, then the burst — on a fresh
/// service, and check their outcomes. Instance 0 also re-runs its
/// sampled request one-shot and compares digests.
Instance serve(const Inputs& in, const Options& opt, std::size_t k,
               telemetry::Sink* service_sink, telemetry::Sink* request_sink,
               Report& rep) {
  const std::size_t base = k * in.per_instance();
  std::vector<Slot> slots(in.per_instance());
  Instance m;

  service::ServiceConfig cfg;
  cfg.min_workers = 1;
  cfg.max_workers = opt.threads;
  cfg.max_inflight = kInflight;
  cfg.elastic = true;
  cfg.sink = service_sink;
  service::ForecastService svc(cfg);
  {
    Collector collector(slots, in.sampled);
    const auto submit = [&](std::size_t i) {
      const service::ServiceRequest req{
          .forecast = forecast_request(in, base + i, opt, request_sink),
          .label = "req-" + std::to_string(base + i)};
      telemetry::ScopedTimer span(service_sink, "service.submit");
      collector.add(i, svc.submit(req));
    };

    // Phase 1: open loop at the fixed offered rate.
    const auto start = std::chrono::steady_clock::now();
    const double t_start = now_s();
    for (std::size_t i = 0; i < in.phase1; ++i) {
      const double offset = static_cast<double>(i) / rate(opt);
      std::this_thread::sleep_until(
          start +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(offset)));
      slots[i].due = t_start + offset;
      m.generator_late_s =
          std::max(m.generator_late_s, now_s() - slots[i].due);
      submit(i);
    }
    collector.wait_all();

    // Phase 2: the burst, drained at full capacity.
    const double t_burst = now_s();
    for (std::size_t i = in.phase1; i < slots.size(); ++i) {
      slots[i].due = t_burst;
      submit(i);
    }
    collector.wait_all();
    double last = t_burst;
    for (std::size_t i = in.phase1; i < slots.size(); ++i)
      last = std::max(last, slots[i].done);
    m.capacity_rps = static_cast<double>(in.burst) / (last - t_burst);
  }
  svc.drain();
  m.stats = svc.stats();

  std::size_t admitted_not_done = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const service::RequestState state = slots[i].state;
    ++rep.attempted;
    if (state != service::RequestState::kDone) ++rep.failed;
    if (state == service::RequestState::kRejected)
      ++m.rejected;
    else if (state != service::RequestState::kDone)
      ++admitted_not_done;
    if (i < in.phase1) {
      m.latency_s.push_back(slots[i].done - slots[i].due);
      m.phase1_ids.push_back(slots[i].id);
    }
  }
  rep.check(admitted_not_done == 0,
            "service_stream: an admitted request did not end kDone");

  // The sampled request must match its one-shot forecast bitwise.
  const Slot& sampled = slots[in.sampled];
  if (k == 0 && sampled.state == service::RequestState::kDone) {
    esse::ForecastResult served = sampled.handle.result();
    if (opt.corrupt) served.central_forecast[0] += 1e-9;
    const esse::ForecastResult one_shot = workflow::run_parallel_forecast(
        forecast_request(in, base + in.sampled, opt, nullptr));
    rep.check(esse::forecast_digest(served) == esse::forecast_digest(one_shot),
              "service_stream: served digest differs from the one-shot "
              "run_parallel_forecast digest");
  }
  return m;
}

/// Median over instances of a statistic of each instance.
template <typename Stat>
double across(const std::vector<Instance>& instances, Stat stat) {
  std::vector<double> v;
  for (const Instance& i : instances) v.push_back(stat(i));
  return median(v);
}

/// Every phase-1 latency of the given services.
std::vector<double> pooled_latency(const std::vector<Instance>& instances) {
  std::vector<double> all;
  for (const Instance& i : instances)
    all.insert(all.end(), i.latency_s.begin(), i.latency_s.end());
  return all;
}

double typical_latency(const std::vector<Instance>& instances) {
  return median(pooled_latency(instances));
}

}  // namespace

Report run_service_stream(const Options& opt) {
  Report rep;
  std::vector<double> setup_times;
  const auto in = set_up([&] { return setup(opt); }, setup_times);

  if (!opt.trace) {
    std::vector<Instance> plain;
    for (std::size_t k = 0; k < kInstances; ++k)
      plain.push_back(serve(*in, opt, k, nullptr, nullptr, rep));
    rep.set("product_s", typical_latency(plain));
    rep.set("product_tail_s", across(plain, [](const Instance& i) {
              return quantile(i.latency_s, 0.95);
            }));
    rep.set("throughput_per_s",
            across(plain, [](const Instance& i) { return i.capacity_rps; }));
    set_common_metrics(rep, setup_times);
    return rep;
  }

  // Untraced and traced halves, each of kInstances / 2 services.
  std::vector<Instance> plain, traced;
  std::vector<std::unique_ptr<telemetry::Sink>> sinks;
  for (std::size_t k = 0; k < kInstances / 2; ++k)
    plain.push_back(serve(*in, opt, k, nullptr, nullptr, rep));
  for (std::size_t k = kInstances / 2; k < kInstances; ++k) {
    telemetry::Sink* service_sink =
        sinks.emplace_back(std::make_unique<telemetry::Sink>(
                               "service_stream.service." + std::to_string(k)))
            .get();
    telemetry::Sink* request_sink =
        sinks.emplace_back(std::make_unique<telemetry::Sink>(
                               "service_stream.requests." + std::to_string(k)))
            .get();
    traced.push_back(serve(*in, opt, k, service_sink, request_sink, rep));
  }

  // Pair each service's lifecycle events by request id, phase 1 only.
  std::vector<double> waits, runs;
  double late = 0.0;
  std::size_t resizes = 0, rejected = 0;
  const auto sum = [&](bool service_side, const std::string& name,
                       double (*read)(const telemetry::Sink&,
                                      const std::string&)) {
    double total = 0.0;
    for (std::size_t i = service_side ? 0 : 1; i < sinks.size(); i += 2)
      total += read(*sinks[i], name);
    return total;
  };
  for (std::size_t t = 0; t < traced.size(); ++t) {
    std::unordered_map<std::uint64_t, double> queued, started, finished;
    for (const telemetry::Event& e : sinks[2 * t]->recorder().events()) {
      const auto id = static_cast<std::uint64_t>(e.value);
      if (e.name == "service.request.queued") queued[id] = e.t;
      if (e.name == "service.request.start") started[id] = e.t;
      if (e.name == "service.request.done") finished[id] = e.t;
    }
    for (const std::uint64_t id : traced[t].phase1_ids) {
      if (!queued.count(id) || !started.count(id) || !finished.count(id))
        continue;
      waits.push_back(started[id] - queued[id]);
      runs.push_back(finished[id] - started[id]);
    }
    late = std::max(late, traced[t].generator_late_s);
    resizes += traced[t].stats.pool_grow_events +
               traced[t].stats.pool_shrink_events;
    rejected += traced[t].rejected;
  }

  const double requests = sum(true, "service.request_s", hist_count);
  const double members = sum(false, "runner.member_s", hist_count);
  const double centrals = sum(false, "runner.central_s", hist_count);
  const double central_s = sum(false, "runner.central_s", hist_sum) / centrals;
  const double reused = sum(false, "differ.gram_cols_reused", counter);
  const double computed = sum(false, "differ.gram_cols_computed", counter);
  const double svd_s = sum(false, "runner.svd_s", hist_sum) /
                       sum(false, "runner.svd_s", hist_count);
  const double subspace_s = sum(false, "differ.subspace_s", hist_sum) /
                            sum(false, "differ.subspace_s", hist_count);
  const double member_sum = sum(false, "runner.member_s", hist_sum);
  rep.set("ocean.member_s", member_sum / members);
  rep.set("ocean.central_s", central_s);
  rep.set("esse.gram_reuse", reused / (reused + computed));
  rep.set("esse.svd_s", svd_s);
  rep.set("esse.svd_runs", sum(false, "runner.svd_runs", counter) / requests);
  rep.set("service.queue_wait_p95_s", quantile(waits, 0.95));
  rep.set("service.request_p50_s", median(runs));
  rep.set("service.resizes", static_cast<double>(resizes));
  rep.set("service.rejected", static_cast<double>(rejected));
  rep.set("mtc.useful_ratio",
          sum(false, "runner.members_run", counter) /
              sum(false, "runner.members_submitted", counter));
  rep.set("mtc.retries", sum(false, "runner.members_retried", counter));
  rep.set("workflow.orchestration_s",
          sum(true, "service.request_s", hist_sum) / requests -
              (central_s +
               member_sum / requests / static_cast<double>(opt.threads) +
               subspace_s));
  rep.set("common.trace_overhead",
          typical_latency(traced) / typical_latency(plain) - 1.0);
  rep.set("bench.generator_late_s", late);
  std::vector<const telemetry::Sink*> all;
  for (const auto& sink : sinks) all.push_back(sink.get());
  write_trace(opt, all);
  return rep;
}

}  // namespace perfbench
