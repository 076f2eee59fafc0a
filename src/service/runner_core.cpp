#include "service/runner_core.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "mtc/execution_backend.hpp"
#include "workflow/ensemble_orchestrator.hpp"

namespace essex::service {

namespace {

/// Teardown in the one legal order — stop launching and cancel live
/// attempts, drain THIS request's tasks off the shared pool, then join
/// the timer thread — on every exit path, including exceptions thrown
/// mid-loop. Without this guard a throwing SVD would unwind the differ
/// and condition variables while member workers still reference them.
struct Teardown {
  mtc::FaultTolerantExecutor& exec;
  mtc::ThreadExecutionBackend& backend;
  bool done = false;

  void run() {
    if (done) return;
    done = true;
    exec.cancel_all();
    backend.drain_tasks();
    backend.shutdown_timers();
  }
  ~Teardown() { run(); }
};

}  // namespace

ExecOutcome execute_forecast(const workflow::ForecastRequest& request,
                             ThreadPool& pool, const ExecHooks& hooks) {
  const workflow::ParallelRunnerConfig& config = request.config;
  {
    const auto issues = workflow::validate(request);
    if (!issues.empty()) {
      throw PreconditionError(workflow::describe(issues));
    }
  }
  const esse::CycleParams& cp = config.cycle;
  telemetry::Sink* sink = request.sink;

  const auto cancelled_now = [&hooks] {
    return hooks.cancel && hooks.cancel->load(std::memory_order_relaxed);
  };

  const ocean::OceanModel& model = request.model;
  const la::Vector packed_initial = request.initial.pack();
  ESSEX_REQUIRE(packed_initial.size() == request.subspace.dim(),
                "initial subspace does not match the state dimension");
  const double t0_hours = request.t0_hours;

  ExecOutcome outcome;
  if (cancelled_now()) {
    outcome.cancelled = true;
    return outcome;
  }

  // Central forecast first (also what the differ normalises against).
  la::Vector central;
  {
    telemetry::ScopedTimer timer(sink, "runner.central_s");
    central = esse::run_member(model, packed_initial, t0_hours,
                               cp.forecast_hours, false,
                               cp.perturbation.seed, 0);
  }

  esse::PerturbationGenerator pert(request.subspace, cp.perturbation);
  // Multilevel mode (DESIGN.md §15): coarse-level models and their
  // deterministic central forecasts are fixed up front, before any
  // member runs, so every coarse anomaly column is a pure function of
  // (seed, level, member id) — never of scheduling.
  const esse::MultilevelParams& mlp = cp.multilevel;
  std::optional<esse::MultilevelEnsemble> ml;
  if (mlp.enabled()) {
    telemetry::ScopedTimer timer(sink, "runner.ml_centrals_s");
    ml.emplace(model, mlp);
    ml->run_centrals(packed_initial, t0_hours, cp.forecast_hours);
  }
  // Localized requests shard the differ's column store by the analysis
  // tiling so forecast-stage reductions use the same fixed per-tile
  // shapes the tiled analysis does (DESIGN.md §14).
  std::shared_ptr<const ocean::Tiling> tiling;
  if (cp.localization.enabled)
    tiling = std::make_shared<const ocean::Tiling>(model.grid(), cp.tiling);
  esse::Differ differ(central, tiling);
  differ.set_sink(sink);  // differ.* cache counters + check latency
  esse::ConvergenceTest conv(cp.convergence);
  workflow::TripleBufferStore<esse::AnomalyView> store;

  // The Fig.-4 pool decisions (DESIGN.md §18), growing only when the
  // pool drains. Member outcomes arrive on worker threads, so every
  // orchestrator call is made under `mu`.
  workflow::EnsembleOrchestrator orch(
      {.ensemble = cp.ensemble,
       .pool_headroom = config.pool_headroom,
       .members_per_level = ml ? mlp.members_per_level
                               : std::vector<std::size_t>{},
       .check_stride = config.svd_min_new_members});
  std::mutex mu;
  std::condition_variable cv;
  std::size_t promoted_milestone = 0;  // last milestone pushed to the store

  esse::ForecastResult out;
  esse::MtcAccounting acct;

  // The member closure both Fig.-4 drivers share in shape: it runs one
  // attempt of one member; throwing reports TaskOutcome::kFailed and the
  // fault layer decides whether to resubmit.
  mtc::ThreadExecutionBackend backend(
      pool,
      [&](std::size_t id, std::size_t attempt,
          const std::atomic<bool>& cancelled) {
        if (cancelled.load(std::memory_order_relaxed)) return;
        telemetry::ScopedTimer timer(sink, "runner.member_s");
        if (config.inject.segment.probability > 0.0) {
          // Deterministic per-(member, attempt) stream — mirrors the
          // per-job RNG keying of the DES failure injection.
          Rng inject_rng(config.inject.seed, (id << 20) | attempt);
          if (inject_rng.uniform() < config.inject.segment.probability) {
            throw std::runtime_error("injected member failure");
          }
        }
        la::Vector x0 = pert.perturbed_state(packed_initial, id);
        if (ml && id >= mlp.members_per_level[0]) {
          // Coarse member: the fine perturbed state restricts to the
          // member's level (restriction is linear, so the coarse IC is
          // the restricted central plus the restricted perturbation),
          // integrates on the level's model with the member's own RNG
          // stream, and lands as a prolongated, weight-scaled anomaly
          // about the level's central — global id keeps the canonical
          // (level, member) order and exactly-once resolution.
          const std::size_t level = mlp.level_of(id);
          la::Vector x0c = ml->hierarchy().restrict_state(x0, level);
          la::Vector xfc = esse::run_member(
              ml->model(level), std::move(x0c), t0_hours, cp.forecast_hours,
              cp.stochastic_members, cp.perturbation.seed, id);
          if (cancelled.load(std::memory_order_relaxed)) return;
          if (config.arrival_hook) config.arrival_hook(id);
          differ.add_anomaly(id, ml->fine_anomaly(level, xfc));
          if (sink) sink->count("runner.ml_coarse_members");
        } else {
          la::Vector xf = esse::run_member(model, std::move(x0), t0_hours,
                                           cp.forecast_hours,
                                           cp.stochastic_members,
                                           cp.perturbation.seed, id);
          if (cancelled.load(std::memory_order_relaxed)) return;
          if (config.arrival_hook) config.arrival_hook(id);
          // dedups a speculative duplicate; weight 1.0 (single-level)
          // is the exact historical path.
          differ.add_member(id, xf,
                            ml ? mlp.column_weight(0) : 1.0);
        }
        if (sink) sink->count("runner.members_run");
        // Promote when the canonical contiguous-id prefix crosses a new
        // milestone (a multiple of svd_min_new_members). Keying promotion
        // on the contiguous count rather than "members since the last
        // snapshot" is what makes the SVD's inputs schedule-free: a
        // milestone fires exactly once per run, no matter which worker
        // lands the member that completes the prefix.
        bool promote = false;
        {
          std::lock_guard<std::mutex> lk(mu);
          const std::size_t milestone =
              (differ.contiguous_count() / config.svd_min_new_members) *
              config.svd_min_new_members;
          if (milestone >= 2 && milestone > promoted_milestone) {
            promoted_milestone = milestone;
            promote = true;
          }
        }
        // Promote a new covariance snapshot through the triple-buffer
        // store (the "safe file" the SVD reads). Views are column-prefix
        // handles over the differ's append-only storage, so a promote is
        // O(n) pointer copies — writers never block behind an O(m·n)
        // matrix copy.
        if (promote) {
          store.update(
              [&](esse::AnomalyView& v) { v = differ.contiguous_view(); });
          if (sink) sink->count("runner.store_promotes");
        }
        cv.notify_all();
      });
  mtc::FaultTolerantExecutor exec(backend, config.fault, sink);
  exec.set_member_hook([&](std::size_t member, mtc::TaskOutcome outcome) {
    {
      // A done member was absorbed by the differ before it resolved.
      std::lock_guard<std::mutex> lk(mu);
      orch.resolve(member, outcome);
      if (outcome == mtc::TaskOutcome::kDone) orch.absorb();
    }
    cv.notify_all();
  });
  Teardown teardown{exec, backend};

  auto launch = [&] {
    std::unique_lock<std::mutex> lk(mu);
    const std::vector<std::size_t> ids = orch.launch();
    const std::size_t cap = orch.capacity();
    lk.unlock();
    for (std::size_t id : ids) exec.run_member(id);
    if (sink) {
      sink->gauge_set("runner.pool_size", static_cast<double>(cap));
      sink->event("runner.pool_size", telemetry::wall_seconds(),
                  static_cast<double>(cap));
    }
    // Tell the service how many member workers this request can use so
    // the shared pool can stretch toward it (and hand slots back later).
    if (hooks.demand) hooks.demand(cap);
  };

  launch();

  std::uint64_t last_version = 0;
  // Deterministic milestone schedule: convergence is checked at ensemble
  // sizes k·svd_min_new_members over the canonical member-id prefix
  // 0..c-1, never over "whatever happened to arrive first". The latest
  // promoted snapshot may cover several newly-completed milestones at
  // once; they are processed strictly in order, so the ρ history — and
  // the milestone that declares convergence — is a pure function of the
  // seed and configuration.
  std::optional<esse::ErrorSubspace> converged_sub;
  std::size_t converged_members = 0;
  for (;;) {
    // Wait for fresh data, full resolution (done, or lost after its
    // retries), or a request-level cancel. The bounded wait keeps
    // cancellation responsive without a dedicated waker channel.
    {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait_for(lk, std::chrono::milliseconds(50), [&] {
        return store.version() != last_version || orch.drained() ||
               cancelled_now();
      });
    }
    if (cancelled_now()) {
      outcome.cancelled = true;
      teardown.run();
      return outcome;
    }
    const auto snap = store.read();
    if (snap.version != last_version && snap.data) {
      last_version = snap.version;
      const std::size_t avail = snap.data->count();
      for (;;) {
        std::size_t c;
        {
          std::lock_guard<std::mutex> lk(mu);
          if (!orch.check_due(avail)) break;
          c = orch.next_check();
          if (c < 2) orch.check_failed(avail);  // spread needs two members
        }
        if (c < 2) continue;
        ++acct.svd_runs;
        telemetry::ScopedTimer timer(sink, "runner.svd_s");
        esse::ErrorSubspace sub =
            esse::subspace_from_view(snap.data->prefix(c),
                                     cp.variance_fraction, cp.max_rank,
                                     nullptr, sink);
        const auto rho = conv.update(sub, c);
        if (sink && rho) {
          sink->event("runner.convergence", static_cast<double>(c), *rho);
        }
        if (conv.converged()) {
          // The forecast subspace is the converged milestone's — never
          // recomputed later from the racy post-cancellation member set.
          converged_sub = std::move(sub);
          converged_members = c;
          break;
        }
        std::lock_guard<std::mutex> lk(mu);
        orch.check_failed(avail);
      }
      if (conv.converged()) break;  // §4.1: cancel the remaining members
    }
    {
      // Pool drained without convergence and the latest snapshot read:
      // grow toward Nmax or stop (the multilevel mix is fixed — no
      // growth stage to fall back on).
      std::lock_guard<std::mutex> lk(mu);
      if (!orch.drained() || store.version() != last_version) continue;
      if (!orch.grow()) break;
    }
    launch();
  }
  // Stop launching and cancel live attempts, let running workers land,
  // then join the timer thread — only after that is it safe for the
  // executor and its hooks to go out of scope.
  teardown.run();
  const mtc::FaultStats fstats = exec.stats();
  const workflow::MemberLedger ledger = [&] {
    std::lock_guard<std::mutex> lk(mu);
    return orch.ledger();
  }();

  // Graceful degradation has a floor (FaultPolicy::min_members): proceed
  // with the survivors of a faulty run, but not below N′.
  const std::size_t floor_n =
      std::max<std::size_t>(1, config.fault.min_members);
  ESSEX_REQUIRE(differ.count() >= floor_n,
                "graceful degradation floor: fewer surviving members than "
                "FaultPolicy.min_members");
  out.central_forecast = std::move(central);
  if (converged_sub) {
    out.forecast_subspace = std::move(*converged_sub);
    out.members_run = converged_members;
  } else {
    // Drained without convergence (Nmax reached, or survivors of a
    // faulty run): fall back to every absorbed member in canonical
    // member-id order — still schedule-free, because which members
    // completed is decided by the deterministic per-(member, attempt)
    // injection stream, not by timing.
    out.forecast_subspace =
        esse::subspace_from_view(differ.view(), cp.variance_fraction,
                                 cp.max_rank, nullptr, sink);
    out.members_run = differ.count();
  }
  out.converged = conv.converged();
  out.convergence_history = conv.history();
  if (cp.analysis.method == esse::AnalysisMethod::kMultiModel) {
    // The coarse companion integration is one deterministic task, run
    // after the ensemble so cancellation semantics are untouched.
    telemetry::ScopedTimer timer(sink, "runner.surrogate_s");
    out.surrogate_forecast = esse::run_surrogate_forecast(
        model, request.initial, t0_hours, cp.forecast_hours, cp.analysis);
    if (sink) sink->count("runner.surrogate_runs");
  }
  acct.members_submitted = ledger.dispatched;
  acct.members_cancelled = ledger.dispatched - out.members_run;
  acct.store_versions = store.version();
  acct.members_done = ledger.done;
  // Members still unresolved when cancel_all() tore the pool down ended
  // cancelled; fold them in so member outcomes conserve against the
  // submitted count.
  acct.members_cancelled_final = ledger.cancelled + ledger.in_flight();
  acct.members_failed = fstats.failed_attempts;
  acct.members_retried = fstats.retries;
  acct.speculative_launched = fstats.speculative_launched;
  acct.speculative_won = fstats.speculative_won;
  acct.members_lost = ledger.lost;
  acct.degraded = out.converged && ledger.lost > 0;
  if (sink) {
    sink->count("runner.members_submitted",
                static_cast<double>(acct.members_submitted));
    sink->count("runner.members_cancelled",
                static_cast<double>(acct.members_cancelled));
    sink->count("runner.svd_runs", static_cast<double>(acct.svd_runs));
    sink->count("runner.members_retried",
                static_cast<double>(acct.members_retried));
    sink->count("runner.members_lost",
                static_cast<double>(acct.members_lost));
    sink->gauge_set("runner.store_versions",
                    static_cast<double>(acct.store_versions));
    sink->gauge_set("runner.converged", out.converged ? 1.0 : 0.0);
    sink->gauge_set("runner.degraded", acct.degraded ? 1.0 : 0.0);
  }
  out.mtc = acct;
  outcome.result = std::move(out);
  return outcome;
}

}  // namespace essex::service

namespace essex::workflow {

esse::ForecastResult run_parallel_forecast(const ForecastRequest& request) {
  ThreadPool pool(std::max<std::size_t>(request.config.cycle.threads, 1));
  return service::execute_forecast(request, pool, {}).result;
}

}  // namespace essex::workflow
