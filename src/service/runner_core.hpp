// ESSEX: the Fig. 4 parallel ESSE execution core on real threads.
//
// A persistent ForecastService runs many concurrent requests through it
// over ONE shared member pool; run_parallel_forecast calls it directly
// on a private pool. The pool is borrowed (not owned), teardown drains
// only this request's attempts (ThreadExecutionBackend::drain_tasks,
// never the pool-wide wait_idle), a request-level cancel flag aborts
// mid-run, and a demand hook reports the runner's desired worker count
// whenever the ensemble target moves — the service's elasticity loop
// turns that into ThreadPool::resize. The pool decisions are a
// workflow::EnsembleOrchestrator's (DESIGN.md §18).
//
// The determinism contract (DESIGN.md §10): milestones are checked over
// the canonical contiguous-id prefix, so neither pool sharing nor
// mid-run resizes can change which members feed which check.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>

#include "common/thread_pool.hpp"
#include "workflow/parallel_runner.hpp"

namespace essex::service {

/// Service-side knobs of one core execution.
struct ExecHooks {
  /// Request-level cancellation: when it turns true the core cancels all
  /// live attempts, drains its tasks and returns with `cancelled` set.
  /// Null = not cancellable.
  const std::atomic<bool>* cancel = nullptr;
  /// Called (on the orchestrating thread, outside locks) when the
  /// runner's desired member-worker count changes — pool fills and
  /// ensemble growth stages. The service aggregates demands across
  /// in-flight requests and resizes the shared pool.
  std::function<void(std::size_t workers_wanted)> demand;
};

/// Outcome wrapper: `result` is meaningful only when !cancelled.
struct ExecOutcome {
  esse::ForecastResult result;
  bool cancelled = false;
};

/// Validate and run one forecast request on `pool`. Throws
/// (PreconditionError on validation issues or a violated degradation
/// floor, model errors, ...) — the service catches and maps exceptions
/// onto the handle; the one-shot wrapper lets them propagate.
ExecOutcome execute_forecast(const workflow::ForecastRequest& request,
                             ThreadPool& pool, const ExecHooks& hooks);

}  // namespace essex::service
