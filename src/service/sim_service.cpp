#include "service/sim_service.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/telemetry.hpp"

namespace essex::service {

namespace {

/// Single-attempt member cost at unit speed (pert + pemodel).
double member_cost_s(const mtc::EsseJobShape& shape) {
  return shape.pert_cpu_s + shape.pert_fs_s + shape.pemodel_cpu_s;
}

bool multilevel(const SimRequestSpec& spec) { return spec.levels > 1; }

std::size_t total_planned(const SimRequestSpec& spec) {
  std::size_t n = 0;
  for (std::size_t m : spec.members_per_level) n += m;
  return n;
}

/// Admission work units: planned member cost relative to one fine
/// member — the sim analogue of workflow::forecast_work_units.
double spec_work_units(const SimRequestSpec& spec) {
  if (!multilevel(spec)) return static_cast<double>(spec.max_members);
  double units = 0.0;
  for (std::size_t l = 0; l < spec.members_per_level.size(); ++l) {
    units += static_cast<double>(spec.members_per_level[l]) *
             std::pow(kSimLevelCostRatio, static_cast<double>(l));
  }
  return units;
}

/// Floor of any running request's member-slot budget.
constexpr std::size_t kMinSlotsPerRequest = 2;

// Service-wide member keys: request id from bit 32 up, hierarchy level
// in bits 24-31, the member's index within its request below.
constexpr std::size_t kMaxMembersPerRequest = std::size_t{1} << 24;
constexpr std::size_t kMaxLevels = 256;

std::size_t member_key(std::uint64_t request, std::size_t level,
                       std::size_t index) {
  return request << 32 | level << 24 | index;
}

/// Recovery policy of the twin's fault layer: the FaultPolicy retry and
/// backoff defaults, without timeouts or straggler speculation. A twin
/// member has a fixed modelled cost, so nothing hangs for a timeout to
/// catch, and a speculative copy would hold a core outside its request's
/// slot budget.
mtc::FaultPolicy twin_fault_policy() {
  mtc::FaultPolicy policy;
  policy.timeout_multiple = 0.0;
  policy.speculate = false;
  return policy;
}

}  // namespace

SimForecastService::Active::Active(const SimRequestSpec& s,
                                   double pool_headroom)
    : spec(s),
      // Modelled convergence: satisfied once converge_at members landed,
      // or every member the request may run.
      orch({.ensemble = {s.initial_members, s.growth, s.max_members,
                         s.min_members},
            .pool_headroom = pool_headroom,
            .members_per_level = multilevel(s) ? s.members_per_level
                                               : std::vector<std::size_t>{},
            .check_stride = 1,
            .grow_lookahead = 0,
            .goal = std::min(s.converge_at, multilevel(s)
                                                ? total_planned(s)
                                                : s.max_members)}) {}

SimForecastService::SimForecastService(mtc::Simulator& sim,
                                       mtc::ClusterScheduler& sched,
                                       SimServiceConfig config)
    : sim_(sim), sched_(sched), config_(config),
      admission_(config.admission) {
  ESSEX_REQUIRE(config_.max_inflight >= 1,
                "sim service needs >= 1 inflight slot");
  backend_ = std::make_unique<mtc::SimExecutionBackend>(
      sched_, [this](std::size_t key, std::size_t /*attempt*/) {
        return member_job(key);
      });
  exec_ = std::make_unique<mtc::FaultTolerantExecutor>(
      *backend_, twin_fault_policy(), config_.sink);
  exec_->set_member_hook([this](std::size_t key, mtc::TaskOutcome outcome) {
    on_resolved(key, outcome);
  });
}

std::uint64_t SimForecastService::submit(const SimRequestSpec& spec) {
  const double now = sim_.now();
  const std::uint64_t id = next_id_++;
  ++stats_.submitted;

  auto record_rejection = [&](RejectReason reason, std::string message) {
    switch (reason) {
      case RejectReason::kQueueFull: ++stats_.rejected_queue_full; break;
      case RejectReason::kDeadlineInfeasible:
        ++stats_.rejected_deadline;
        break;
      case RejectReason::kInvalidRequest: ++stats_.rejected_invalid; break;
      case RejectReason::kShuttingDown: ++stats_.rejected_shutdown; break;
    }
    SimRequestOutcome out;
    out.id = id;
    out.state = RequestState::kRejected;
    out.rejection = Rejection{reason, std::move(message)};
    out.priority = spec.priority;
    out.label = spec.label;
    out.submitted_s = out.finished_s = now;
    outcomes_.push_back(std::move(out));
    if (config_.sink) {
      config_.sink->count("service.rejected");
      config_.sink->count("service.rejected." + to_string(reason));
      config_.sink->event("service.request.rejected", now,
                          static_cast<double>(id));
    }
    return id;
  };

  // Structural validation (the sim analogue of workflow::validate).
  {
    std::ostringstream os;
    if (spec.initial_members < 2) {
      os << "spec.initial_members: ensemble needs >= 2 members";
    } else if (!(spec.growth > 1.0)) {
      os << "spec.growth: growth factor must exceed 1";
    } else if (spec.max_members < spec.initial_members) {
      os << "spec.max_members: Nmax must be >= the initial size";
    } else if (spec.min_members > spec.max_members) {
      os << "spec.min_members: floor must be <= Nmax";
    } else if (spec.converge_at < 1) {
      os << "spec.converge_at: modelled convergence needs >= 1 member";
    } else if (spec.levels < 1) {
      os << "spec.levels: hierarchy needs at least the fine level";
    } else if (multilevel(spec) &&
               spec.members_per_level.size() != spec.levels) {
      os << "spec.members_per_level: must name a member count for every "
            "level";
    } else if (multilevel(spec) && spec.members_per_level[0] < 2) {
      os << "spec.members_per_level: the fine level needs >= 2 members";
    } else if (spec.levels > kMaxLevels ||
               (multilevel(spec) ? total_planned(spec) : spec.max_members) >
                   kMaxMembersPerRequest) {
      os << "spec.max_members: at most " << kMaxMembersPerRequest
         << " members in " << kMaxLevels << " levels per request";
    } else if (spec.fine_cores < 1) {
      os << "spec.fine_cores: a fine member needs >= 1 core";
    }
    const std::string msg = os.str();
    if (!msg.empty()) {
      return record_rejection(RejectReason::kInvalidRequest, msg);
    }
  }

  AdmissionTicket ticket;
  ticket.priority = spec.priority;
  ticket.deadline_s = spec.deadline_s;
  ticket.expected_cost_s = spec.expected_cost_s;
  ticket.work_units = spec_work_units(spec);
  ServerLoad load;
  load.now_s = now;
  load.queued = queue_.size();
  load.queued_ahead = queue_.count_at_or_above(spec.priority);
  load.inflight = active_.size();
  load.max_inflight = config_.max_inflight;
  if (auto rej = admission_.decide(ticket, load, estimator_)) {
    return record_rejection(rej->reason, std::move(rej->message));
  }

  queue_.push({id, spec.priority, spec.deadline_s});
  queued_specs_.emplace(id, spec);
  queued_at_.emplace(id, now);
  ++stats_.admitted;
  stats_.peak_queue = std::max(stats_.peak_queue, queue_.size());
  if (config_.sink) {
    config_.sink->count("service.admitted");
    config_.sink->gauge_set("service.queued",
                            static_cast<double>(queue_.size()));
    config_.sink->event("service.request.queued", now,
                        static_cast<double>(id));
  }
  pump();
  return id;
}

void SimForecastService::pump() {
  while (active_.size() < config_.max_inflight && !queue_.empty()) {
    const auto entry = queue_.pop();
    if (!entry) break;
    auto sit = queued_specs_.find(entry->id);
    if (sit == queued_specs_.end()) continue;
    const SimRequestSpec spec = sit->second;
    const double submitted_s = queued_at_.at(entry->id);
    queued_specs_.erase(sit);
    queued_at_.erase(entry->id);
    start(entry->id, spec, submitted_s);
  }
}

void SimForecastService::start(std::uint64_t id, const SimRequestSpec& spec,
                               double submitted_s) {
  Active a(spec, config_.pool_headroom);
  a.id = id;
  a.submitted_s = submitted_s;
  a.started_s = sim_.now();
  auto [it, inserted] = active_.emplace(id, std::move(a));
  ESSEX_ASSERT(inserted, "duplicate active request id");
  if (config_.sink) {
    config_.sink->event("service.request.start", sim_.now(),
                        static_cast<double>(id));
    config_.sink->gauge_set("service.inflight",
                            static_cast<double>(active_.size()));
  }
  rebalance_slots();
  launch(it->second);
}

void SimForecastService::launch(Active& a) {
  for (std::size_t index : a.orch.launch(a.slots)) {
    exec_->run_member(member_key(a.id, a.orch.level_of(index), index));
  }
}

mtc::SimExecutionBackend::Job SimForecastService::member_job(
    std::size_t key) const {
  const Active& a = active_.at(key >> 32);
  const std::size_t level = key >> 24 & (kMaxLevels - 1);
  const double cost = member_cost_s(config_.shape) *
                      std::pow(kSimLevelCostRatio, static_cast<double>(level));
  // Fine members of a multilevel plan may reserve several cores; coarse
  // members are always 1-core so backfill packs them into slots fine
  // members leave idle.
  const std::size_t cores =
      a.orch.multilevel() && level == 0 ? a.spec.fine_cores : 1;
  return {[cost](mtc::JobContext& ctx) {
            ctx.compute(cost, [&ctx] { ctx.finish(); });
          },
          cores};
}

void SimForecastService::on_resolved(std::size_t key,
                                     mtc::TaskOutcome outcome) {
  auto it = active_.find(key >> 32);
  if (it == active_.end()) return;
  Active& a = it->second;
  workflow::EnsembleOrchestrator& orch = a.orch;
  orch.resolve(key % kMaxMembersPerRequest, outcome);
  if (orch.stopped()) return;  // begin_finish() is cancelling the rest

  if (outcome == mtc::TaskOutcome::kDone) {
    orch.absorb();
    if (orch.check_due(orch.absorbed()) &&
        !orch.satisfies(orch.absorbed())) {
      orch.check_failed(orch.absorbed());
    }
  }
  // A met goal is never shrunk; a shrunk one may be met at once.
  if (orch.shrink_for_deadline(sim_.now(), a.spec.deadline_s,
                               member_cost_s(config_.shape), a.slots) &&
      config_.sink) {
    config_.sink->event("service.ensemble_shrink", sim_.now(),
                        static_cast<double>(orch.goal()));
  }
  if (orch.satisfies(orch.absorbed())) {
    begin_finish(a);
    return;
  }
  if (orch.drained()) {
    // Pool drained without reaching the goal: grow toward Nmax or give
    // up with what landed (the real runner's unconverged fallback).
    if (!orch.grow()) {
      begin_finish(a);
      return;
    }
    if (config_.sink) {
      config_.sink->event("service.ensemble_grow", sim_.now(),
                          static_cast<double>(orch.target()));
    }
  }
  launch(a);
}

void SimForecastService::begin_finish(Active& a) {
  a.done_s = sim_.now();
  // §4.1 cancel-on-convergence: cancel this request's queued, running and
  // retry-pending members. Each cancellation resolves synchronously and
  // re-enters on_resolved, which only records it once stopped.
  for (std::size_t index : a.orch.stop()) {
    exec_->cancel_member(member_key(a.id, a.orch.level_of(index), index));
  }
  ESSEX_ASSERT(a.orch.ledger().in_flight() == 0,
               "cancelled members did not all resolve synchronously");
  finalize(a.id);
}

void SimForecastService::finalize(std::uint64_t id) {
  auto it = active_.find(id);
  ESSEX_ASSERT(it != active_.end(), "finalize of unknown request");
  const Active& a = it->second;
  const workflow::MemberLedger& ledger = a.orch.ledger();

  SimRequestOutcome out;
  out.id = a.id;
  out.state = RequestState::kDone;
  out.priority = a.spec.priority;
  out.label = a.spec.label;
  out.submitted_s = a.submitted_s;
  out.started_s = a.started_s;
  out.finished_s = a.done_s;
  out.members_dispatched = ledger.dispatched;
  out.members_completed = ledger.done;
  out.members_cancelled = ledger.cancelled;
  out.members_failed = ledger.lost;
  out.members_completed_per_level = ledger.done_per_level;
  out.converged = ledger.done >= a.spec.converge_at;
  out.degraded = a.orch.degraded();
  out.deadline_met = a.done_s <= a.spec.deadline_s;

  ++stats_.completed;
  if (!out.deadline_met) ++stats_.deadline_missed;
  estimator_.observe(a.done_s - a.started_s, spec_work_units(a.spec));
  if (telemetry::Sink* sink = config_.sink) {
    sink->count("service.done");
    if (!out.deadline_met) sink->count("service.deadline_missed");
    sink->observe("service.queue_wait_s", a.started_s - a.submitted_s);
    sink->observe("service.latency_s", a.done_s - a.submitted_s);
    sink->event("service.request.done", a.done_s,
                static_cast<double>(a.id));
    sink->gauge_set("service.inflight",
                    static_cast<double>(active_.size() - 1));
  }
  outcomes_.push_back(std::move(out));
  active_.erase(it);
  rebalance_slots();
  pump();
}

void SimForecastService::rebalance_slots() {
  if (active_.empty()) return;
  const std::size_t total = sched_.schedulable_cores();
  const std::size_t base =
      std::max(kMinSlotsPerRequest, total / active_.size());
  for (auto& [id, a] : active_) {
    const std::size_t old = a.slots;
    if (base == old) continue;
    a.slots = base;
    if (old != 0) {
      // Initial allocation is not an elasticity event; later changes are
      // workers joining/leaving a running ensemble.
      if (base > old) {
        ++stats_.pool_grow_events;
      } else {
        ++stats_.pool_shrink_events;
      }
    }
    stats_.peak_workers = std::max(stats_.peak_workers, base);
    if (config_.sink) {
      config_.sink->event("service.slots", sim_.now(),
                          static_cast<double>(base));
    }
    if (base > old) launch(a);
  }
}

long long SimForecastService::leaked_members() const {
  long long leaked = 0;
  for (const auto& out : outcomes_) {
    leaked += static_cast<long long>(out.members_dispatched) -
              static_cast<long long>(out.members_completed) -
              static_cast<long long>(out.members_cancelled) -
              static_cast<long long>(out.members_failed);
  }
  return leaked;
}

}  // namespace essex::service
