#include "workflow/ensemble_orchestrator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/error.hpp"

namespace essex::workflow {

EnsembleOrchestrator::EnsembleOrchestrator(Params params)
    : params_(std::move(params)),
      sizer_(params_.ensemble),
      planned_(std::accumulate(params_.members_per_level.begin(),
                               params_.members_per_level.end(),
                               std::size_t{0})),
      next_check_(params_.check_stride),
      goal_(params_.goal) {
  if (multilevel())
    ledger_.done_per_level.assign(params_.members_per_level.size(), 0);
}

std::size_t EnsembleOrchestrator::capacity() const {
  return multilevel() ? planned_
                      : sizer_.pool_target(params_.pool_headroom);
}

std::vector<std::size_t> EnsembleOrchestrator::launch(std::size_t budget) {
  std::vector<std::size_t> ids;
  while (!stopped_ && ledger_.dispatched < capacity() &&
         ledger_.in_flight() < budget) {
    ids.push_back(ledger_.dispatched++);
    resolved_.push_back(false);
  }
  return ids;
}

std::size_t EnsembleOrchestrator::level_of(std::size_t id) const {
  const auto& plan = params_.members_per_level;
  std::size_t l = 0;
  for (std::size_t end = 0; l + 1 < plan.size(); ++l) {
    end += plan[l];
    if (id < end) break;
  }
  return l;
}

void EnsembleOrchestrator::resolve(std::size_t id, mtc::TaskOutcome outcome) {
  ESSEX_REQUIRE(id < ledger_.dispatched && !resolved_[id],
                "member resolved twice or never dispatched");
  resolved_[id] = true;
  if (outcome == mtc::TaskOutcome::kDone) {
    ++ledger_.done;
    if (multilevel()) ++ledger_.done_per_level[level_of(id)];
  } else if (outcome == mtc::TaskOutcome::kCancelled) {
    ++ledger_.cancelled;
  } else {
    ++ledger_.lost;
  }
}

bool EnsembleOrchestrator::check_failed(std::size_t count) {
  // Uncapped on purpose: a milestone beyond Nmax never comes due again.
  next_check_ += params_.check_stride;
  if (params_.grow_lookahead == 0 ||
      count + params_.grow_lookahead < capacity()) {
    return false;
  }
  return grow();
}

bool EnsembleOrchestrator::drained() const {
  return !stopped_ && ledger_.in_flight() == 0 &&
         ledger_.dispatched >= capacity() && absorbed_ == ledger_.done;
}

bool EnsembleOrchestrator::grow() {
  if (multilevel() || sizer_.at_max()) return false;
  sizer_.grow();
  return true;
}

std::vector<std::size_t> EnsembleOrchestrator::stop() {
  stopped_ = true;
  std::vector<std::size_t> live;
  for (std::size_t id = 0; id < resolved_.size(); ++id) {
    if (!resolved_[id]) live.push_back(id);
  }
  return live;
}

bool EnsembleOrchestrator::shrink_for_deadline(double now_s,
                                               double deadline_s,
                                               double member_cost_s,
                                               std::size_t slots) {
  if (multilevel() || !std::isfinite(deadline_s) || sizer_.at_min() ||
      goal_ <= absorbed_) {
    return false;
  }
  const double waves = std::ceil(
      static_cast<double>(goal_ - absorbed_) /
      static_cast<double>(std::max<std::size_t>(slots, 1)));
  if (now_s + waves * member_cost_s <= deadline_s) return false;
  const std::size_t floor =
      std::max<std::size_t>(params_.ensemble.min_members, 2);
  const std::size_t goal = std::max(std::min(goal_, sizer_.shrink()), floor);
  if (goal >= goal_) return false;
  goal_ = goal;
  return true;
}

}  // namespace essex::workflow
