#include "service/admission.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace essex::service {

std::string to_string(RequestState s) {
  switch (s) {
    case RequestState::kQueued: return "queued";
    case RequestState::kRunning: return "running";
    case RequestState::kDone: return "done";
    case RequestState::kFailed: return "failed";
    case RequestState::kCancelled: return "cancelled";
    case RequestState::kRejected: return "rejected";
  }
  return "unknown";
}

std::string to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kQueueFull: return "queue-full";
    case RejectReason::kDeadlineInfeasible: return "deadline-infeasible";
    case RejectReason::kInvalidRequest: return "invalid-request";
    case RejectReason::kShuttingDown: return "shutting-down";
  }
  return "unknown";
}

void RuntimeEstimator::observe(double service_time_s, double work_units) {
  if (service_time_s < 0.0 || !(work_units > 0.0)) return;
  const double per_unit = service_time_s / work_units;
  per_unit_ = samples_ == 0
                  ? per_unit
                  : (1.0 - alpha_) * per_unit_ + alpha_ * per_unit;
  ++samples_;
}

std::optional<Rejection> AdmissionController::decide(
    const AdmissionTicket& ticket, const ServerLoad& load,
    const RuntimeEstimator& estimator) const {
  if (load.queued >= policy_.max_queued) {
    std::ostringstream os;
    os << "request queue at capacity (" << load.queued << "/"
       << policy_.max_queued << " queued)";
    return Rejection{RejectReason::kQueueFull, os.str()};
  }
  // A finite deadline is checked against the request's expected cost,
  // else the estimator's rolling view once completions exist.
  if (std::isfinite(ticket.deadline_s)) {
    const double cost = ticket.expected_cost_s > 0.0
                            ? ticket.expected_cost_s
                            : estimator.estimate_s(ticket.work_units);
    // No cost signal at all: admit optimistically rather than guess.
    if (cost > 0.0) {
      const std::size_t slots = std::max<std::size_t>(load.max_inflight, 1);
      // Requests this one must wait out: everything queued at its
      // priority or higher plus the running set, served `slots` at a
      // time.
      const auto ahead =
          static_cast<double>(load.queued_ahead + load.inflight);
      const double wait_s = std::ceil(ahead / static_cast<double>(slots)) *
                            cost * policy_.runtime_safety;
      const double finish_s = load.now_s + wait_s +
                              cost * policy_.runtime_safety;
      if (finish_s > ticket.deadline_s) {
        std::ostringstream os;
        os << "deadline infeasible: estimated finish t=" << finish_s
           << "s (now " << load.now_s << "s + wait " << wait_s
           << "s + run " << cost * policy_.runtime_safety
           << "s) past deadline t=" << ticket.deadline_s << "s";
        return Rejection{RejectReason::kDeadlineInfeasible, os.str()};
      }
    }
  }
  return std::nullopt;
}

std::optional<RequestQueue::Entry> RequestQueue::pop() {
  if (entries_.empty()) return std::nullopt;
  Entry best = *entries_.begin();
  entries_.erase(entries_.begin());
  return best;
}

bool RequestQueue::erase(std::uint64_t id) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->id == id) {
      entries_.erase(it);
      return true;
    }
  }
  return false;
}

std::size_t RequestQueue::count_at_or_above(int priority) const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(), [&](const Entry& e) {
        return e.priority >= priority;
      }));
}

}  // namespace essex::service
