// ESSEX: the clock-free Fig.-4 ensemble loop (paper §4.1).
//
// Every Fig.-4 driver makes the same pool decisions: how many members
// the pool may hold (M ≥ N, or a fixed multilevel plan), which ids to
// launch, when convergence is checked, when to grow toward Nmax, when to
// stop and cancel the rest, and when a deadline forces a smaller
// ensemble. EnsembleOrchestrator makes them once. Its adapter launches
// the ids it is handed, reports each member's final outcome and each
// absorbed result, and runs the convergence check itself (a modelled SVD
// in the DES). Like AdmissionController (§12.1) it owns no clock, thread
// or scheduler: times arrive as numbers.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "esse/convergence.hpp"
#include "mtc/fault.hpp"

namespace essex::workflow {

/// Member-level final outcomes in the fault layer's categories
/// (`mtc::FaultStats`): each dispatched member ends done, cancelled or
/// lost (retries exhausted), exactly once.
struct MemberLedger {
  std::size_t dispatched = 0;
  std::size_t done = 0;
  std::size_t cancelled = 0;
  std::size_t lost = 0;
  /// Done members per level, fine first; empty for one level.
  std::vector<std::size_t> done_per_level;

  std::size_t in_flight() const {
    return dispatched - done - cancelled - lost;
  }
};

class EnsembleOrchestrator {
 public:
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();

  struct Params {
    esse::EnsembleSizeController::Params ensemble;  ///< N, growth, Nmax, floor
    double pool_headroom = 1.0;                     ///< M = headroom × N
    /// Fixed multilevel plan, fine level first (level-major ids). With
    /// more than one level the plan is the pool: no growth or shrink.
    std::vector<std::size_t> members_per_level;
    std::size_t check_stride = 1;  ///< milestones at k·check_stride
    /// §4.1 staged growth: a failed check grows the pool once the checked
    /// count is this close to its end. 0 = grow only when the pool drains.
    std::size_t grow_lookahead = 0;
    /// Absorbed members that satisfy modelled convergence.
    std::size_t goal = kUnbounded;
  };

  explicit EnsembleOrchestrator(Params params);

  /// Members the pool may hold now: headroom × N within [N, Nmax], or
  /// the plan.
  std::size_t capacity() const;
  /// Next ids to launch, ascending: up to capacity(), keeping at most
  /// `budget` members in flight. Empty once stopped.
  std::vector<std::size_t> launch(std::size_t budget = kUnbounded);
  std::size_t level_of(std::size_t id) const;
  bool multilevel() const { return params_.members_per_level.size() > 1; }

  /// Record member `id`'s final outcome (once per dispatched id).
  void resolve(std::size_t id, mtc::TaskOutcome outcome);
  /// A done member's result joined the ensemble.
  void absorb() { ++absorbed_; }

  /// `count` reached the next milestone, next_check(). The adapter picks
  /// the count: absorbed() in the DES, the contiguous-id prefix of the
  /// promoted snapshot on real threads (schedule-free checks).
  bool check_due(std::size_t count) const {
    return !stopped_ && count >= next_check_;
  }
  std::size_t next_check() const { return next_check_; }
  /// Modelled convergence: `n` absorbed members meet the goal.
  bool satisfies(std::size_t n) const { return n >= goal_; }
  /// The check at the due milestone failed or was skipped: schedule the
  /// next one and apply staged growth against `count`. True when the
  /// pool grew (call launch()).
  bool check_failed(std::size_t count);

  /// Every dispatched member resolved and absorbed at full capacity:
  /// nothing more arrives unless the pool grows.
  bool drained() const;
  /// Grow the pool one stage toward Nmax (call launch()). False when
  /// Nmax or the plan is exhausted: a drained pool finishes with what
  /// landed.
  bool grow();

  /// Converged or given up: launch nothing more. Returns the unresolved
  /// ids, ascending, for the caller to cancel.
  std::vector<std::size_t> stop();
  bool stopped() const { return stopped_; }

  /// If the members missing from the goal, run `slots` at a time at
  /// `member_cost_s` each, finish after `deadline_s`: walk the ensemble
  /// back one growth stage and lower the goal (never below the floor).
  /// True when the goal moved.
  bool shrink_for_deadline(double now_s, double deadline_s,
                           double member_cost_s, std::size_t slots);

  const MemberLedger& ledger() const { return ledger_; }
  std::size_t absorbed() const { return absorbed_; }
  std::size_t target() const { return sizer_.target(); }
  std::size_t goal() const { return goal_; }
  /// The goal was lowered by deadline pressure.
  bool degraded() const { return goal_ < params_.goal; }

 private:
  Params params_;
  esse::EnsembleSizeController sizer_;
  std::size_t planned_ = 0;  ///< multilevel plan total
  MemberLedger ledger_;
  std::vector<bool> resolved_;  ///< by member id
  std::size_t absorbed_ = 0;
  std::size_t next_check_ = 0;
  std::size_t goal_ = kUnbounded;
  bool stopped_ = false;
};

}  // namespace essex::workflow
