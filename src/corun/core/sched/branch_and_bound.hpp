// Branch-and-bound co-schedule search.
//
// The optimal co-scheduling problem is NP-hard (Sec. IV), and the paper
// positions A*-style search (Tian et al.) as the exact-but-expensive
// alternative its heuristic replaces. This solver makes that comparison
// concrete: one serial depth-first search over placements (see
// docs/search.md for the full anatomy).
//
// The contract. A *leaf* is a full placement: each device runs its jobs in
// index order at their best cap-feasible solo levels. *Canonical order*
// enumerates placements depth-first, deciding job 0 first and trying the
// GPU before the CPU at every job. plan() returns the HCS+ seed unless some
// leaf is strictly better; then it returns the first minimum-makespan leaf
// in canonical order. Finally the Sec. IV-A.3 refiner polishes per-device
// order, and its result is taken only if strictly better. The search is
// serial, so the plan and the statistics are the same at any --jobs count.
//
// Two rules cut the tree without changing that answer:
//
//   - bound pruning: a node whose IncrementalBound value is strictly above
//     the incumbent holds no leaf that could replace it (the bound is
//     admissible, and a tie never replaces the incumbent);
//   - equivalence dominance: consecutive jobs with bit-identical profile
//     entries (a same-class index run) are interchangeable, so placing a
//     run member on the GPU while an earlier member sits on the CPU builds
//     a twin of a placement that comes earlier in canonical order with a
//     bit-identical makespan — that GPU child is skipped.
//
// The search is seeded with the HCS+ schedule as the incumbent and refuses
// batches of more than kMaxJobs jobs, whose full tree of 2^(kMaxJobs+1)-1
// nodes bounds its work.
#pragma once

#include <cstddef>

#include "corun/core/sched/scheduler.hpp"

namespace corun::sched {

class BranchAndBoundScheduler : public Scheduler {
 public:
  /// The largest batch plan() accepts; a larger one violates its contract.
  static constexpr std::size_t kMaxJobs = 12;

  [[nodiscard]] Schedule plan(const SchedulerContext& ctx) override;
  [[nodiscard]] std::string name() const override { return "BnB"; }

  /// Search statistics of the last plan() call.
  [[nodiscard]] std::size_t nodes_visited() const noexcept { return nodes_; }
  /// Total prunes: bound prunes + dominance prunes.
  [[nodiscard]] std::size_t nodes_pruned() const noexcept { return pruned_; }
  /// Entered nodes cut by the admissible bound.
  [[nodiscard]] std::size_t bound_prunes() const noexcept {
    return bound_prunes_;
  }
  /// GPU children skipped by equivalence dominance (never entered, so
  /// never counted in nodes_visited — the canonical twin covers them).
  [[nodiscard]] std::size_t dominance_prunes() const noexcept {
    return dominance_prunes_;
  }
  [[nodiscard]] std::size_t leaves_evaluated() const noexcept {
    return leaves_;
  }
  /// Times a leaf strictly improved the incumbent.
  [[nodiscard]] std::size_t incumbent_updates() const noexcept {
    return incumbent_updates_;
  }

 private:
  std::size_t nodes_ = 0;
  std::size_t pruned_ = 0;
  std::size_t bound_prunes_ = 0;
  std::size_t dominance_prunes_ = 0;
  std::size_t leaves_ = 0;
  std::size_t incumbent_updates_ = 0;
};

}  // namespace corun::sched
