// Branch-and-bound co-schedule search.
//
// The optimal co-scheduling problem is NP-hard (Sec. IV), and the paper
// positions A*-style search (Tian et al.) as the exact-but-expensive
// alternative its heuristic replaces. This solver makes that comparison
// concrete: a breadth-first fan-out into independent subtrees, then
// depth-first construction of the two device sequences over an incremental
// path cursor with two optimality-preserving pruning rules (see
// docs/search.md for the full anatomy):
//
//   - bound pruning against IncrementalBound: the fractional residual-load
//     relaxation and the power-cap occupancy relaxation, maintained with
//     O(1) push/pop per placement, floored by the historical load bound
//     max(L_cpu, L_gpu, (L_cpu + L_gpu + R) / 2);
//   - equivalence dominance: consecutive jobs with identical profile
//     digests (a same-class index run) are interchangeable, so only the
//     canonical GPU-before-CPU placement pattern within each run is
//     explored, and frontier subtrees whose prefixes are within-run
//     device permutations of an earlier subtree are skipped outright.
//
// Leaves are scored with the full analytic evaluator (model-driven DVFS,
// degradations, partial overlap). The search enumerates placements (2^n
// device assignments); per-device order is then polished by the
// Sec. IV-A.3 local refinement, since placement dominates the makespan
// while order is a local property. Both pruning rules preserve the exact
// schedule the unpruned search returns — byte-identically, at any --jobs
// count — which the `strong_bound`/`dominance` toggles exist to pin:
// with both off, the search reproduces the historical bound and node
// accounting bit-for-bit (the equivalence-sweep tests and the node
// benchmark compare the two modes).
//
// Anytime behaviour: the search is seeded with the HCS+ schedule as the
// incumbent and respects a node budget, so it degrades gracefully into
// "HCS+ or better" on large batches.
#pragma once

#include <cstddef>

#include "corun/core/sched/scheduler.hpp"

namespace corun::sched {

struct BranchAndBoundOptions {
  std::size_t max_jobs = 12;        ///< hard safety limit
  std::size_t node_budget = 200000; ///< DFS nodes before settling
  bool strong_bound = true;  ///< IncrementalBound in the subtree search
  bool dominance = true;     ///< equivalence dominance in the subtree search
};

class BranchAndBoundScheduler : public Scheduler {
 public:
  explicit BranchAndBoundScheduler(BranchAndBoundOptions options = {});

  [[nodiscard]] Schedule plan(const SchedulerContext& ctx) override;
  [[nodiscard]] std::string name() const override { return "BnB"; }

  /// Search statistics of the last plan() call.
  [[nodiscard]] std::size_t nodes_visited() const noexcept { return nodes_; }
  /// Total prunes: bound prunes + dominance prunes.
  [[nodiscard]] std::size_t nodes_pruned() const noexcept { return pruned_; }
  /// Nodes cut by the admissible bound. Prunes at entered nodes count as
  /// visited (like the historical search); whole subtrees skipped by the
  /// root gate are never entered and count here only.
  [[nodiscard]] std::size_t bound_prunes() const noexcept {
    return bound_prunes_;
  }
  /// Subtrees skipped by equivalence dominance (never visited or counted
  /// in nodes_visited — the canonical twin covers them).
  [[nodiscard]] std::size_t dominance_prunes() const noexcept {
    return dominance_prunes_;
  }
  [[nodiscard]] std::size_t leaves_evaluated() const noexcept {
    return leaves_;
  }
  /// Times a leaf strictly improved the shared incumbent bound.
  [[nodiscard]] std::size_t incumbent_updates() const noexcept {
    return incumbent_updates_;
  }
  /// True when the last plan() stopped on its node budget. A truncated
  /// search still returns a valid "HCS+ or better" schedule, but which
  /// leaves it saw depends on task interleaving, so the byte-identity
  /// guarantees (--jobs, plan cache on/off) are scoped to runs where this
  /// stays false — which always holds at the default options, whose
  /// budget exceeds the 2^(max_jobs+1)-1 node full tree.
  [[nodiscard]] bool exhausted_budget() const noexcept {
    return budget_exhausted_;
  }

 private:
  BranchAndBoundOptions options_;
  std::size_t nodes_ = 0;
  std::size_t pruned_ = 0;
  std::size_t bound_prunes_ = 0;
  std::size_t dominance_prunes_ = 0;
  std::size_t leaves_ = 0;
  std::size_t incumbent_updates_ = 0;
  bool budget_exhausted_ = false;
};

}  // namespace corun::sched
