// Lower bounds on the optimal makespan (Sec. IV-B), static and incremental.
//
// Static bound (`compute_lower_bound`): for each job i and processor p, the
// effective occupancy l'_{i,p} is the smaller of (a) the best cap-feasible
// co-run time with the least interfering partner, and (b) twice the best
// cap-feasible standalone time (a solo run occupies both processors' time
// budget). The bound is half the sum of min-over-p occupancies — two
// processors can at best halve total work. We additionally report a
// slightly tightened variant that cannot fall below the single longest
// job's best possible completion time.
//
// Incremental bound (`IncrementalBound`): the branch-and-bound search's
// node bound, maintained along the search path with O(1) push/pop per
// placement (no O(n) recompute per node). Two components, both admissible
// for the index-order branching discipline (job d is placed at depth d):
//
//   1. Fractional residual-load relaxation: place every unplaced job's
//      optimistic solo time fractionally across the two devices so the
//      later-finishing device finishes earliest. With A/B the committed
//      CPU/GPU loads plus the suffix's forced (single-device-feasible)
//      loads, the optimum of  min_x max(A + sum x_j a_j, B + sum (1-x_j)
//      b_j)  is solved in closed form over per-depth prefix structures
//      sorted by a_j/(a_j+b_j) — every integral completion induces an
//      x in {0,1}^flex, so the fractional optimum is a true lower bound
//      that dominates max(L_cpu, L_gpu, (L_cpu+L_gpu+R)/2).
//   2. Power-cap occupancy relaxation: the paper's occupancy argument,
//      specialized per partial placement. Placed jobs contribute their
//      device-specific occupancy, unplaced jobs their min-over-device
//      occupancy; half the sum bounds the makespan. Under a tight cap
//      co-runs become infeasible and occupancies collapse to twice the
//      solo time, which is exactly where the fractional relaxation is
//      weakest. Unlike the static bound, the per-partner candidate set
//      includes the floor frequency pair unconditionally: the governor
//      tolerates a cap violation at the floor rather than stalling, so a
//      leaf's evaluator may legally co-run a pair no feasible operating
//      point exists for, and the bound must not exceed that leaf.
//
// Pops restore snapshots instead of subtracting deltas, so a node's bound
// is a pure function of its path (no floating-point drift across sibling
// traversals) — required for deterministic pruning decisions.
#pragma once

#include <cstddef>
#include <vector>

#include "corun/common/units.hpp"
#include "corun/core/sched/plan_view.hpp"
#include "corun/core/sched/scheduler.hpp"

namespace corun::sched {

struct LowerBoundResult {
  Seconds t_low = 0.0;          ///< the paper's formula
  Seconds t_low_tight = 0.0;    ///< max(t_low, longest job's best time)
};

[[nodiscard]] LowerBoundResult compute_lower_bound(const SchedulerContext& ctx);

/// Occupancy of one job on one device: min(best co-run time, 2x best solo
/// time), plus the fastest single completion seen while computing it.
struct DeviceOccupancy {
  Seconds occupancy = 0.0;
  Seconds best_time = 0.0;
};

/// Effective occupancy l'_{i,p} of job `i` on device `p` (see file
/// comment). With `include_floor_pair` the per-partner co-run candidates
/// include the floor frequency pair even when it violates the cap — the
/// evaluator's last-resort operating point — which the search bound needs
/// for admissibility; `compute_lower_bound` keeps the paper's strict
/// cap-feasible set.
[[nodiscard]] DeviceOccupancy device_occupancy(const PlanView& view,
                                               std::size_t i,
                                               sim::DeviceKind p,
                                               bool include_floor_pair);

/// Immutable per-instance tables behind the search's incremental bound:
/// optimistic solo times, per-device occupancies, and per-depth suffix
/// structures for the fractional relaxation. Built once per plan() call;
/// the search walks it with a Cursor.
class IncrementalBound {
 public:
  /// `t_cpu`/`t_gpu` are the search's optimistic per-device solo times
  /// (infinity when the device is cap-infeasible for the job), indexed by
  /// batch position. Construction is O(n^2 * levels^2) — the same order as
  /// compute_lower_bound — and happens once; queries never touch the
  /// predictor again; the occupancies are read through the plan's view.
  IncrementalBound(const PlanView& view, std::vector<Seconds> t_cpu,
                   std::vector<Seconds> t_gpu);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// Mutable search-path state over the shared tables. push(job, device)
  /// commits the next placement (job must equal the current depth — the
  /// index-order branching discipline); pop() restores the previous state
  /// exactly (snapshot, not arithmetic undo).
  class Cursor {
   public:
    explicit Cursor(const IncrementalBound& model);

    void push(std::size_t job, sim::DeviceKind device);
    void pop();

    [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
    [[nodiscard]] sim::DeviceKind device_at(std::size_t job) const {
      return path_[job];
    }

    /// The load bound max(L_cpu, L_gpu, (L_cpu+L_gpu+R)/2): the floor of
    /// bound(), and the weakest admissible form the bound tests check it
    /// against.
    [[nodiscard]] Seconds load_bound() const;

    /// max(load_bound, fractional relaxation, occupancy/2, and — for
    /// small unplaced suffixes — the enumerated-completion term, the
    /// minimum over integral completions of the joint load/occupancy
    /// form). Admissible, never weaker than load_bound().
    [[nodiscard]] Seconds bound() const;

    // Aggregates, exposed for the push/pop consistency tests.
    [[nodiscard]] Seconds cpu_load() const noexcept { return cpu_load_; }
    [[nodiscard]] Seconds gpu_load() const noexcept { return gpu_load_; }
    [[nodiscard]] Seconds remaining() const noexcept { return remaining_; }
    [[nodiscard]] Seconds occupancy_sum() const noexcept { return occ_sum_; }

   private:
    struct Frame {
      Seconds cpu_load, gpu_load, remaining, occ_sum;
    };

    const IncrementalBound* model_;
    std::size_t depth_ = 0;
    Seconds cpu_load_ = 0.0;
    Seconds gpu_load_ = 0.0;
    Seconds remaining_ = 0.0;   ///< sum of unplaced jobs' best-device times
    Seconds occ_sum_ = 0.0;     ///< committed + unplaced occupancies
    std::vector<sim::DeviceKind> path_;
    std::vector<Frame> undo_;
  };

  [[nodiscard]] Cursor cursor() const { return Cursor(*this); }

 private:
  friend class Cursor;

  /// Per-depth suffix structures for the fractional relaxation. The
  /// unplaced set at depth d is always the index suffix [d, n), so every
  /// depth's forced loads and ratio-sorted flex prefix sums are
  /// precomputable.
  struct DepthInfo {
    Seconds forced_cpu = 0.0;   ///< suffix jobs feasible only on the CPU
    Seconds forced_gpu = 0.0;
    std::vector<Seconds> a;     ///< flex CPU times, sorted by a/(a+b)
    std::vector<Seconds> ab;    ///< matching a+b
    std::vector<Seconds> cum_a;  ///< inclusive prefix sums of `a`
    std::vector<Seconds> cum_ab;
  };

  std::size_t n_ = 0;
  std::vector<Seconds> t_cpu_;
  std::vector<Seconds> t_gpu_;
  std::vector<Seconds> occ_cpu_;  ///< device occupancy (inf when infeasible)
  std::vector<Seconds> occ_gpu_;
  std::vector<Seconds> occ_min_;
  std::vector<DepthInfo> depths_;  ///< size n+1
};

}  // namespace corun::sched
