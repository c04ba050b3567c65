#include "corun/core/sched/branch_and_bound.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <numeric>

#include "corun/common/check.hpp"
#include "corun/common/task_pool.hpp"
#include "corun/common/trace/trace.hpp"
#include "corun/core/sched/lower_bound.hpp"
#include "corun/core/sched/makespan_evaluator.hpp"
#include "corun/core/sched/plan_cache/signature.hpp"
#include "corun/core/sched/refiner.hpp"

namespace corun::sched {
namespace {

struct SearchState {
  std::vector<std::size_t> cpu;
  std::vector<std::size_t> gpu;
  std::vector<bool> placed;
  Seconds cpu_load = 0.0;  ///< optimistic time already committed to the CPU
  Seconds gpu_load = 0.0;
  Seconds remaining = 0.0; ///< sum of unplaced jobs' best-device times
};

/// Lock-free monotone minimum for the shared incumbent bound. Returns true
/// when `value` strictly improved the target (an incumbent update).
bool atomic_min(std::atomic<double>& target, double value) {
  double observed = target.load();
  while (value < observed) {
    if (target.compare_exchange_weak(observed, value)) return true;
  }
  return false;
}

}  // namespace

BranchAndBoundScheduler::BranchAndBoundScheduler(BranchAndBoundOptions options)
    : options_(options) {}

Schedule BranchAndBoundScheduler::plan(const SchedulerContext& ctx) {
  CORUN_TRACE_SPAN("sched", "bnb.plan");
  const std::size_t n = ctx.jobs().size();
  CORUN_CHECK_MSG(n <= options_.max_jobs,
                  "branch-and-bound limited to " +
                      std::to_string(options_.max_jobs) + " jobs");
  const model::CoRunPredictor& m = ctx.model();
  const MakespanEvaluator evaluator(ctx);

  // Optimistic per-device times: best cap-feasible level, no degradation.
  std::vector<Seconds> t_cpu(n, std::numeric_limits<Seconds>::infinity());
  std::vector<Seconds> t_gpu(n, std::numeric_limits<Seconds>::infinity());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& name = ctx.job_name(i);
    if (const auto l = m.best_solo_level(name, sim::DeviceKind::kCpu, ctx.cap)) {
      t_cpu[i] = m.standalone_time(name, sim::DeviceKind::kCpu, *l);
    }
    if (const auto l = m.best_solo_level(name, sim::DeviceKind::kGpu, ctx.cap)) {
      t_gpu[i] = m.standalone_time(name, sim::DeviceKind::kGpu, *l);
    }
    CORUN_CHECK_MSG(t_cpu[i] < 1e18 || t_gpu[i] < 1e18,
                    "job " + name + " infeasible on both devices");
  }

  // The incremental bound model shared (read-only) by all subtree tasks.
  // Built even when `strong_bound` is off: the cursor also maintains the
  // historical load accounting, so both modes walk the same machinery and
  // differ only in which bound function the pruning test calls.
  const IncrementalBound bound_model(ctx, t_cpu, t_gpu);

  // Job-class identities for equivalence dominance: equal profile digests
  // mean the predictor — and with it the makespan evaluator — cannot
  // distinguish the two jobs. Interchangeability is scoped to *maximal
  // same-class index runs* (consecutive jobs with equal digests): the
  // evaluator consumes each device's jobs in index order, so swapping two
  // same-class jobs with a different-class job between them would reorder
  // a device's row sequence and can change the makespan. Within a run
  // every affected row is identical, so permuting devices across run
  // members leaves both row sequences — and therefore the evaluated
  // makespan — bit-identical.
  std::vector<std::uint32_t> run_id(n, 0);
  std::size_t num_runs = n;
  bool has_clones = false;
  if (options_.dominance && n > 0) {
    std::vector<std::uint64_t> digest(n);
    for (std::size_t i = 0; i < n; ++i) {
      digest[i] = job_profile_digest(m.db(), ctx.job_name(i));
    }
    std::uint32_t next = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (digest[i] != digest[i - 1]) {
        ++next;
      } else {
        has_clones = true;
      }
      run_id[i] = next;
    }
    num_runs = next + 1;
  }

  // Incumbent: the heuristic solution (also what we return if the budget
  // runs out before anything better turns up).
  HcsPlusScheduler seed;
  Schedule best_schedule = seed.plan(ctx);
  Seconds seed_makespan = evaluator.makespan(best_schedule);

  auto leaf_schedule = [&](const SearchState& s) {
    Schedule schedule;
    schedule.model_dvfs = true;
    for (const std::size_t job : s.cpu) {
      schedule.cpu.push_back(
          {job, m.best_solo_level(ctx.job_name(job), sim::DeviceKind::kCpu,
                                  ctx.cap)
                    .value_or(0)});
    }
    for (const std::size_t job : s.gpu) {
      schedule.gpu.push_back(
          {job, m.best_solo_level(ctx.job_name(job), sim::DeviceKind::kGpu,
                                  ctx.cap)
                    .value_or(0)});
    }
    return schedule;
  };

  // Leaf schedule straight off a full cursor path. Placements were pushed
  // in index order, so appending per device in job-index order produces
  // exactly the sequences the SearchState form builds.
  auto cursor_leaf_schedule = [&](const IncrementalBound::Cursor& cur) {
    Schedule schedule;
    schedule.model_dvfs = true;
    for (std::size_t job = 0; job < n; ++job) {
      const sim::DeviceKind d = cur.device_at(job);
      auto& sequence =
          d == sim::DeviceKind::kCpu ? schedule.cpu : schedule.gpu;
      sequence.push_back(
          {job, m.best_solo_level(ctx.job_name(job), d, ctx.cap).value_or(0)});
    }
    return schedule;
  };

  // Admissible load bound on any completion of a partial placement — the
  // historical bound, used verbatim during the breadth-first fan-out.
  auto bound = [&](const SearchState& s) {
    return std::max({s.cpu_load, s.gpu_load,
                     (s.cpu_load + s.gpu_load + s.remaining) / 2.0});
  };

  // Children of a state: the first unplaced job on each feasible device.
  // Branching on the first unplaced job only enumerates every *placement*
  // (2^n assignments) exactly once, with per-device order fixed to index
  // order; order is polished by local refinement at the end — placement
  // dominates the makespan, order is a local matter. GPU-first child order
  // tends to find good incumbents early for this GPU-leaning suite.
  auto expand = [&](const SearchState& s, auto&& emit) {
    for (std::size_t job = 0; job < n; ++job) {
      if (s.placed[job]) continue;
      if (t_cpu[job] < 1e18) {
        SearchState next = s;
        next.placed[job] = true;
        next.cpu.push_back(job);
        next.cpu_load += t_cpu[job];
        next.remaining -= std::min(t_cpu[job], t_gpu[job]);
        emit(std::move(next));
      }
      if (t_gpu[job] < 1e18) {
        SearchState next = s;
        next.placed[job] = true;
        next.gpu.push_back(job);
        next.gpu_load += t_gpu[job];
        next.remaining -= std::min(t_cpu[job], t_gpu[job]);
        emit(std::move(next));
      }
      break;
    }
  };

  SearchState root;
  root.placed.assign(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    root.remaining += std::min(t_cpu[i], t_gpu[i]);
  }

  // Shared search telemetry. The incumbent *value* is shared across
  // subtree tasks so every task prunes against the best schedule found
  // anywhere; incumbent *schedules* stay task-local and are reduced in
  // frontier order below, which keeps the returned plan deterministic (the
  // strict `bound > incumbent` pruning test can never cut a subtree's path
  // to its own minimum when that minimum ties the global one).
  std::atomic<double> incumbent{seed_makespan};
  std::atomic<std::size_t> nodes{0};
  std::atomic<std::size_t> bound_prunes{0};
  std::atomic<std::size_t> dominance_prunes{0};
  std::atomic<std::size_t> leaves{0};
  std::atomic<std::size_t> incumbent_updates{0};
  std::atomic<bool> budget_exhausted{false};

  // Breadth-first root expansion into a frontier of independent subtrees —
  // the top-level fan-out. The target is a constant (not the worker count)
  // so the frontier — and therefore tie-breaking between equal-makespan
  // leaves — is identical for every --jobs setting. The fan-out runs the
  // historical bound with neither strong pruning rule: the frontier
  // decomposition fixes the deterministic reduction order across subtrees,
  // and the BFS queue visits the CPU child first — the opposite of the
  // depth-first order the dominance canonical form is defined against — so
  // both rules are confined to the subtree searches, where their
  // first-found-twin argument actually holds.
  constexpr std::size_t fanout_target = 32;
  std::deque<SearchState> frontier{root};
  std::vector<std::pair<Seconds, Schedule>> early;  // leaves met while fanning
  while (!frontier.empty() && frontier.size() < fanout_target) {
    if (nodes.load() >= options_.node_budget) {
      budget_exhausted.store(true);
      break;
    }
    const SearchState s = std::move(frontier.front());
    frontier.pop_front();
    ++nodes;
    if (s.cpu.size() + s.gpu.size() == n) {
      ++leaves;
      Schedule candidate = leaf_schedule(s);
      const Seconds makespan = evaluator.makespan(candidate);
      early.emplace_back(makespan, std::move(candidate));
      if (atomic_min(incumbent, makespan)) ++incumbent_updates;
      continue;
    }
    if (bound(s) > incumbent.load()) {
      ++bound_prunes;
      continue;
    }
    expand(s, [&](SearchState next) { frontier.push_back(std::move(next)); });
  }

  // Depth-first search of one subtree over an incremental path cursor;
  // returns the subtree's best leaf. The recursion visits the GPU child
  // first, then the CPU child — exactly the order the historical explicit
  // stack (CPU pushed first, LIFO) visited them — so with both pruning
  // toggles off the node/leaf sequence is bit-identical to the old search.
  // A node is counted when entered, after the budget check, matching the
  // old check-before-pop accounting; a false return aborts the subtree on
  // budget exhaustion (the local best found so far still participates in
  // the reduction, like the old loop break).
  // Replay a fan-out prefix into a cursor, in index order — the same order
  // the BFS accumulated the loads, so the arithmetic (and with it every
  // bound value derived from it) is bit-identical to the SearchState chain.
  auto replay_prefix = [&](const SearchState& subtree_root,
                           IncrementalBound::Cursor& cur) {
    const std::size_t entry_depth =
        subtree_root.cpu.size() + subtree_root.gpu.size();
    std::vector<sim::DeviceKind> prefix(entry_depth, sim::DeviceKind::kCpu);
    for (const std::size_t job : subtree_root.gpu) {
      prefix[job] = sim::DeviceKind::kGpu;
    }
    for (std::size_t job = 0; job < entry_depth; ++job) {
      cur.push(job, prefix[job]);
    }
    return entry_depth;
  };

  auto search_subtree = [&](const SearchState& subtree_root) {
    std::pair<Seconds, Schedule> local{
        std::numeric_limits<Seconds>::infinity(), Schedule{}};
    IncrementalBound::Cursor cur = bound_model.cursor();
    const std::size_t entry_depth = replay_prefix(subtree_root, cur);

    // Root gate: a subtree whose root bound already exceeds the incumbent
    // contains only strictly worse leaves — skip it without entering (no
    // node is visited; the historical mode keeps its pop-then-check
    // accounting below).
    if (options_.strong_bound && cur.bound() > incumbent.load()) {
      ++bound_prunes;
      return local;
    }

    // Per-run count of jobs this subtree has placed on the CPU, for the
    // equivalence dominance test. Counting starts at the subtree entry:
    // prefix placements are shared by every subtree and are not swappable
    // within one (cross-subtree equivalence is folded at the frontier
    // instead, see below).
    std::vector<std::uint32_t> cpu_in_run(num_runs, 0);

    auto visit = [&](auto&& self) -> bool {
      if (nodes.load() >= options_.node_budget) {
        budget_exhausted.store(true);
        return false;
      }
      ++nodes;
      const std::size_t depth = cur.depth();
      if (depth == n) {
        ++leaves;
        Schedule candidate = cursor_leaf_schedule(cur);
        const Seconds makespan = evaluator.makespan(candidate);
        if (makespan < local.first) {
          local = {makespan, std::move(candidate)};
          if (atomic_min(incumbent, makespan)) ++incumbent_updates;
        }
        return true;
      }
      const Seconds node_bound =
          options_.strong_bound ? cur.bound() : cur.load_bound();
      if (node_bound > incumbent.load()) {
        ++bound_prunes;
        return true;
      }
      const std::size_t job = depth;  // branch on the first unplaced job
      if (t_gpu[job] < 1e18) {
        // Equivalence dominance: when an earlier member of this job's
        // same-class run already sits on the CPU (placed within this
        // subtree), placing this job on the GPU builds a device-swap twin
        // of a placement already explored (that earlier member on GPU,
        // this job on CPU): the canonical member of the orbit — all GPU
        // placements at the earliest run indices — is lexicographically
        // first under the GPU-first child order, so it is visited before
        // every twin it covers. Equal digests mean identical profile
        // rows, hence identical feasible devices, so the canonical twin
        // always exists in leaf space (t_cpu[job] stays as a guard). The
        // skipped subtree is never entered, so it leaves no trace in the
        // node count — only in dominance_prunes.
        const bool dominated = options_.dominance &&
                               cpu_in_run[run_id[job]] > 0 &&
                               t_cpu[job] < 1e18;
        if (dominated) {
          ++dominance_prunes;
        } else {
          cur.push(job, sim::DeviceKind::kGpu);
          const bool keep_going = self(self);
          cur.pop();
          if (!keep_going) return false;
        }
      }
      if (t_cpu[job] < 1e18) {
        cur.push(job, sim::DeviceKind::kCpu);
        if (options_.dominance) ++cpu_in_run[run_id[job]];
        const bool keep_going = self(self);
        if (options_.dominance) --cpu_in_run[run_id[job]];
        cur.pop();
        if (!keep_going) return false;
      }
      return true;
    };
    visit(visit);
    return local;
  };

  std::vector<std::pair<Seconds, Schedule>> subtree_best(
      frontier.size(),
      {std::numeric_limits<Seconds>::infinity(), Schedule{}});
  std::vector<SearchState> roots(frontier.begin(), frontier.end());

  // Cross-subtree equivalence fold. Two frontier roots at the same depth
  // whose prefixes place, run by run, the same number of jobs on the CPU
  // are within-run device permutations of each other: their leaf sets pair
  // up bijectively with bit-identical makespans (within a run all profile
  // rows are equal, so each device's row sequence is unchanged; suffix
  // placements carry over verbatim). The earlier root's subtree therefore
  // covers the later one's minimum exactly, and under the strict-improve
  // reduction the later subtree can never win — only the first root of
  // each orbit is searched. This is where clone-heavy batches collapse:
  // tied leaves defeat strict bound pruning, but ties are exactly what the
  // canonical form folds away. Never fires when every job is its own run.
  std::vector<bool> covered(roots.size(), false);
  if (options_.dominance && has_clones) {
    std::map<std::vector<std::uint32_t>, std::size_t> orbit_first;
    for (std::size_t i = 0; i < roots.size(); ++i) {
      std::vector<std::uint32_t> key;
      key.reserve(1 + num_runs);
      key.push_back(static_cast<std::uint32_t>(roots[i].cpu.size() +
                                               roots[i].gpu.size()));
      key.resize(1 + num_runs, 0);
      for (const std::size_t job : roots[i].cpu) ++key[1 + run_id[job]];
      const auto [it, inserted] = orbit_first.emplace(std::move(key), i);
      if (!inserted) {
        covered[i] = true;
        ++dominance_prunes;
      }
    }
  }

  // Execution order: most promising subtree (smallest root bound) first,
  // so the incumbent reaches the optimum early and the root gate above
  // skips the rest outright. Only the *execution* order changes — results
  // land in frontier-order slots and the reduction below walks those
  // slots, so tie-breaking between equal-makespan leaves is untouched
  // (the same invariant that makes parallel interleaving safe). The
  // historical mode keeps frontier execution order for bit-identical node
  // accounting.
  std::vector<std::size_t> order;
  order.reserve(roots.size());
  for (std::size_t i = 0; i < roots.size(); ++i) {
    if (!covered[i]) order.push_back(i);
  }
  if (options_.strong_bound) {
    std::vector<Seconds> root_bound(roots.size());
    for (const std::size_t i : order) {
      IncrementalBound::Cursor cur = bound_model.cursor();
      replay_prefix(roots[i], cur);
      root_bound[i] = cur.bound();
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return root_bound[a] < root_bound[b];
                     });
  }
  common::TaskPool::shared().parallel_for_index(
      order.size(), [&](std::size_t k) {
        const std::size_t i = order[k];
        subtree_best[i] = search_subtree(roots[i]);
      });

  // Deterministic reduction: the HCS+ seed first, then leaves met during
  // fan-out, then subtrees in frontier order — strict improvement only,
  // matching the serial search's first-found tie-breaking.
  Seconds best = seed_makespan;
  for (auto& group : {std::ref(early), std::ref(subtree_best)}) {
    for (auto& [makespan, schedule] : group.get()) {
      if (makespan < best) {
        best = makespan;
        best_schedule = std::move(schedule);
      }
    }
  }

  nodes_ = nodes.load();
  bound_prunes_ = bound_prunes.load();
  dominance_prunes_ = dominance_prunes.load();
  pruned_ = bound_prunes_ + dominance_prunes_;
  leaves_ = leaves.load();
  incumbent_updates_ = incumbent_updates.load();
  budget_exhausted_ = budget_exhausted.load();
  CORUN_TRACE_COUNTER("bnb.nodes", nodes_);
  CORUN_TRACE_COUNTER("bnb.pruned", pruned_);
  CORUN_TRACE_COUNTER("bnb.bound_prunes", bound_prunes_);
  CORUN_TRACE_COUNTER("bnb.dominance_prunes", dominance_prunes_);
  CORUN_TRACE_COUNTER("bnb.leaves", leaves_);
  CORUN_TRACE_COUNTER("bnb.incumbent_updates", incumbent_updates_);
  if (budget_exhausted_) CORUN_TRACE_COUNTER("bnb.budget_exhausted", 1);

  // Polish the winning placement's per-device order.
  const Refiner refiner;
  Schedule refined = refiner.refine(ctx, best_schedule);
  if (evaluator.makespan(refined) < best) {
    best_schedule = std::move(refined);
  }

  best_schedule.validate(n);
  return best_schedule;
}

}  // namespace corun::sched
