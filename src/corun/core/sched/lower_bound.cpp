#include "corun/core/sched/lower_bound.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "corun/common/check.hpp"

namespace corun::sched {

namespace {

constexpr Seconds kInf = std::numeric_limits<Seconds>::infinity();

/// One-sided rounding guard for the closed-form bound terms: a few ulps of
/// accumulated rounding must never push an admissible bound above a leaf it
/// ties, so those terms are shrunk by 1e-12 relative before entering the
/// strict `bound > incumbent` pruning test. The load bound, a plain sum of
/// the optimistic times, is left untouched.
constexpr double kRoundingGuard = 1.0 - 1e-12;

}  // namespace

DeviceOccupancy device_occupancy(const PlanView& view, std::size_t i,
                                 sim::DeviceKind p, bool include_floor_pair) {
  const std::size_t n = view.size();

  DeviceOccupancy out{kInf, kInf};

  // (b) twice the best standalone time on p under the cap.
  Seconds solo_occupancy = kInf;
  if (view.best_solo_level(i, p)) {
    const Seconds t = view.best_solo_time(i, p);
    solo_occupancy = 2.0 * t;
    out.best_time = std::min(out.best_time, t);
  }

  // (a) best co-run time with the least interfering partner, over all
  // partners and frequency pairs. The candidate set is the cap-feasible
  // pairs, plus — when `include_floor_pair` — the floor pair, which the
  // reactive governor falls back to (tolerating the violation) when no
  // feasible pair exists, so leaves may legally run at it. The per-partner
  // scan goes through the view's memoized min (min over doubles is
  // order-independent, so the value matches the inline scan bit-for-bit).
  Seconds corun_occupancy = kInf;
  for (std::size_t j = 0; j < n; ++j) {
    if (j == i) continue;
    const Seconds t = view.min_corun_time(i, p, j, include_floor_pair);
    corun_occupancy = std::min(corun_occupancy, t);
    out.best_time = std::min(out.best_time, t);
  }

  out.occupancy = std::min(corun_occupancy, solo_occupancy);
  return out;
}

LowerBoundResult compute_lower_bound(const SchedulerContext& ctx) {
  const PlanView view(ctx);
  const std::size_t n = view.size();

  LowerBoundResult out;
  Seconds sum = 0.0;
  Seconds longest_best = 0.0;

  for (std::size_t i = 0; i < n; ++i) {
    Seconds best_occupancy = kInf;
    Seconds best_time = kInf;
    for (const sim::DeviceKind p :
         {sim::DeviceKind::kCpu, sim::DeviceKind::kGpu}) {
      const DeviceOccupancy d =
          device_occupancy(view, i, p, /*include_floor_pair=*/false);
      best_occupancy = std::min(best_occupancy, d.occupancy);
      best_time = std::min(best_time, d.best_time);
    }

    CORUN_CHECK_MSG(best_occupancy < kInf,
                    "job " + ctx.job_name(i) + " has no cap-feasible execution");
    sum += best_occupancy;
    longest_best = std::max(longest_best, best_time);
  }

  out.t_low = sum / 2.0;
  out.t_low_tight = std::max(out.t_low, longest_best);
  return out;
}

IncrementalBound::IncrementalBound(const PlanView& view,
                                   std::vector<Seconds> t_cpu,
                                   std::vector<Seconds> t_gpu)
    : n_(t_cpu.size()), t_cpu_(std::move(t_cpu)), t_gpu_(std::move(t_gpu)) {
  CORUN_CHECK(t_gpu_.size() == n_ && view.size() == n_);

  // Device occupancies. A cap-infeasible device stays at infinity: the
  // search's leaf space never places the job there, so it must not lower
  // the job's min-over-device occupancy.
  occ_cpu_.assign(n_, kInf);
  occ_gpu_.assign(n_, kInf);
  occ_min_.assign(n_, kInf);
  for (std::size_t i = 0; i < n_; ++i) {
    if (t_cpu_[i] < 1e18) {
      occ_cpu_[i] = device_occupancy(view, i, sim::DeviceKind::kCpu,
                                     /*include_floor_pair=*/true)
                        .occupancy;
    }
    if (t_gpu_[i] < 1e18) {
      occ_gpu_[i] = device_occupancy(view, i, sim::DeviceKind::kGpu,
                                     /*include_floor_pair=*/true)
                        .occupancy;
    }
    occ_min_[i] = std::min(occ_cpu_[i], occ_gpu_[i]);
    CORUN_CHECK_MSG(occ_min_[i] < kInf, "job " + view.ctx().job_name(i) +
                                            " infeasible on both devices");
  }

  // Per-depth suffix structures for the fractional relaxation. n is capped
  // by the search's job limit, so the O(n^2 log n) build is noise next to
  // the occupancy scan above.
  depths_.resize(n_ + 1);
  for (std::size_t d = 0; d <= n_; ++d) {
    DepthInfo& info = depths_[d];
    struct Flex {
      double ratio;
      std::size_t index;
      Seconds a, b;
    };
    std::vector<Flex> flex;
    for (std::size_t j = d; j < n_; ++j) {
      const bool cpu_ok = t_cpu_[j] < 1e18;
      const bool gpu_ok = t_gpu_[j] < 1e18;
      if (cpu_ok && gpu_ok) {
        flex.push_back(
            {t_cpu_[j] / (t_cpu_[j] + t_gpu_[j]), j, t_cpu_[j], t_gpu_[j]});
      } else if (cpu_ok) {
        info.forced_cpu += t_cpu_[j];
      } else {
        info.forced_gpu += t_gpu_[j];
      }
    }
    // Ascending CPU share: the greedy fractional fill takes the cheapest
    // CPU seconds per unit of combined work first. Index tie-break keeps
    // the order (and therefore the bound's exact value) deterministic.
    std::sort(flex.begin(), flex.end(), [](const Flex& x, const Flex& y) {
      return x.ratio != y.ratio ? x.ratio < y.ratio : x.index < y.index;
    });
    Seconds run_a = 0.0;
    Seconds run_ab = 0.0;
    for (const Flex& f : flex) {
      info.a.push_back(f.a);
      info.ab.push_back(f.a + f.b);
      run_a += f.a;
      run_ab += f.a + f.b;
      info.cum_a.push_back(run_a);
      info.cum_ab.push_back(run_ab);
    }
  }
}

IncrementalBound::Cursor::Cursor(const IncrementalBound& model)
    : model_(&model) {
  path_.assign(model.n_, sim::DeviceKind::kCpu);
  undo_.reserve(model.n_);
  for (std::size_t i = 0; i < model.n_; ++i) {
    remaining_ += std::min(model.t_cpu_[i], model.t_gpu_[i]);
  }
  for (std::size_t i = 0; i < model.n_; ++i) occ_sum_ += model.occ_min_[i];
}

void IncrementalBound::Cursor::push(std::size_t job, sim::DeviceKind device) {
  CORUN_CHECK_MSG(job == depth_, "placements must follow index order");
  undo_.push_back({cpu_load_, gpu_load_, remaining_, occ_sum_});
  if (device == sim::DeviceKind::kCpu) {
    cpu_load_ += model_->t_cpu_[job];
    occ_sum_ += model_->occ_cpu_[job] - model_->occ_min_[job];
  } else {
    gpu_load_ += model_->t_gpu_[job];
    occ_sum_ += model_->occ_gpu_[job] - model_->occ_min_[job];
  }
  remaining_ -= std::min(model_->t_cpu_[job], model_->t_gpu_[job]);
  path_[job] = device;
  ++depth_;
}

void IncrementalBound::Cursor::pop() {
  CORUN_CHECK_MSG(depth_ > 0, "pop on an empty search path");
  const Frame f = undo_.back();
  undo_.pop_back();
  cpu_load_ = f.cpu_load;
  gpu_load_ = f.gpu_load;
  remaining_ = f.remaining;
  occ_sum_ = f.occ_sum;
  --depth_;
}

Seconds IncrementalBound::Cursor::load_bound() const {
  return std::max(
      {cpu_load_, gpu_load_, (cpu_load_ + gpu_load_ + remaining_) / 2.0});
}

Seconds IncrementalBound::Cursor::bound() const {
  const std::size_t n = model_->n_;
  const std::size_t suffix = n - depth_;

  // Enumerated-completion term: with few unplaced jobs the integral
  // completions can be walked outright, closing the fractional gap and
  // coupling the load and occupancy relaxations per completion. Each
  // candidate is an admissible per-leaf bound (optimistic device sums,
  // device-specific occupancies), so the minimum over every reachable
  // completion is an admissible node bound. O(2^k * k) arithmetic on
  // doubles — no predictor calls — and k is small exactly where the
  // search spends its nodes (the bottom levels of the tree).
  constexpr std::size_t kEnumLimit = 6;
  Seconds enumerated = kInf;
  if (suffix <= kEnumLimit) {
    const std::uint32_t combos = 1u << suffix;
    for (std::uint32_t mask = 0; mask < combos; ++mask) {
      Seconds c = cpu_load_;
      Seconds g = gpu_load_;
      Seconds occ = occ_sum_;
      bool feasible = true;
      for (std::size_t j = 0; j < suffix; ++j) {
        const std::size_t job = depth_ + j;
        if ((mask >> j) & 1u) {
          if (model_->t_gpu_[job] >= 1e18) {
            feasible = false;
            break;
          }
          g += model_->t_gpu_[job];
          occ += model_->occ_gpu_[job] - model_->occ_min_[job];
        } else {
          if (model_->t_cpu_[job] >= 1e18) {
            feasible = false;
            break;
          }
          c += model_->t_cpu_[job];
          occ += model_->occ_cpu_[job] - model_->occ_min_[job];
        }
      }
      if (!feasible) continue;
      enumerated = std::min(enumerated, std::max({c, g, occ * 0.5}));
    }
  }

  const DepthInfo& info = model_->depths_[depth_];
  const Seconds a_base = cpu_load_ + info.forced_cpu;
  const Seconds b_base = gpu_load_ + info.forced_gpu;

  Seconds frac;
  if (info.a.empty()) {
    frac = std::max(a_base, b_base);
  } else {
    const Seconds s_a = info.cum_a.back();
    const Seconds s_ab = info.cum_ab.back();
    const Seconds s_b = s_ab - s_a;
    if (a_base >= b_base + s_b) {
      // Even all-flex-on-GPU leaves the CPU later; its load is the floor.
      frac = a_base;
    } else if (b_base >= a_base + s_a) {
      frac = b_base;
    } else {
      // Interior optimum: both devices finish together. The equalizing
      // constraint sum x_j (a_j + b_j) = C is filled greedily in ratio
      // order; the crossing item runs fractionally.
      const Seconds c = b_base + s_b - a_base;
      std::size_t k = static_cast<std::size_t>(
          std::lower_bound(info.cum_ab.begin(), info.cum_ab.end(), c) -
          info.cum_ab.begin());
      if (k >= info.a.size()) k = info.a.size() - 1;
      const Seconds prev_a = k == 0 ? 0.0 : info.cum_a[k - 1];
      const Seconds prev_ab = k == 0 ? 0.0 : info.cum_ab[k - 1];
      const double x =
          std::clamp((c - prev_ab) / info.ab[k], 0.0, 1.0);
      frac = a_base + prev_a + x * info.a[k];
    }
  }

  Seconds strong = std::max({load_bound(), frac * kRoundingGuard,
                             occ_sum_ * 0.5 * kRoundingGuard});
  if (enumerated < kInf) {
    strong = std::max(strong, enumerated * kRoundingGuard);
  }
  return strong;
}

}  // namespace corun::sched
