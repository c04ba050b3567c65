#include "corun/core/sched/plan_cache/signature.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "corun/common/check.hpp"
#include "corun/common/csv.hpp"
#include "corun/core/model/corun_predictor.hpp"
#include "corun/profile/profile_db.hpp"

namespace corun::sched {

std::uint64_t job_profile_digest(const profile::ProfileDB& db,
                                 const std::string& job) {
  Fnv64 h;
  for (const sim::DeviceKind d :
       {sim::DeviceKind::kCpu, sim::DeviceKind::kGpu}) {
    const auto row = db.row(job, d);
    h.update_word(row.size());
    for (const auto& [level, e] : row) {
      h.update_word(static_cast<std::uint64_t>(level));
      h.update_double(e.time);
      h.update_double(e.avg_bw);
      h.update_double(e.avg_power);
      h.update_double(e.energy);
    }
  }
  return h.digest();
}

namespace {

void update_list(Fnv64& h, const std::vector<double>& values) {
  h.update_word(values.size());
  for (const double v : values) h.update_double(v);
}

std::uint64_t machine_digest(const sim::MachineConfig& config) {
  Fnv64 h;
  for (const sim::FrequencyLadder* ladder :
       {&config.cpu_ladder, &config.gpu_ladder}) {
    h.update_word(ladder->size());
    for (std::size_t i = 0; i < ladder->size(); ++i) {
      h.update_double(ladder->at(static_cast<sim::FreqLevel>(i)));
    }
  }
  h.update_word(static_cast<std::uint64_t>(config.cpu_cores));
  for (const double v :
       {config.mem_bw_freq_sensitivity, config.cs_overhead,
        config.cs_locality_penalty, config.llc_capacity_mb,
        config.llc_pressure_saturation_bw, config.power.uncore,
        config.memory.saturation_bw, config.memory.cpu_share_weight,
        config.memory.gpu_share_weight, config.memory.cpu_latency_alpha,
        config.memory.gpu_latency_alpha, config.memory.cpu_latency_gamma,
        config.memory.gpu_latency_gamma, config.memory.latency_base,
        config.memory.latency_self}) {
    h.update_double(v);
  }
  for (const auto& dev : {config.power.cpu, config.power.gpu}) {
    for (const double v : {dev.leakage, dev.idle, dev.dyn_max, dev.v_floor,
                           dev.stall_activity}) {
      h.update_double(v);
    }
  }
  return h.digest();
}

std::uint64_t grid_digest(const model::DegradationGrid& grid) {
  Fnv64 h;
  update_list(h, grid.cpu_axis);
  update_list(h, grid.gpu_axis);
  for (const auto* surface : {&grid.cpu_deg, &grid.gpu_deg}) {
    h.update_word(surface->size());
    for (const auto& row : *surface) update_list(h, row);
  }
  return h.digest();
}

}  // namespace

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

namespace {

/// Shared assembly tail of make_signature and SignatureBuilder::build:
/// the caller supplies the precomputed digest renderings; `job_hex(name)`
/// returns hex64 of that job's profile digest.
template <typename JobHexFn>
PlanSignature assemble_signature(const SchedulerContext& ctx,
                                 const std::string& scheduler_id,
                                 std::uint64_t seed,
                                 const std::string& machine_hex,
                                 const std::string& grid_hex,
                                 const std::string& idle_text,
                                 const JobHexFn& job_hex) {
  PlanSignature sig;
  std::vector<std::string> job_names = ctx.job_names();
  std::sort(job_names.begin(), job_names.end());

  std::ostringstream canonical;
  canonical << "v2;scheduler=" << scheduler_id << ";seed=" << seed
            << ";policy="
            << (ctx.policy == sim::GovernorPolicy::kCpuBiased ? "cpu" : "gpu")
            << ";machine=" << machine_hex << ";grid=" << grid_hex
            << ";idle=" << idle_text << ";cap="
            << (ctx.cap ? csv_double(*ctx.cap) : "none");
  for (const std::string& name : job_names) {
    canonical << ";job{" << name << "|" << job_hex(name) << "}";
  }
  sig.canonical = canonical.str();

  Fnv64 h;
  h.update(sig.canonical);
  sig.hash = h.digest();
  return sig;
}

}  // namespace

PlanSignature make_signature(const SchedulerContext& ctx,
                             const std::string& scheduler_id,
                             std::uint64_t seed) {
  const model::CoRunPredictor& m = ctx.model();
  const profile::ProfileDB& db = m.db();
  return assemble_signature(
      ctx, scheduler_id, seed, hex64(machine_digest(m.machine())),
      hex64(grid_digest(m.interpolator().grid())),
      csv_double(db.idle_power()),
      [&db](const std::string& name) {
        return hex64(job_profile_digest(db, name));
      });
}

SignatureBuilder::SignatureBuilder(const model::CoRunPredictor& predictor)
    : predictor_(&predictor),
      machine_hex_(hex64(machine_digest(predictor.machine()))),
      grid_hex_(hex64(grid_digest(predictor.interpolator().grid()))),
      idle_text_(csv_double(predictor.db().idle_power())) {
  for (const std::string& job : predictor.db().jobs()) {
    job_digest_hex_[job] = hex64(job_profile_digest(predictor.db(), job));
  }
}

PlanSignature SignatureBuilder::build(const SchedulerContext& ctx,
                                      const std::string& scheduler_id,
                                      std::uint64_t seed) const {
  CORUN_CHECK_MSG(ctx.predictor == predictor_,
                  "SignatureBuilder used with a different predictor than it "
                  "was built from");
  return assemble_signature(
      ctx, scheduler_id, seed, machine_hex_, grid_hex_, idle_text_,
      [this](const std::string& name) -> const std::string& {
        const auto it = job_digest_hex_.find(name);
        CORUN_CHECK_MSG(it != job_digest_hex_.end(),
                        "SignatureBuilder: job '" + name +
                            "' has no profile rows in the builder's db");
        return it->second;
      });
}

}  // namespace corun::sched
