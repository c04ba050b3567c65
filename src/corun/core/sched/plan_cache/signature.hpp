// Canonical signatures of scheduling requests, the key space of the plan
// cache.
//
// A scheduling request is fully determined by: the scheduler (registry id,
// seed), the planning inputs it may consult through SchedulerContext (job
// set with their standalone profiles, power cap, governor policy), and the
// model artifacts behind the predictor (machine configuration with both
// frequency ladders, degradation grid, idle power). The signature folds all
// of that into one canonical string:
//
//   - order-invariant: per-job blocks are sorted by instance name, so the
//     same job set submitted in any batch order maps to one cache line
//     (cached schedules reference jobs by name and are remapped to the
//     requesting batch's indices on a hit);
//   - content-addressed: profile rows, grid cells, ladder frequencies and
//     the machine's model parameters are digested as the bit patterns of
//     their doubles (each a fixed-width little-endian word, each list led
//     by its length), so any profile-db drift (e.g. a noise event) or
//     re-characterization changes the signature and invalidates stale
//     entries instead of serving them. The cap and the idle power appear
//     in the canonical string as %.17g text; both encodings tell apart
//     every pair of distinct values;
//   - two granularities: `canonical` identifies the exact request, while
//     `family` drops the cap and the job set — entries of one family are
//     re-plans of the same scheduler over the same model artifacts, and the
//     cache keeps them in one shard;
//   - versioned: both strings start with the encoding's tag (`v2;`). Any
//     change to how a digest is computed must bump it, so that an entry
//     persisted under another encoding never matches a request.
#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <string>

#include "corun/core/sched/scheduler.hpp"

namespace corun::sched {

/// 64-bit FNV-1a, the digest used throughout the signature scheme. Stable
/// across platforms and runs (no seeding), so persistent-tier file names
/// are reproducible.
class Fnv64 {
 public:
  void update(const std::string& bytes) noexcept {
    for (const char c : bytes) mix(static_cast<unsigned char>(c));
  }
  /// Folds `v` in as eight little-endian bytes, whatever the host order.
  void update_word(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) mix((v >> (8 * i)) & 0xffU);
  }
  /// A double's IEEE-754 bit pattern as one word: distinct bits (-0.0 and
  /// 0.0 included) always feed distinct input.
  void update_double(double v) noexcept {
    update_word(std::bit_cast<std::uint64_t>(v));
  }
  [[nodiscard]] std::uint64_t digest() const noexcept { return hash_; }

 private:
  void mix(std::uint64_t byte) noexcept {
    hash_ ^= byte;
    hash_ *= 0x100000001b3ULL;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Lower-case hex rendering of a 64-bit digest, the persistent-tier file
/// stem.
[[nodiscard]] std::string hex64(std::uint64_t v);

/// Digest of every profile row recorded for one job: the part of the
/// predictor's state that is specific to that job. Times, bandwidths,
/// powers and energies all feed scheduling decisions, so all four fields
/// participate. Keys cache signatures only: branch-and-bound finds
/// profile-identical jobs by comparing their rows exactly, which needs no
/// argument that distinct rows never share a 64-bit digest.
[[nodiscard]] std::uint64_t job_profile_digest(const profile::ProfileDB& db,
                                               const std::string& job);

struct PlanSignature {
  std::string canonical;  ///< exact request identity
  std::string family;     ///< canonical minus cap + job set (shard key)
  std::uint64_t hash = 0;        ///< FNV-1a of `canonical`
  std::uint64_t family_hash = 0; ///< FNV-1a of `family`
};

/// Builds the signature of one request. `scheduler_id` is the registry name
/// ("bnb", "hcs+", ...) and `seed` the value it was constructed with; both
/// are part of the identity because they select the algorithm.
[[nodiscard]] PlanSignature make_signature(const SchedulerContext& ctx,
                                           const std::string& scheduler_id,
                                           std::uint64_t seed);

/// Amortized signature construction for long-lived processes (the serving
/// daemon): the machine, grid, and idle-power digests — and each job's
/// profile digest — are pure functions of the predictor's immutable
/// artifacts, so they are computed once here and reused per request.
/// `build()` produces signatures byte-identical to `make_signature` over
/// the same predictor; the per-request cost drops to string assembly.
///
/// The builder is immutable after construction and safe to share across
/// threads. It must only be used with contexts whose predictor is the one
/// it was built from (checked), because the cached digests would otherwise
/// alias a different model's identity.
class SignatureBuilder {
 public:
  explicit SignatureBuilder(const model::CoRunPredictor& predictor);

  [[nodiscard]] PlanSignature build(const SchedulerContext& ctx,
                                    const std::string& scheduler_id,
                                    std::uint64_t seed) const;

  [[nodiscard]] const model::CoRunPredictor& predictor() const noexcept {
    return *predictor_;
  }

 private:
  const model::CoRunPredictor* predictor_;
  std::string machine_hex_;  ///< hex64(machine_digest)
  std::string grid_hex_;     ///< hex64(grid_digest)
  std::string idle_text_;    ///< csv_double(idle_power)
  std::map<std::string, std::string> job_digest_hex_;  ///< name -> hex64
};

}  // namespace corun::sched
