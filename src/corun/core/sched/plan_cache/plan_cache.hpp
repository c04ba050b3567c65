// Memoized plan cache: deterministic reuse of scheduling results.
//
// The cache maps a request's canonical signature (signature.hpp) to the
// schedule that request produced, stored in the by-name CSV form so a hit
// can be remapped onto any batch ordering of the same job set. Two tiers:
//
//   - an in-memory LRU tier (always on), **sharded by signature family**:
//     the family hash selects one of `shards` independent shards, each with
//     its own mutex, LRU list, index, and atomic counters, so concurrent
//     requests from a serving loop only contend when they share a family.
//     Each shard holds up to `capacity` entries before evicting, least
//     recently touched first; eviction order within a shard is strictly
//     deterministic because it depends only on that shard's own operation
//     sequence, never on cross-shard interleaving;
//   - an optional persistent tier: one CSV file per entry under `dir`,
//     named by the 64-bit FNV-1a of the canonical signature and carrying
//     the full signature for verification, so a hash collision or a stale
//     artifact can never alias to a wrong plan. Files use the repo-wide
//     %.17g convention and round-trip exactly.
//
// Exact hits return the cached schedule without invoking the wrapped
// search; anything else is a miss.
//
// Thread safety: every public method is safe to call concurrently. The
// stats counters are atomics updated with relaxed ordering — `stats()`
// may be called from any thread while other threads mutate a shard under
// its own lock, and each counter read is an exact monotonic snapshot
// (diffing two snapshots around a single-threaded phase attributes that
// phase's activity exactly; counters are monotonic, so diffs never go
// negative even when other threads advance them concurrently).
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "corun/common/expected.hpp"
#include "corun/core/sched/plan_cache/signature.hpp"
#include "corun/core/sched/schedule.hpp"

namespace corun::sched {

struct PlanCacheConfig {
  std::size_t capacity = 512;  ///< per-shard entries before LRU eviction
  std::string dir;             ///< persistent tier directory ("" = off)
  std::size_t shards = 8;      ///< per-family-hash shard count
};

/// Monotonic counters; `snapshot()` them around a phase to attribute
/// activity (the cache may be shared across runs). A plain value type —
/// the cache keeps the live counters in per-shard atomics and `stats()`
/// aggregates them into this snapshot form.
struct PlanCacheStats {
  std::uint64_t hits = 0;         ///< exact hits (search skipped)
  std::uint64_t misses = 0;       ///< neither tier had the exact entry
  std::uint64_t evictions = 0;    ///< LRU evictions from the memory tier
  std::uint64_t disk_hits = 0;    ///< exact hits served by the disk tier
  std::uint64_t stores = 0;       ///< entries written
  std::uint64_t io_failures = 0;  ///< unreadable/unwritable tier files
};

class PlanCache {
 public:
  explicit PlanCache(PlanCacheConfig config);

  /// Parses a --plan-cache / CORUN_PLAN_CACHE spec: "off" (returns null),
  /// "mem", "mem:<capacity>", "mem:<capacity>:<shards>", or "dir:<path>"
  /// (memory tier + persistence under <path>, created if missing). Fails
  /// on anything else.
  [[nodiscard]] static Expected<std::shared_ptr<PlanCache>> from_spec(
      const std::string& spec);

  /// Exact lookup. On a hit the stored by-name schedule is resolved against
  /// `batch_names` (the requesting batch's instance names, in batch order)
  /// and validated; returns nullopt on a miss. Counts hits/misses. The CSV
  /// parse happens outside the shard lock, so concurrent hits on one shard
  /// only serialize on the index probe and LRU splice.
  [[nodiscard]] std::optional<Schedule> lookup(
      const PlanSignature& sig, const std::vector<std::string>& batch_names);

  /// Records a planning result; `batch_names` resolves the schedule's
  /// indices to the instance names it is stored under.
  void store(const PlanSignature& sig, const Schedule& schedule,
             const std::vector<std::string>& batch_names);

  [[nodiscard]] PlanCacheStats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const PlanCacheConfig& config() const noexcept {
    return config_;
  }

  /// The shard a signature family maps to: `family_hash % shards`. Exposed
  /// so tests (and capacity planning) can predict shard placement.
  [[nodiscard]] std::size_t shard_index(
      std::uint64_t family_hash) const noexcept {
    return static_cast<std::size_t>(family_hash % config_.shards);
  }

  /// Keys currently in the memory tier: shards in index order, each
  /// least-recently-used first — exposes the per-shard eviction order for
  /// the determinism tests.
  [[nodiscard]] std::vector<std::string> lru_keys() const;

 private:
  struct Entry {
    std::string canonical;
    std::string schedule_csv;  ///< by-name serialization
  };

  /// Live counters for one shard. Relaxed ordering everywhere: each counter
  /// is an independent monotonic event count, never used to synchronize
  /// other memory.
  struct ShardStats {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> disk_hits{0};
    std::atomic<std::uint64_t> stores{0};
    std::atomic<std::uint64_t> io_failures{0};
  };

  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  ///< front = least recently used
    std::map<std::string, std::list<Entry>::iterator> index;
    ShardStats stats;
  };

  [[nodiscard]] Shard& shard_for(const PlanSignature& sig) noexcept {
    return shards_[shard_index(sig.family_hash)];
  }

  /// Inserts (or refreshes) an entry at the MRU end, evicting if needed.
  /// Caller holds the shard's mutex.
  void insert_locked(Shard& shard, Entry entry);
  [[nodiscard]] std::optional<Entry> load_from_disk(Shard& shard,
                                                    const PlanSignature& sig);
  void save_to_disk(Shard& shard, const Entry& entry, std::uint64_t hash);
  [[nodiscard]] std::string entry_path(std::uint64_t hash) const;

  PlanCacheConfig config_;
  std::vector<Shard> shards_;
};

/// Serializes one cache entry to its persistent CSV form. Exposed for the
/// round-trip tests. Schema:
///   sig,<canonical>
/// followed by the schedule_to_csv rows (by instance name), whose `flags`
/// row comes first. A file whose second row is anything else — such as
/// the older layout's `family`, `makespan` and `jobs` rows — reads as a
/// miss counted in io_failures.
[[nodiscard]] std::string plan_cache_entry_to_csv(
    const std::string& canonical, const std::string& schedule_csv);

}  // namespace corun::sched
