// Memoized plan cache: deterministic reuse of scheduling results.
//
// The cache maps a request's canonical signature (signature.hpp) to the
// schedule that request produced, stored in the by-name CSV form so a hit
// can be remapped onto any batch ordering of the same job set. Two tiers:
//
//   - an in-memory LRU tier (always on): one mutex-guarded list and index
//     holding up to `capacity` entries before evicting, least recently
//     touched first. Eviction order is strictly deterministic for a given
//     operation sequence;
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
// may be called from any thread while other threads mutate the cache
// under its lock, and each counter read is an exact monotonic snapshot
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
  std::size_t capacity = 4096;  ///< entries before LRU eviction
  std::string dir;              ///< persistent tier directory ("" = off)
};

/// Monotonic counters; `snapshot()` them around a phase to attribute
/// activity (the cache may be shared across runs). A plain value type —
/// the cache keeps the live counters in atomics and `stats()` copies them
/// into this snapshot form.
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
  /// "mem", "mem:<capacity>", or "dir:<path>" (memory tier + persistence
  /// under <path>, created if missing). Fails on anything else.
  [[nodiscard]] static Expected<std::shared_ptr<PlanCache>> from_spec(
      const std::string& spec);

  /// Exact lookup. On a hit the stored by-name schedule is resolved against
  /// `batch_names` (the requesting batch's instance names, in batch order)
  /// and validated; returns nullopt on a miss. Counts hits/misses. The CSV
  /// parse happens outside the lock, so concurrent hits only serialize on
  /// the index probe and LRU splice.
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

  /// Keys currently in the memory tier, least-recently-used first —
  /// exposes the eviction order for the determinism tests.
  [[nodiscard]] std::vector<std::string> lru_keys() const;

 private:
  struct Entry {
    std::string canonical;
    std::string schedule_csv;  ///< by-name serialization
  };

  /// Inserts (or refreshes) an entry at the MRU end, evicting if needed.
  /// Caller holds `mutex_`.
  void insert_locked(Entry entry);
  [[nodiscard]] std::optional<Entry> load_from_disk(const PlanSignature& sig);
  void save_to_disk(const Entry& entry, std::uint64_t hash);
  [[nodiscard]] std::string entry_path(std::uint64_t hash) const;

  PlanCacheConfig config_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< front = least recently used
  std::map<std::string, std::list<Entry>::iterator> index_;

  // Live counters. Relaxed ordering everywhere: each is an independent
  // monotonic event count, never used to synchronize other memory.
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> disk_hits_{0};
  std::atomic<std::uint64_t> stores_{0};
  std::atomic<std::uint64_t> io_failures_{0};
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
