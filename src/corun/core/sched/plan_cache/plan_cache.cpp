#include "corun/core/sched/plan_cache/plan_cache.hpp"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "corun/common/check.hpp"
#include "corun/common/csv.hpp"
#include "corun/common/trace/trace.hpp"

namespace corun::sched {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

}  // namespace

PlanCache::PlanCache(PlanCacheConfig config) : config_(std::move(config)) {
  CORUN_CHECK_MSG(config_.capacity > 0, "plan cache capacity must be > 0");
  if (!config_.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.dir, ec);
  }
}

Expected<std::shared_ptr<PlanCache>> PlanCache::from_spec(
    const std::string& spec) {
  if (spec.empty() || spec == "off") return std::shared_ptr<PlanCache>{};
  PlanCacheConfig config;
  if (spec == "mem") return std::make_shared<PlanCache>(config);
  if (spec.rfind("mem:", 0) == 0) {
    const auto capacity =
        parse_number<std::size_t>(std::string_view(spec).substr(4));
    if (!capacity.has_value() || capacity.value() == 0) {
      return fail("plan cache: bad capacity in '" + spec + "'",
                  ErrorCategory::kParse);
    }
    config.capacity = capacity.value();
    return std::make_shared<PlanCache>(config);
  }
  if (spec.rfind("dir:", 0) == 0 && spec.size() > 4) {
    config.dir = spec.substr(4);
    return std::make_shared<PlanCache>(config);
  }
  return fail("plan cache: spec must be off|mem|mem:<capacity>|dir:<path>,"
              " got '" + spec + "'",
              ErrorCategory::kParse);
}

std::optional<Schedule> PlanCache::lookup(
    const PlanSignature& sig, const std::vector<std::string>& batch_names) {
  std::string schedule_csv;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(sig.canonical);
    if (it == index_.end()) {
      if (auto loaded = load_from_disk(sig)) {
        disk_hits_.fetch_add(1, kRelaxed);
        insert_locked(std::move(*loaded));
        it = index_.find(sig.canonical);
      }
    }
    if (it == index_.end()) {
      misses_.fetch_add(1, kRelaxed);
      CORUN_TRACE_COUNTER("plan_cache.misses", 1);
      return std::nullopt;
    }
    // Touch: splice to the MRU end. The CSV text is copied out so the
    // (comparatively expensive) parse below runs outside the lock.
    lru_.splice(lru_.end(), lru_, it->second);
    it->second = std::prev(lru_.end());
    schedule_csv = it->second->schedule_csv;
  }
  auto schedule = schedule_from_csv(schedule_csv, batch_names);
  if (!schedule.has_value()) {
    // A stored plan that no longer resolves (should not happen for an
    // exact signature match) is treated as a miss rather than an error.
    misses_.fetch_add(1, kRelaxed);
    CORUN_TRACE_COUNTER("plan_cache.misses", 1);
    return std::nullopt;
  }
  hits_.fetch_add(1, kRelaxed);
  CORUN_TRACE_COUNTER("plan_cache.hits", 1);
  return std::move(schedule).value();
}

void PlanCache::store(const PlanSignature& sig, const Schedule& schedule,
                      const std::vector<std::string>& batch_names) {
  std::ostringstream oss;
  schedule_to_csv(schedule, batch_names, oss);
  Entry entry{.canonical = sig.canonical, .schedule_csv = oss.str()};
  std::lock_guard<std::mutex> lock(mutex_);
  stores_.fetch_add(1, kRelaxed);
  CORUN_TRACE_COUNTER("plan_cache.stores", 1);
  if (!config_.dir.empty()) save_to_disk(entry, sig.hash);
  insert_locked(std::move(entry));
}

PlanCacheStats PlanCache::stats() const {
  return PlanCacheStats{.hits = hits_.load(kRelaxed),
                        .misses = misses_.load(kRelaxed),
                        .evictions = evictions_.load(kRelaxed),
                        .disk_hits = disk_hits_.load(kRelaxed),
                        .stores = stores_.load(kRelaxed),
                        .io_failures = io_failures_.load(kRelaxed)};
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

std::vector<std::string> PlanCache::lru_keys() const {
  std::vector<std::string> keys;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Entry& e : lru_) keys.push_back(e.canonical);
  return keys;
}

void PlanCache::insert_locked(Entry entry) {
  const auto it = index_.find(entry.canonical);
  if (it != index_.end()) {
    *it->second = std::move(entry);
    lru_.splice(lru_.end(), lru_, it->second);
    it->second = std::prev(lru_.end());
    return;
  }
  if (lru_.size() >= config_.capacity) {
    index_.erase(lru_.front().canonical);
    lru_.pop_front();
    evictions_.fetch_add(1, kRelaxed);
    CORUN_TRACE_COUNTER("plan_cache.evictions", 1);
  }
  lru_.push_back(std::move(entry));
  index_[lru_.back().canonical] = std::prev(lru_.end());
}

std::string PlanCache::entry_path(std::uint64_t hash) const {
  return config_.dir + "/plan_" + hex64(hash) + ".csv";
}

std::string plan_cache_entry_to_csv(const std::string& canonical,
                                    const std::string& schedule_csv) {
  std::ostringstream oss;
  CsvWriter writer(oss);
  writer.write_row({"sig", canonical});
  oss << schedule_csv;
  return oss.str();
}

std::optional<PlanCache::Entry> PlanCache::load_from_disk(
    const PlanSignature& sig) {
  if (config_.dir.empty()) return std::nullopt;
  std::ifstream in(entry_path(sig.hash), std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream content;
  content << in.rdbuf();
  if (in.bad()) {
    io_failures_.fetch_add(1, kRelaxed);
    return std::nullopt;
  }
  const auto rows = parse_csv(content.str());
  if (!rows.has_value() || rows.value().size() < 2) {
    io_failures_.fetch_add(1, kRelaxed);
    return std::nullopt;
  }
  const auto& r = rows.value();
  if (r[0].size() != 2 || r[0][0] != "sig" || r[1][0] != "flags") {
    io_failures_.fetch_add(1, kRelaxed);
    return std::nullopt;
  }
  // The full signature is stored precisely so a file-name hash collision or
  // stale artifact can never alias: mismatches are plain misses.
  if (r[0][1] != sig.canonical) return std::nullopt;
  Entry entry;
  entry.canonical = r[0][1];
  std::ostringstream schedule;
  CsvWriter writer(schedule);
  for (std::size_t i = 1; i < r.size(); ++i) writer.write_row(r[i]);
  entry.schedule_csv = schedule.str();
  return entry;
}

void PlanCache::save_to_disk(const Entry& entry, std::uint64_t hash) {
  // Write-then-rename: processes sharing one dir: tier (CORUN_PLAN_CACHE)
  // may store the same signature concurrently, and interleaved writes to
  // the final path would leave a torn file that reads as a miss yet
  // squats on the slot until overwritten. The temp name carries the pid
  // *and* a process-wide counter: two caches of one process (or a
  // recycled pid on a shared dir: tier) can flush the same signature hash
  // concurrently, and a pid-only suffix would let their writes interleave
  // in one temp file. rename() within one directory then atomically
  // publishes a complete file.
  static std::atomic<std::uint64_t> tmp_serial{0};
  const std::string path = entry_path(hash);
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(tmp_serial.fetch_add(1, kRelaxed));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      io_failures_.fetch_add(1, kRelaxed);
      return;
    }
    out << plan_cache_entry_to_csv(entry.canonical, entry.schedule_csv);
    out.close();
    if (!out) {
      io_failures_.fetch_add(1, kRelaxed);
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    io_failures_.fetch_add(1, kRelaxed);
    std::filesystem::remove(tmp, ec);
  }
}

}  // namespace corun::sched
