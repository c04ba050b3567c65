// Batch construction: the job sets the evaluation schedules operate on.
//
// A Batch pairs kernel descriptors with lowered job specs so schedulers can
// reason over descriptors (profiles, preferences) while the runtime executes
// the concrete specs. The two study configurations of the paper are provided:
// the 8-program set (one instance of each Rodinia analogue, Fig. 10) and the
// 16-program set (two instances each with different inputs, Fig. 11).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "corun/common/expected.hpp"
#include "corun/sim/job.hpp"
#include "corun/workload/kernel_descriptor.hpp"

namespace corun::workload {

/// One schedulable instance inside a batch.
struct BatchJob {
  KernelDescriptor descriptor;
  sim::JobSpec spec;
  std::string instance_name;  ///< unique within the batch
  std::uint64_t seed = 0;     ///< input seed the spec was lowered with
};

class Batch {
 public:
  Batch() = default;

  /// Adds an instance; `instance_tag` distinguishes multiple instances of
  /// the same program (e.g. "cfd#2").
  void add(const KernelDescriptor& desc, std::uint64_t seed,
           const std::string& instance_tag = "");

  /// Adds an instance that is already lowered (e.g. taken from another
  /// batch): `job.spec` is kept as is, not derived again from the
  /// descriptor. Instance names stay unique as with the overload above.
  void add(BatchJob job);

  [[nodiscard]] std::size_t size() const noexcept { return jobs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return jobs_.empty(); }
  [[nodiscard]] const BatchJob& job(std::size_t i) const;
  [[nodiscard]] const std::vector<BatchJob>& jobs() const noexcept {
    return jobs_;
  }

 private:
  std::vector<BatchJob> jobs_;
};

/// The Fig. 10 batch: eight programs, one instance each.
[[nodiscard]] Batch make_batch_8(std::uint64_t seed = 42);

/// The Fig. 11 batch: sixteen instances — each program twice, the second
/// instance with a different (smaller) input.
[[nodiscard]] Batch make_batch_16(std::uint64_t seed = 42);

/// The Sec. III motivating batch: streamcluster, cfd, dwt2d, hotspot.
[[nodiscard]] Batch make_batch_motivation(std::uint64_t seed = 42);

/// Arbitrary-size batch for scalability sweeps: cycles through the full
/// program catalogue (rodinia_all), varying the input scale per instance so
/// repeated programs are distinct jobs.
[[nodiscard]] Batch make_batch_n(std::size_t n, std::uint64_t seed = 42);

/// CSV batch description for the command-line tools. Schema:
///   instance,program,input_scale,seed
/// where `program` is a Rodinia-suite name (or "micro:<GBps>" for a
/// Figure-4 stressor at a target bandwidth) and `instance` must be unique.
[[nodiscard]] Expected<Batch> batch_from_csv(const std::string& text);
void batch_to_csv(const Batch& batch, std::ostream& out);

}  // namespace corun::workload
