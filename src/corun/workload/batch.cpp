#include "corun/workload/batch.hpp"

#include <ostream>
#include <utility>

#include "corun/common/check.hpp"
#include "corun/common/csv.hpp"
#include "corun/workload/microbench.hpp"
#include "corun/workload/rodinia.hpp"

namespace corun::workload {

void Batch::add(const KernelDescriptor& desc, std::uint64_t seed,
                const std::string& instance_tag) {
  BatchJob job;
  job.descriptor = desc;
  job.seed = seed;
  job.instance_name = instance_tag.empty() ? desc.name : instance_tag;
  job.spec = make_job_spec(desc, seed);
  job.spec.name = job.instance_name;
  add(std::move(job));
}

void Batch::add(BatchJob job) {
  for (const BatchJob& existing : jobs_) {
    CORUN_CHECK_MSG(existing.instance_name != job.instance_name,
                    "duplicate instance name in batch");
  }
  jobs_.push_back(std::move(job));
}

const BatchJob& Batch::job(std::size_t i) const {
  CORUN_CHECK(i < jobs_.size());
  return jobs_[i];
}

Batch make_batch_8(std::uint64_t seed) {
  Batch batch;
  for (const KernelDescriptor& desc : rodinia_suite()) {
    batch.add(desc, seed + hash64(desc.name));
  }
  return batch;
}

Batch make_batch_16(std::uint64_t seed) {
  Batch batch;
  for (const KernelDescriptor& desc : rodinia_suite()) {
    batch.add(desc, seed + hash64(desc.name), desc.name + "#1");
    KernelDescriptor smaller = desc;
    smaller.input_scale = 0.8;  // "different inputs" per Sec. VI-D
    batch.add(smaller, seed + hash64(desc.name + "/2"), desc.name + "#2");
  }
  return batch;
}

Batch make_batch_motivation(std::uint64_t seed) {
  Batch batch;
  for (const KernelDescriptor& desc : rodinia_motivation_four()) {
    batch.add(desc, seed + hash64(desc.name));
  }
  return batch;
}

Batch make_batch_n(std::size_t n, std::uint64_t seed) {
  CORUN_CHECK(n >= 1);
  Batch batch;
  const auto catalogue = rodinia_all();
  for (std::size_t i = 0; i < n; ++i) {
    KernelDescriptor desc = catalogue[i % catalogue.size()];
    const std::size_t round = i / catalogue.size();
    desc.input_scale = 1.0 - 0.15 * static_cast<double>(round % 3);
    batch.add(desc, seed + hash64(desc.name) + 1000 * round,
              desc.name + "#" + std::to_string(round));
  }
  return batch;
}

namespace {

constexpr std::string_view kCsvColumns[] = {"instance", "program",
                                            "input_scale", "seed"};

}  // namespace

Expected<Batch> batch_from_csv(const std::string& text) {
  auto rows = read_csv_table(text, kCsvColumns, "batch CSV");
  if (!rows.has_value()) return rows.error();
  Batch batch;
  for (Record& row : std::move(rows).value()) {
    const std::string& program = row["program"];
    KernelDescriptor desc;
    if (program.starts_with("micro:")) {
      const auto target =
          parse_number<double>(std::string_view(program).substr(6));
      if (!target.has_value()) {
        row.fail_field("program", "micro target " + target.error().message);
        return *row.error();
      }
      const auto micro = micro_kernel(target.value());
      if (!micro.has_value()) return micro.error();
      desc = micro.value();
    } else {
      const auto found = rodinia_by_name(program);
      if (!found.has_value()) {
        return fail("unknown program '" + program + "' in batch CSV", ErrorCategory::kNotFound);
      }
      desc = *found;
    }
    std::uint64_t seed = 0;
    row.read("input_scale", desc.input_scale);
    row.read("seed", seed);
    if (row.error()) return *row.error();
    // A duplicate instance name violates add()'s contract.
    batch.add(desc, seed, row["instance"]);
  }
  if (batch.empty()) return fail("batch CSV describes no jobs", ErrorCategory::kParse);
  return batch;
}

void batch_to_csv(const Batch& batch, std::ostream& out) {
  CsvWriter writer(out);
  writer.write_row(kCsvColumns);
  for (const BatchJob& job : batch.jobs()) {
    writer.write_row({job.instance_name, job.descriptor.name,
                      std::to_string(job.descriptor.input_scale),
                      std::to_string(job.seed)});
  }
}

}  // namespace corun::workload
