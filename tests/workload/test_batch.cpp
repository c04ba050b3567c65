#include "corun/workload/batch.hpp"

#include <gtest/gtest.h>

#include <set>

#include "corun/common/check.hpp"
#include "corun/workload/rodinia.hpp"

namespace corun::workload {
namespace {

TEST(Batch, EightProgramStudy) {
  const Batch batch = make_batch_8();
  ASSERT_EQ(batch.size(), 8u);
  std::set<std::string> names;
  for (const auto& job : batch.jobs()) names.insert(job.instance_name);
  EXPECT_EQ(names.size(), 8u);
  EXPECT_TRUE(names.count("streamcluster"));
}

TEST(Batch, SixteenProgramStudyHasTwoInstancesEach) {
  const Batch batch = make_batch_16();
  ASSERT_EQ(batch.size(), 16u);
  // Two instances per program, the second with a different input scale.
  const auto& first = batch.job(0);
  const auto& second = batch.job(1);
  EXPECT_EQ(first.descriptor.name, second.descriptor.name);
  EXPECT_NE(first.instance_name, second.instance_name);
  EXPECT_NE(first.descriptor.input_scale, second.descriptor.input_scale);
  EXPECT_NE(first.spec.cpu.total_ref_time(), second.spec.cpu.total_ref_time());
}

TEST(Batch, InstanceSpecsCarryInstanceNames) {
  const Batch batch = make_batch_16();
  for (const auto& job : batch.jobs()) {
    EXPECT_EQ(job.spec.name, job.instance_name);
  }
}

TEST(Batch, MotivationBatchIsTheFourProgramExample) {
  const Batch batch = make_batch_motivation();
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch.job(2).descriptor.name, "dwt2d");
}

TEST(Batch, DuplicateInstanceNameRejected) {
  Batch batch;
  const auto desc = rodinia_by_name("lud").value();
  batch.add(desc, 1);
  EXPECT_THROW(batch.add(desc, 2), corun::ContractViolation);
}

TEST(Batch, AddLoweredJobRejectsDuplicateName) {
  Batch lowered;
  lowered.add(rodinia_by_name("lud").value(), 1, "x");
  lowered.add(rodinia_by_name("cfd").value(), 2, "y");

  // The lowered overload keeps the spec as is.
  Batch copy;
  copy.add(lowered.job(0));
  ASSERT_EQ(copy.size(), 1u);
  EXPECT_EQ(copy.job(0).spec.name, "x");
  EXPECT_EQ(copy.job(0).spec.cpu.total_ref_time(),
            lowered.job(0).spec.cpu.total_ref_time());

  // A repeated instance name throws whichever overload added the first.
  EXPECT_THROW(copy.add(lowered.job(0)), corun::ContractViolation);
  BatchJob renamed = lowered.job(1);
  renamed.instance_name = "x";
  EXPECT_THROW(copy.add(renamed), corun::ContractViolation);
  EXPECT_THROW(copy.add(rodinia_by_name("lud").value(), 3, "x"),
               corun::ContractViolation);
  copy.add(lowered.job(1));
  EXPECT_THROW(copy.add(rodinia_by_name("lud").value(), 3, "y"),
               corun::ContractViolation);
  EXPECT_EQ(copy.size(), 2u);
}

TEST(Batch, ExplicitTagsAllowDuplicatePrograms) {
  Batch batch;
  const auto desc = rodinia_by_name("lud").value();
  batch.add(desc, 1, "lud#a");
  batch.add(desc, 2, "lud#b");
  EXPECT_EQ(batch.size(), 2u);
}

TEST(Batch, DifferentSeedsGiveDifferentSpecs) {
  Batch a;
  Batch b;
  const auto desc = rodinia_by_name("cfd").value();
  a.add(desc, 1);
  b.add(desc, 2);
  // Same total time, different phase traces (different inputs).
  EXPECT_NEAR(a.job(0).spec.cpu.total_ref_time(),
              b.job(0).spec.cpu.total_ref_time(), 1e-9);
  bool any_diff = false;
  const auto& pa = a.job(0).spec.cpu.phases();
  const auto& pb = b.job(0).spec.cpu.phases();
  for (std::size_t i = 0; i < std::min(pa.size(), pb.size()) && !any_diff; ++i) {
    any_diff = pa[i].mem_bw != pb[i].mem_bw;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Batch, OutOfRangeIndexRejected) {
  const Batch batch = make_batch_8();
  EXPECT_THROW((void)batch.job(8), corun::ContractViolation);
}

TEST(Batch, DeterministicConstruction) {
  const Batch a = make_batch_8(123);
  const Batch b = make_batch_8(123);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.job(i).instance_name, b.job(i).instance_name);
    EXPECT_DOUBLE_EQ(a.job(i).spec.cpu.phases()[0].mem_bw,
                     b.job(i).spec.cpu.phases()[0].mem_bw);
  }
}

}  // namespace
}  // namespace corun::workload
