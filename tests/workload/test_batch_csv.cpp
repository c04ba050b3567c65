#include <gtest/gtest.h>

#include <sstream>

#include "corun/workload/batch.hpp"
#include "corun/workload/rodinia.hpp"

namespace corun::workload {
namespace {

TEST(BatchCsv, ParsesRodiniaAndMicroPrograms) {
  const auto batch = batch_from_csv(
      "instance,program,input_scale,seed\n"
      "sc,streamcluster,1.0,42\n"
      "stress,micro:5.5,1.0,43\n");
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch.value().size(), 2u);
  EXPECT_EQ(batch.value().job(0).instance_name, "sc");
  EXPECT_EQ(batch.value().job(0).descriptor.name, "streamcluster");
  EXPECT_EQ(batch.value().job(1).instance_name, "stress");
  EXPECT_DOUBLE_EQ(batch.value().job(1).descriptor.phase_variability, 0.0);
}

TEST(BatchCsv, InputScaleApplied) {
  const auto batch = batch_from_csv(
      "instance,program,input_scale,seed\n"
      "small,lud,0.5,1\n");
  ASSERT_TRUE(batch.has_value());
  const auto& job = batch.value().job(0);
  EXPECT_DOUBLE_EQ(job.descriptor.input_scale, 0.5);
  EXPECT_NEAR(job.spec.cpu.total_ref_time(), 27.76 * 0.5, 1e-9);
}

TEST(BatchCsv, SeedRecorded) {
  const auto batch = batch_from_csv(
      "instance,program,input_scale,seed\n"
      "a,srad,1.0,1234\n");
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch.value().job(0).seed, 1234u);
}

TEST(BatchCsv, RejectsMalformedInputs) {
  EXPECT_FALSE(batch_from_csv("").has_value());
  EXPECT_FALSE(batch_from_csv("wrong,header,here,x\n").has_value());
  EXPECT_FALSE(batch_from_csv("instance,program,input_scale,seed\n"
                              "a,unknown_prog,1.0,1\n")
                   .has_value());
  EXPECT_FALSE(batch_from_csv("instance,program,input_scale,seed\n"
                              "a,lud,1.0\n")
                   .has_value());  // arity
  EXPECT_FALSE(batch_from_csv("instance,program,input_scale,seed\n"
                              "a,micro:99,1.0,1\n")
                   .has_value());  // micro target out of range
  EXPECT_FALSE(batch_from_csv("instance,program,input_scale,seed\n")
                   .has_value());  // empty batch
  for (const char* row : {
           "a,micro:abc,1.0,1",
           "a,micro:5x,1.0,1",
           "a,lud,nan,1",
           "a,lud,1.0x,1",
           "a,lud,1.0,-1",       // unsigned seed
           "a,lud,1.0,1.5",
       }) {
    const auto batch =
        batch_from_csv(std::string("instance,program,input_scale,seed\n") +
                       row + "\n");
    ASSERT_FALSE(batch.has_value()) << row;
    EXPECT_EQ(batch.error().category, ErrorCategory::kParse) << row;
  }
  EXPECT_FALSE(batch_from_csv("instance,program,input_scale,seed,extra\n"
                              "a,lud,1.0,1,x\n")
                   .has_value());  // header other than the writer's
}

TEST(BatchCsv, RoundTrip) {
  const Batch original = make_batch_motivation(42);
  std::ostringstream oss;
  batch_to_csv(original, oss);
  const auto parsed = batch_from_csv(oss.str());
  ASSERT_TRUE(parsed.has_value());
  const Batch& round = parsed.value();
  ASSERT_EQ(round.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(round.job(i).instance_name, original.job(i).instance_name);
    EXPECT_EQ(round.job(i).seed, original.job(i).seed);
    // Same descriptor + seed => identical lowered spec.
    EXPECT_DOUBLE_EQ(round.job(i).spec.cpu.phases()[0].mem_bw,
                     original.job(i).spec.cpu.phases()[0].mem_bw);
  }
}

TEST(BatchCsv, DuplicateInstanceSurfacesAsContractViolation) {
  EXPECT_THROW((void)batch_from_csv("instance,program,input_scale,seed\n"
                                    "a,lud,1.0,1\n"
                                    "a,srad,1.0,2\n"),
               corun::ContractViolation);
}

}  // namespace
}  // namespace corun::workload
