#include <gtest/gtest.h>

#include <sstream>

#include "../support/fixtures.hpp"
#include "corun/core/sched/hcs.hpp"
#include "corun/core/sched/makespan_evaluator.hpp"
#include "corun/core/sched/registry.hpp"

namespace corun::sched {
namespace {

using corun::testing::motivation_fixture;

TEST(Registry, EveryListedNameConstructs) {
  for (const std::string& name : scheduler_names()) {
    const auto scheduler = make_scheduler(name, 1);
    ASSERT_NE(scheduler, nullptr) << name;
    EXPECT_FALSE(scheduler->name().empty()) << name;
  }
}

TEST(Registry, UnknownNameIsNull) {
  EXPECT_EQ(make_scheduler("optimal-magic"), nullptr);
  EXPECT_EQ(make_scheduler(""), nullptr);
}

TEST(Registry, ConstructedSchedulersPlan) {
  const auto& f = motivation_fixture();
  const auto ctx = f.context(15.0);
  for (const std::string& name : scheduler_names()) {
    auto scheduler = make_scheduler(name, 3);
    const Schedule s = scheduler->plan(ctx);
    EXPECT_NO_THROW(s.validate(4)) << name;
  }
}

TEST(ScheduleCsv, RoundTripPreservesEverything) {
  const auto& f = motivation_fixture();
  const auto ctx = f.context(15.0);
  HcsScheduler hcs;
  const Schedule original = hcs.plan(ctx);

  std::ostringstream oss;
  schedule_to_csv(original, ctx.job_names(), oss);
  const auto round = schedule_from_csv(oss.str(), ctx.job_names());
  ASSERT_TRUE(round.has_value()) << round.error().message;

  const Schedule& r = round.value();
  EXPECT_EQ(r.model_dvfs, original.model_dvfs);
  EXPECT_EQ(r.cpu_batch_launch, original.cpu_batch_launch);
  EXPECT_EQ(r.shared_queue, original.shared_queue);
  ASSERT_EQ(r.cpu.size(), original.cpu.size());
  ASSERT_EQ(r.gpu.size(), original.gpu.size());
  ASSERT_EQ(r.solo.size(), original.solo.size());
  for (std::size_t i = 0; i < original.cpu.size(); ++i) {
    EXPECT_EQ(r.cpu[i].job, original.cpu[i].job);
    EXPECT_EQ(r.cpu[i].level, original.cpu[i].level);
  }
  for (std::size_t i = 0; i < original.solo.size(); ++i) {
    EXPECT_EQ(r.solo[i].job, original.solo[i].job);
    EXPECT_EQ(r.solo[i].device, original.solo[i].device);
  }
  // Semantics preserved: identical predicted makespan.
  const MakespanEvaluator evaluator(ctx);
  EXPECT_DOUBLE_EQ(evaluator.makespan(r), evaluator.makespan(original));
}

TEST(ScheduleCsv, SharedQueueRoundTrip) {
  Schedule s;
  s.shared_queue = true;
  s.shared = {{1, 9}, {0, 9}, {2, 9}};
  std::ostringstream oss;
  schedule_to_csv(s, {"a", "b", "c"}, oss);
  const auto round = schedule_from_csv(oss.str(), {"a", "b", "c"});
  ASSERT_TRUE(round.has_value());
  EXPECT_TRUE(round.value().shared_queue);
  ASSERT_EQ(round.value().shared.size(), 3u);
  EXPECT_EQ(round.value().shared[0].job, 1u);
}

TEST(ScheduleCsv, MalformedInputsRejected) {
  const std::vector<std::string> names{"a", "b"};
  // Missing flags row.
  EXPECT_FALSE(schedule_from_csv("entry,cpu,0,a,5,-\nentry,gpu,0,b,3,-\n",
                                 names)
                   .has_value());
  // Unknown job.
  EXPECT_FALSE(schedule_from_csv("flags,0,0,0\nentry,cpu,0,zz,5,-\n"
                                 "entry,gpu,0,b,3,-\n",
                                 names)
                   .has_value());
  // Unknown section.
  EXPECT_FALSE(schedule_from_csv("flags,0,0,0\nentry,npu,0,a,5,-\n"
                                 "entry,gpu,0,b,3,-\n",
                                 names)
                   .has_value());
  // Incomplete coverage (job b missing).
  EXPECT_FALSE(
      schedule_from_csv("flags,0,0,0\nentry,cpu,0,a,5,-\n", names).has_value());
  // Bad level.
  EXPECT_FALSE(schedule_from_csv("flags,0,0,0\nentry,cpu,0,a,high,-\n"
                                 "entry,gpu,0,b,3,-\n",
                                 names)
                   .has_value());
  for (const char* text : {
           "flags,0,0,0\nentry,cpu,0,a,5x,-\nentry,gpu,0,b,3,-\n",
           "flags,0,0,0\nentry,cpu,0,a,5,-\nentry,solo,0,b,3,XPU\n",
           "flags,0,0,0\nentry,cpu,0,a,5,-\nentry,solo,0,b,3,gpu\n",
           "flags,2,0,0\nentry,cpu,0,a,5,-\nentry,gpu,0,b,3,-\n",
       }) {
    const auto parsed = schedule_from_csv(text, names);
    ASSERT_FALSE(parsed.has_value()) << text;
    EXPECT_EQ(parsed.error().category, ErrorCategory::kParse) << text;
  }
}

TEST(ScheduleCsv, SerializationValidatesFirst) {
  Schedule bad;
  bad.cpu = {{0, 5}};  // misses job 1
  std::ostringstream oss;
  EXPECT_THROW(schedule_to_csv(bad, {"a", "b"}, oss), corun::ContractViolation);
}

}  // namespace
}  // namespace corun::sched
