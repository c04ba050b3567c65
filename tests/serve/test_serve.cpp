// Serving subsystem: wire-protocol round trips, framing, the amortized
// signature builder, PlanService byte-identity with direct planning, and
// ServeSession's graceful-degradation triage.
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "../support/fixtures.hpp"
#include "corun/core/sched/hcs.hpp"
#include "corun/core/sched/makespan_evaluator.hpp"
#include "corun/core/sched/lower_bound.hpp"
#include "corun/core/sched/plan_cache/signature.hpp"
#include "corun/core/sched/registry.hpp"
#include "corun/core/serve/plan_service.hpp"
#include "corun/core/serve/protocol.hpp"
#include "corun/core/serve/server.hpp"

namespace corun::serve {
namespace {

using corun::testing::motivation_fixture;

PlanRequest sample_request() {
  PlanRequest request;
  request.seq = 7;
  request.cap = 1.0 / 3.0;  // only survives the wire via %.17g
  request.scheduler = "bnb";
  request.policy = "cpu";
  request.seed = 9;
  request.jobs = {"sc", "lud"};
  return request;
}

TEST(ServeProtocol, RequestPayloadRoundTripsExactly) {
  const PlanRequest request = sample_request();
  const auto parsed = request_from_payload(request_to_payload(request));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed.value().seq, request.seq);
  ASSERT_TRUE(parsed.value().cap.has_value());
  EXPECT_EQ(*parsed.value().cap, *request.cap);  // bit-exact, not approximate
  EXPECT_EQ(parsed.value().scheduler, request.scheduler);
  EXPECT_EQ(parsed.value().policy, request.policy);
  EXPECT_EQ(parsed.value().seed, request.seed);
  EXPECT_EQ(parsed.value().jobs, request.jobs);

  PlanRequest uncapped = request;
  uncapped.cap.reset();
  uncapped.jobs.clear();
  const auto parsed2 = request_from_payload(request_to_payload(uncapped));
  ASSERT_TRUE(parsed2.has_value());
  EXPECT_FALSE(parsed2.value().cap.has_value());
  EXPECT_TRUE(parsed2.value().jobs.empty());
}

TEST(ServeProtocol, MalformedRequestPayloadsAreRejectedNotGuessed) {
  // The CLI's garbage-parses-as-0 flag idiom stops at the wire: every
  // malformed frame must be a parse error the daemon answers `error`.
  for (const char* bad : {
           "",                          // empty
           "plan",                      // too few fields
           "nope,1,15,bnb,gpu,42",      // wrong verb
           "plan,x,15,bnb,gpu,42",      // bad seq
           "plan,1,cap,bnb,gpu,42",     // bad cap
           "plan,1,15,,gpu,42",         // empty scheduler
           "plan,1,15,bnb,gpu,seed",    // bad seed
           "plan,1,15,bnb,gpu,42,,sc",  // empty job name
           "plan,1,nan,bnb,gpu,42",     // non-finite cap
           "plan,1,inf,bnb,gpu,42",
           "plan,1, 15,bnb,gpu,42",
           "plan,1,15x,bnb,gpu,42",
           "plan,18446744073709551616,15,bnb,gpu,42",  // past 2^64 - 1
           "plan,+1,15,bnb,gpu,42",
           "plan,1,15,bnb,gpu,-42",
           "plan,1,0,bnb,gpu,42",       // a cap must be > 0, as --cap
           "plan,1,-5,bnb,gpu,42",
       }) {
    const auto request = request_from_payload(bad);
    ASSERT_FALSE(request.has_value()) << bad;
    EXPECT_EQ(request.error().category, ErrorCategory::kParse) << bad;
  }
  const auto max_seq = request_from_payload(
      "plan,18446744073709551615,,bnb,gpu,18446744073709551615");
  ASSERT_TRUE(max_seq.has_value());
  EXPECT_EQ(max_seq.value().seq, UINT64_MAX);
  EXPECT_FALSE(response_from_payload("ok,99999999999999999999,\n").has_value());
}

TEST(ServeProtocol, ResponsePayloadRoundTripsBodyVerbatim) {
  PlanResponse response;
  response.seq = 3;
  response.status = ResponseStatus::kOk;
  response.body = "scheduler: BnB\nplan:      cpu[]\n";  // embedded newlines
  const auto parsed = response_from_payload(response_to_payload(response));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed.value().seq, 3u);
  EXPECT_EQ(parsed.value().status, ResponseStatus::kOk);
  EXPECT_EQ(parsed.value().body, response.body);

  PlanResponse busy;
  busy.seq = 4;
  busy.status = ResponseStatus::kBusy;
  busy.message = "queue full";
  const auto parsed2 = response_from_payload(response_to_payload(busy));
  ASSERT_TRUE(parsed2.has_value());
  EXPECT_EQ(parsed2.value().status, ResponseStatus::kBusy);
  EXPECT_EQ(parsed2.value().message, "queue full");
  EXPECT_TRUE(parsed2.value().body.empty());
}

TEST(ServeProtocol, FramesRoundTripOverAPipeAndEofIsClean) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(write_frame(fds[1], "hello"));
  ASSERT_TRUE(write_frame(fds[1], ""));  // zero-length payload is legal
  ::close(fds[1]);

  auto one = read_frame(fds[0]);
  ASSERT_TRUE(one.has_value());
  ASSERT_TRUE(one.value().has_value());
  EXPECT_EQ(*one.value(), "hello");
  auto two = read_frame(fds[0]);
  ASSERT_TRUE(two.has_value());
  ASSERT_TRUE(two.value().has_value());
  EXPECT_EQ(*two.value(), "");
  auto eof = read_frame(fds[0]);
  ASSERT_TRUE(eof.has_value());
  EXPECT_FALSE(eof.value().has_value());  // clean end-of-stream
  ::close(fds[0]);
}

TEST(ServeProtocol, TornFrameIsAnErrorNotACleanEof) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const char partial[] = {8, 0, 0, 0, 'h', 'i'};  // announces 8, sends 2
  ASSERT_EQ(::write(fds[1], partial, sizeof(partial)),
            static_cast<ssize_t>(sizeof(partial)));
  ::close(fds[1]);
  const auto torn = read_frame(fds[0]);
  EXPECT_FALSE(torn.has_value());
  ::close(fds[0]);
}

TEST(ServeProtocol, RequestTraceCsvRoundTripsIncludingSeventeenG) {
  std::vector<PlanRequest> requests{sample_request()};
  requests.push_back(PlanRequest{});  // defaults: uncapped, full batch
  std::ostringstream oss;
  request_trace_to_csv(requests, oss);
  const auto parsed = request_trace_from_csv(oss.str());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(*parsed.value()[0].cap, 1.0 / 3.0);
  EXPECT_EQ(parsed.value()[0].jobs, (std::vector<std::string>{"sc", "lud"}));
  EXPECT_FALSE(parsed.value()[1].cap.has_value());
  EXPECT_TRUE(parsed.value()[1].jobs.empty());

  EXPECT_FALSE(request_trace_from_csv("not,a,header\n1,2,3").has_value());
  for (const char* row : {"0,nan,bnb,gpu,42,", "0,15,bnb,gpu,42", "x,15,bnb,gpu,42,"}) {
    const auto trace = request_trace_from_csv(
        std::string("seq,cap,scheduler,policy,seed,jobs\n") + row + "\n");
    ASSERT_FALSE(trace.has_value()) << row;
    EXPECT_EQ(trace.error().category, ErrorCategory::kParse) << row;
  }
}

TEST(SignatureBuilder, ByteIdenticalToMakeSignature) {
  const auto& f = motivation_fixture();
  const sched::SignatureBuilder builder(*f.predictor);
  for (const auto cap : {std::optional<Watts>{12.0}, std::optional<Watts>{},
                         std::optional<Watts>{17.5}}) {
    const auto ctx = f.context(cap);
    for (const char* scheduler : {"bnb", "hcs+"}) {
      const sched::PlanSignature a = sched::make_signature(ctx, scheduler, 42);
      const sched::PlanSignature b = builder.build(ctx, scheduler, 42);
      EXPECT_EQ(a.canonical, b.canonical);
      EXPECT_EQ(a.hash, b.hash);
    }
  }
}

/// The service under test, over the shared fixture with a small cache.
class PlanServiceTest : public ::testing::Test {
 protected:
  PlanServiceTest()
      : cache_(sched::PlanCache::from_spec("mem").value()),
        service_(motivation_fixture().batch, *motivation_fixture().predictor,
                 cache_) {}
  std::shared_ptr<sched::PlanCache> cache_;
  PlanService service_;
};

TEST_F(PlanServiceTest, FullBatchPlanMatchesDirectSchedulerByteForByte) {
  const auto& f = motivation_fixture();
  PlanRequest request;
  request.cap = 15.0;
  request.scheduler = "bnb";
  request.seed = 42;
  const auto planned = service_.plan(request);
  ASSERT_TRUE(planned.has_value());

  const auto ctx = f.context(15.0);
  auto direct = sched::make_scheduler("bnb", 42);
  const sched::Schedule expect = direct->plan(ctx);
  const sched::MakespanEvaluator evaluator(ctx);
  EXPECT_EQ(planned.value().text,
            render_plan_report(direct->name(),
                               expect.to_string(ctx.job_names()),
                               evaluator.makespan(expect),
                               sched::compute_lower_bound(ctx).t_low_tight));

  // Replanning the identical request is answered from the cache with the
  // identical bytes.
  const auto again = service_.plan(request);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again.value().text, planned.value().text);
  EXPECT_EQ(cache_->stats().hits, 1u);
}

TEST_F(PlanServiceTest, SubsetRequestPlansTheSubBatchInRequestOrder) {
  const auto& f = motivation_fixture();
  std::vector<std::string> names;
  for (const auto& job : f.batch.jobs()) names.push_back(job.instance_name);
  ASSERT_GE(names.size(), 3u);

  PlanRequest request;
  request.cap = 14.0;
  request.scheduler = "hcs+";
  // Deliberately not batch order: the request order defines the sub-batch.
  request.jobs = {names[2], names[0]};
  const auto planned = service_.plan(request);
  ASSERT_TRUE(planned.has_value());
  EXPECT_EQ(planned.value().job_names,
            (std::vector<std::string>{names[2], names[0]}));

  workload::Batch sub;
  for (const std::string& name : request.jobs) {
    for (const auto& job : f.batch.jobs()) {
      if (job.instance_name == name) {
        sub.add(job.descriptor, job.seed, job.instance_name);
      }
    }
  }
  sched::SchedulerContext ctx = f.context(14.0);
  ctx.batch = &sub;
  auto direct = sched::make_scheduler("hcs+", 42);
  EXPECT_EQ(planned.value().text,
            render_plan_report(
                direct->name(), direct->plan(ctx).to_string(ctx.job_names()),
                sched::MakespanEvaluator(ctx).makespan(direct->plan(ctx)),
                sched::compute_lower_bound(ctx).t_low_tight));
}

TEST_F(PlanServiceTest, BadRequestsFailWithoutPlanning) {
  PlanRequest unknown_scheduler;
  unknown_scheduler.scheduler = "simulated-annealing";
  EXPECT_FALSE(service_.plan(unknown_scheduler).has_value());

  PlanRequest unknown_policy;
  unknown_policy.policy = "npu";
  EXPECT_FALSE(service_.plan(unknown_policy).has_value());

  PlanRequest unknown_job;
  unknown_job.jobs = {"not-a-job"};
  EXPECT_FALSE(service_.plan(unknown_job).has_value());

  PlanRequest duplicate_job;
  const auto& f = motivation_fixture();
  duplicate_job.jobs = {f.batch.jobs()[0].instance_name,
                        f.batch.jobs()[0].instance_name};
  EXPECT_FALSE(service_.plan(duplicate_job).has_value());
}

// A request the planners cannot plan (here a cap below every job's floor
// power, which trips contract checks in the searches and the bound) is a
// failed Expected, not an exception, for every registered scheduler; the
// daemon answers it `error`.
TEST_F(PlanServiceTest, RefusedPlansFailInsteadOfThrowing) {
  for (const std::string& name : sched::scheduler_names()) {
    PlanRequest request;
    request.cap = 1.0;
    request.scheduler = name;
    Expected<PlanResult> planned = fail("unset");
    EXPECT_NO_THROW(planned = service_.plan(request)) << name;
    ASSERT_FALSE(planned.has_value()) << name;
    EXPECT_NE(planned.error().message.find("cannot plan"), std::string::npos)
        << planned.error().message;
  }
  PlanRequest refused;
  refused.cap = 1.0;
  EXPECT_FALSE(service_.explain(refused).has_value());

  ServeSession session(service_, ServeOptions{});
  TimedRequest timed;
  timed.request = refused;
  timed.arrival = std::chrono::steady_clock::now();
  const auto responses = session.serve_chunk({timed});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ResponseStatus::kError);
}

// explain() is a separate HCS run: the cache that answered the plan does
// not hide the decision trace, and the trace is the direct one.
TEST_F(PlanServiceTest, ExplainIsTheDirectHcsTraceWhateverTheCache) {
  const auto& f = motivation_fixture();
  PlanRequest request;
  request.cap = 14.0;
  request.scheduler = "hcs";
  ASSERT_TRUE(service_.plan(request).has_value());
  ASSERT_TRUE(service_.plan(request).has_value());  // a cache hit
  EXPECT_EQ(cache_->stats().hits, 1u);

  const auto ctx = f.context(14.0);
  sched::HcsTrace trace;
  (void)sched::HcsScheduler().plan_traced(ctx, &trace);
  const auto explained = service_.explain(request);
  ASSERT_TRUE(explained.has_value());
  EXPECT_FALSE(explained.value().empty());
  EXPECT_EQ(explained.value(), trace.to_string(ctx.job_names()));
}

TEST_F(PlanServiceTest, ServeChunkOrdersBySeqAndTriagesOverloadHonestly) {
  auto timed = [](std::uint64_t seq) {
    TimedRequest t;
    t.request.seq = seq;
    t.request.cap = 15.0;
    t.request.scheduler = "hcs+";
    t.arrival = std::chrono::steady_clock::now();
    return t;
  };

  // Out-of-order seqs come back ascending, all ok.
  {
    ServeSession session(service_, ServeOptions{});
    auto responses = session.serve_chunk({timed(5), timed(1), timed(3)});
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(responses[0].seq, 1u);
    EXPECT_EQ(responses[1].seq, 3u);
    EXPECT_EQ(responses[2].seq, 5u);
    for (const auto& r : responses) {
      EXPECT_EQ(r.status, ResponseStatus::kOk);
      EXPECT_EQ(r.body, responses[0].body);  // identical request, same bytes
    }
    EXPECT_EQ(session.stats().ok, 3u);
  }

  // Queue overflow: arrival order keeps the slot, the tail is busy.
  {
    ServeOptions options;
    options.queue_capacity = 1;
    ServeSession session(service_, options);
    auto responses = session.serve_chunk({timed(9), timed(2), timed(4)});
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(responses[0].seq, 2u);
    EXPECT_EQ(responses[0].status, ResponseStatus::kBusy);
    EXPECT_EQ(responses[2].seq, 9u);
    EXPECT_EQ(responses[2].status, ResponseStatus::kOk);
    EXPECT_EQ(session.stats().busy, 2u);
  }

  // Deadline: a request that aged past the budget is busy, not planned.
  // The stale request is an hour old and the budget is a minute, so a
  // loaded machine cannot age the fresh one past it.
  {
    ServeOptions options;
    options.deadline_seconds = 60.0;
    ServeSession session(service_, options);
    TimedRequest stale = timed(1);
    stale.arrival -= std::chrono::hours(1);
    auto responses = session.serve_chunk({std::move(stale), timed(2)});
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[0].status, ResponseStatus::kBusy);
    EXPECT_EQ(responses[0].message, "deadline exceeded");
    EXPECT_EQ(responses[1].status, ResponseStatus::kOk);
  }

  // A failing request degrades to an error response in its seq slot.
  {
    ServeSession session(service_, ServeOptions{});
    TimedRequest bad = timed(2);
    bad.request.scheduler = "nonsense";
    auto responses = session.serve_chunk({timed(3), std::move(bad)});
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[0].seq, 2u);
    EXPECT_EQ(responses[0].status, ResponseStatus::kError);
    EXPECT_EQ(responses[1].seq, 3u);
    EXPECT_EQ(responses[1].status, ResponseStatus::kOk);
    EXPECT_EQ(session.stats().errors, 1u);
  }
}

}  // namespace
}  // namespace corun::serve
