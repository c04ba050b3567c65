#include "corun/sim/fault_injector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

namespace corun::sim {
namespace {

TEST(FaultKind, NameRoundTrip) {
  for (const FaultKind k :
       {FaultKind::kArrival, FaultKind::kCancel, FaultKind::kCapSet,
        FaultKind::kProfileNoise, FaultKind::kMeterDropout}) {
    const auto parsed = parse_fault_kind(fault_kind_name(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed.value(), k);
  }
  EXPECT_FALSE(parse_fault_kind("meteor").has_value());
}

FaultEvent event_at(Seconds time, FaultKind kind) {
  FaultEvent e;
  e.time = time;
  e.kind = kind;
  return e;
}

TEST(FaultPlan, ValidateRejectsBrokenEvents) {
  FaultPlan plan;
  plan.events.push_back(event_at(-1.0, FaultKind::kCancel));
  EXPECT_FALSE(plan.validate().has_value());

  plan.events.clear();
  plan.events.push_back(event_at(5.0, FaultKind::kCancel));
  plan.events.push_back(event_at(1.0, FaultKind::kCancel));
  EXPECT_FALSE(plan.validate().has_value());  // unsorted
  plan.sort();
  EXPECT_TRUE(plan.validate().has_value());

  plan.events.push_back(event_at(9.0, FaultKind::kArrival));
  plan.events.back().program = "";
  EXPECT_FALSE(plan.validate().has_value());  // arrival without program

  plan.events.back() = event_at(9.0, FaultKind::kMeterDropout);
  plan.events.back().duration = 0.0;
  EXPECT_FALSE(plan.validate().has_value());  // zero-length dropout

  // NaN fails every range test.
  plan.events.back() = event_at(std::nan(""), FaultKind::kCancel);
  EXPECT_FALSE(plan.validate().has_value());
  plan.events.back() = event_at(9.0, FaultKind::kArrival);
  plan.events.back().program = "lud";
  plan.events.back().input_scale = std::nan("");
  EXPECT_FALSE(plan.validate().has_value());
  plan.events.back() = event_at(9.0, FaultKind::kCapSet);
  plan.events.back().cap = std::nan("");
  EXPECT_FALSE(plan.validate().has_value());
}

TEST(FaultPlan, CsvRejectsMalformedCells) {
  const std::string header =
      "time,kind,program,input_scale,seed,target,cap,factor,duration\n";
  EXPECT_TRUE(fault_plan_from_csv(header + "5,cap,-,-,-,-,12,-,-\n")
                  .has_value());
  for (const char* row : {
           "nan,cap,-,-,-,-,12,-,-",          // time nan
           "5x,cap,-,-,-,-,12,-,-",           // trailing text
           "5,cap,-,-,-,-,12abc,-,-",
           "5,cap,-,-,-,-,inf,-,-",           // cap inf
           "1,arrival,lud,nan,7,-,-,-,-",     // input scale nan
           "1,arrival,lud,1,-7,-,-,-,-",      // signed seed
           "1,cancel,-,-,-,2.5,-,-,-",        // fractional target
           "5,cap,-,-,-,-,12,-",              // arity
       }) {
    const auto plan = fault_plan_from_csv(header + row + "\n");
    ASSERT_FALSE(plan.has_value()) << row;
    EXPECT_EQ(plan.error().category, ErrorCategory::kParse) << row;
  }
  EXPECT_FALSE(fault_plan_from_csv("").has_value()) << "no header";
  EXPECT_FALSE(fault_plan_from_csv("time,kind\n").has_value());
}

TEST(FaultPlan, CsvRoundTripIsExact) {
  FaultInjectorOptions opts;
  opts.arrivals = 3;
  opts.cancellations = 2;
  opts.cap_changes = 2;
  opts.noise_events = 1;
  opts.dropouts = 1;
  const FaultPlan plan = FaultInjector(opts, 123).generate();
  ASSERT_EQ(plan.size(), 9u);

  std::ostringstream oss;
  fault_plan_to_csv(plan, oss);
  const auto loaded = fault_plan_from_csv(oss.str());
  ASSERT_TRUE(loaded.has_value()) << loaded.error().message;
  ASSERT_EQ(loaded.value().size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const FaultEvent& a = plan.events[i];
    const FaultEvent& b = loaded.value().events[i];
    EXPECT_EQ(a.time, b.time);  // %.17g must survive the round trip exactly
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.program, b.program);
    EXPECT_EQ(a.input_scale, b.input_scale);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.target, b.target);
    EXPECT_EQ(a.cap.has_value(), b.cap.has_value());
    if (a.cap) {
      EXPECT_EQ(*a.cap, *b.cap);
    }
    EXPECT_EQ(a.factor, b.factor);
    EXPECT_EQ(a.duration, b.duration);
  }
}

TEST(FaultInjector, SameSeedSamePlan) {
  const FaultInjectorOptions opts;
  const FaultPlan a = FaultInjector(opts, 7).generate();
  const FaultPlan b = FaultInjector(opts, 7).generate();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events[i].time, b.events[i].time);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].seed, b.events[i].seed);
  }
}

TEST(FaultInjector, DifferentSeedsDiffer) {
  const FaultInjectorOptions opts;
  const FaultPlan a = FaultInjector(opts, 1).generate();
  const FaultPlan b = FaultInjector(opts, 2).generate();
  ASSERT_EQ(a.size(), b.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff = any_diff || a.events[i].time != b.events[i].time;
  }
  EXPECT_TRUE(any_diff);
}

TEST(FaultInjector, KindStreamsAreIndependent) {
  // Adding arrivals must not move the cap-change times: each kind draws
  // from its own forked stream.
  FaultInjectorOptions small;
  small.arrivals = 1;
  small.cap_changes = 2;
  FaultInjectorOptions big = small;
  big.arrivals = 5;

  auto cap_times = [](const FaultPlan& plan) {
    std::vector<Seconds> out;
    for (const FaultEvent& e : plan.events) {
      if (e.kind == FaultKind::kCapSet) out.push_back(e.time);
    }
    return out;
  };
  EXPECT_EQ(cap_times(FaultInjector(small, 11).generate()),
            cap_times(FaultInjector(big, 11).generate()));
}

TEST(FaultSpec, ParsesCountsAndSeed) {
  const auto plan = generate_fault_plan_from_spec(
      "random:arrivals=3,cancels=1,caps=2,noise=0,dropouts=1,horizon=60,"
      "seed=9,programs=srad+lud");
  ASSERT_TRUE(plan.has_value()) << plan.error().message;
  int arrivals = 0, cancels = 0, caps = 0, dropouts = 0;
  for (const FaultEvent& e : plan.value().events) {
    EXPECT_LE(e.time, 60.0);
    switch (e.kind) {
      case FaultKind::kArrival:
        ++arrivals;
        EXPECT_TRUE(e.program == "srad" || e.program == "lud");
        break;
      case FaultKind::kCancel: ++cancels; break;
      case FaultKind::kCapSet: ++caps; break;
      case FaultKind::kMeterDropout: ++dropouts; break;
      default: ADD_FAILURE() << "unexpected kind"; break;
    }
  }
  EXPECT_EQ(arrivals, 3);
  EXPECT_EQ(cancels, 1);
  EXPECT_EQ(caps, 2);
  EXPECT_EQ(dropouts, 1);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  for (const char* spec : {
           "arrivals=3",
           "random:arrivals",
           "random:bogus=1",
           "random:horizon=-5",
           "random:arrivals=many",
           "random:arrivals=1,horizon=nan,seed=3",
           "random:caps=1,cap-low=20,cap-high=10,seed=3",  // low > high
           "random:arrivals=1x",
           "random:arrivals=-1",
           "random:seed=-3",
           "random:horizon=inf",
       }) {
    const auto plan = generate_fault_plan_from_spec(spec);
    ASSERT_FALSE(plan.has_value()) << spec;
    EXPECT_EQ(plan.error().category, ErrorCategory::kParse) << spec;
  }
  // An empty program pool reads fine but draws arrivals without a program.
  EXPECT_FALSE(
      generate_fault_plan_from_spec("random:arrivals=1,programs=").has_value());
}

}  // namespace
}  // namespace corun::sim
