// The three benchmark workloads. Each builds its inputs from the seed,
// measures for the requested host time, checks every output, and fills a
// Result: end-to-end metrics in an untraced run, per-layer metrics in a
// traced one (see README.md for every definition).
#pragma once

#include "harness.hpp"

namespace perfbench {

/// Closed loop of seeded paper experiments: profile, characterize, plan
/// Default_G / HCS+ / BnB at 10, 15 and 20 W, execute, then one dynamic
/// run under a seeded fault plan.
Result run_offline_pipeline(const Options& options);

/// Open loop of seeded plan requests into a ServeSession at three fixed
/// offered rates, every request and response through the wire protocol.
Result run_plan_serving(const Options& options);

/// Closed loop of 256-machine Fleet::execute runs under a seeded fleet
/// event plan.
Result run_fleet_dynamic(const Options& options);

}  // namespace perfbench
