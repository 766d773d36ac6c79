// Workload `explore-exhaustive`: serial, plain sim::Explorer::explore (no
// transposition table, no partial-order reduction) over the three fixed
// instances of dfs.h, in whole rounds while another round fits the run.
//
// Untraced, an operation is one complete execution. Each instance's
// executions are cut into slices of kSliceExecutions consecutive ones, and
// every slice gives a time per execution (everything between its first and
// last visit, output check included) and the 50th and 90th percentile of
// its per-execution latency: the time from the end of one visitor call to
// the start of the next, i.e. the explorer's rewind, coroutine rebuild,
// steps and choice enumeration. Each of those three figures is reported at
// its minimum over all of the instance's slices in the run: the speed of
// the program when the host lets it run unhindered. On a shared host,
// neighbours slow the explorer by up to 2x in phases of seconds to minutes,
// with short quiet moments between; over sets of six to eight runs,
// whole-run averages of the same code spread by 11-30% of their median,
// the slice minima by 5-16%. Slices differ in cost, so the minimum comes
// from an instance's cheaper stretches; a change that speeds up every
// execution moves it in proportion. The instances are combined weighted by
// execution count, as one round takes them: ops_per_s is a round's
// executions over the time it takes at the reported per-instance times.
// The whole-run rate goes in the record.
//
// Traced, it runs dfs.h's own depth-first search through the public kernel
// calls, timing each layer, and requires the same execution count as
// Explorer::explore on every instance; then it runs the lint layer probes
// (lint.cpp).
#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "dfs.h"

namespace perfbench {

namespace {

/// Consecutive executions per timing slice: 10 to 40 ms on a 4-core Xeon
/// at 2 GHz, short against the seconds a neighbour's load lasts.
constexpr std::size_t kSliceExecutions = 4096;

}  // namespace

void run_explore(const RunContext& ctx, Result& r) {
  const Clock::time_point setup_start = Clock::now();
  const std::vector<Instance> instances = explore_instances();
  r.set("setup_s", seconds_since(setup_start), "s");
  if (ctx.setup_only) return;
  r.note("seed_use", "none: the instances are fixed and deterministic");

  if (ctx.trace) {
    Tracer tracer;
    DfsTiming timing;
    {
      const ScopedSpan round(tracer, "explore.round");
      timing = traced_dfs_report(instances, tracer, round.id(), r);
    }
    r.set("trace.overhead_frac", timing.traced_s / timing.plain_s - 1.0,
          "ratio");
    lint_layers(ctx, tracer, r);
    tracer.write(ctx.scratch + "/spans-explore-exhaustive.json");
    return;
  }

  // Per instance, the minima over its slices in all rounds.
  struct Slices {
    long count = 0;
    double ns_per_exec = std::numeric_limits<double>::infinity();
    double p50_ms = std::numeric_limits<double>::infinity();
    double p90_ms = std::numeric_limits<double>::infinity();
  };
  std::vector<Slices> slices(instances.size());
  long executions = 0;
  double explore_s = 0;
  int rounds = 0;
  std::vector<float> lat_ms;
  std::vector<Clock::time_point> cuts;
  const Clock::time_point run_start = Clock::now();
  double last_round_s = 0;
  while (rounds == 0 ||
         seconds_since(run_start) + last_round_s <= ctx.seconds) {
    const Clock::time_point round_start = Clock::now();
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const Instance& inst = instances[i];
      lat_ms.clear();
      cuts.clear();
      long failures = 0;
      const Clock::time_point t0 = Clock::now();
      Clock::time_point last = t0;
      const long n = bsr::sim::Explorer(inst.opts).explore(
          inst.make,
          [&](bsr::sim::Sim& sim, const std::vector<bsr::sim::Choice>&) {
            const Clock::time_point now = Clock::now();
            if (lat_ms.size() % kSliceExecutions == 0) cuts.push_back(now);
            lat_ms.push_back(static_cast<float>(ns_between(last, now)) / 1e6f);
            if (!inst.ok(sim)) ++failures;
            last = Clock::now();
          });
      explore_s += seconds_since(t0);
      r.tally(n, failures, inst.name + ": " + std::to_string(failures) +
                               " executions failed the output check");
      r.check(n == inst.expected, inst.name + ": visited " +
                                      std::to_string(n) + " executions, want " +
                                      std::to_string(inst.expected));
      executions += n;
      // Slice k runs from visit k*S to visit (k+1)*S; the partial last one
      // is dropped.
      Slices& sl = slices[i];
      for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
        std::vector<float> lat(
            lat_ms.begin() + static_cast<long>(k * kSliceExecutions) + 1,
            lat_ms.begin() + static_cast<long>((k + 1) * kSliceExecutions) +
                1);
        ++sl.count;
        sl.ns_per_exec = std::min(
            sl.ns_per_exec,
            static_cast<double>(ns_between(cuts[k], cuts[k + 1])) /
                static_cast<double>(kSliceExecutions));
        sl.p50_ms = std::min(sl.p50_ms, percentile(lat, 0.50));
        sl.p90_ms = std::min(sl.p90_ms, percentile(lat, 0.90));
      }
    }
    last_round_s = seconds_since(round_start);
    ++rounds;
  }

  double round_ns = 0;
  double p50_sum = 0;
  double p90_sum = 0;
  long per_round = 0;
  std::string slice_counts;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Slices& sl = slices[i];
    if (sl.count == 0) throw std::runtime_error("an instance has no slice");
    const auto n = static_cast<double>(instances[i].expected);
    round_ns += sl.ns_per_exec * n;
    p50_sum += sl.p50_ms * n;
    p90_sum += sl.p90_ms * n;
    per_round += instances[i].expected;
    slice_counts += (i ? ", " : "") + instances[i].name + " " +
                    std::to_string(sl.count);
  }
  const auto per_exec = static_cast<double>(per_round);
  r.set("ops_per_s", per_exec / round_ns * 1e9, "1/s");
  r.set("p50_ms", p50_sum / per_exec, "ms");
  r.set("p90_ms", p90_sum / per_exec, "ms");
  r.note("op", "one complete execution");
  r.note("rounds", std::to_string(rounds));
  r.note("executions", std::to_string(executions));
  r.note("whole_run_ops_per_s",
         std::to_string(static_cast<double>(executions) / explore_s));
  r.note("slices", slice_counts + " slices of " +
                       std::to_string(kSliceExecutions) +
                       " executions; every figure is the minimum over an "
                       "instance's slices");
}

}  // namespace perfbench
