// Transposition-table bench: wall-clock of the exhaustive explorer with
// and without state-space memoization (sim/tt.h + sim/zobrist.h).
//
// Schedules of independent steps commute, so the choice tree's node count
// is exponentially larger than its distinct-state count; the TT prunes
// every subtree whose root state a previous schedule already reached. Each
// case times the TT-disabled baseline (incremental engine, every schedule)
// against the TT-pruned run (one visit per distinct final state). That the
// pruned search keeps every finding is asserted by the differential tests
// (tests/explore_tt_slow_test.cpp), not here; the end-to-end explorer
// benchmark is perfbench/ (see perfbench/README.md).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "core/alg1.h"
#include "core/alg2.h"
#include "sim/explore.h"
#include "sim/tt.h"
#include "tasks/approx.h"
#include "topo/bmz.h"

namespace {

using namespace bsr;

struct Workload {
  sim::Explorer::Factory make;
  sim::ExploreOptions opts;
};

std::vector<Workload> workloads() {
  std::vector<Workload> ws;
  {
    Workload w;  // alg1 k=3
    w.make = []() {
      auto sim = std::make_unique<sim::Sim>(2);
      core::install_alg1(*sim, 3, {0, 1});
      sim->set_violation_collecting(true);
      return sim;
    };
    w.opts.max_steps = 2000;
    ws.push_back(std::move(w));
  }
  {
    // The Alg2 n=2 one-crash workload — the hot path of the suite.
    const tasks::ApproxAgreement aa(2, 3);
    std::vector<Value> domain;
    for (std::uint64_t v = 0; v <= 3; ++v) domain.emplace_back(v);
    const topo::Bmz2 bmz(tasks::materialize(aa, domain));
    Workload w;
    w.make = [plan = bmz.plan()]() {
      auto sim = std::make_unique<sim::Sim>(2);
      core::install_alg2(*sim, plan, tasks::Config{Value(0), Value(1)});
      sim->set_violation_collecting(true);
      return sim;
    };
    w.opts.max_steps = 500;
    w.opts.max_crashes = 1;
    ws.push_back(std::move(w));
  }
  return ws;
}

void BM_ExploreTT(benchmark::State& state) {
  const std::vector<Workload> ws = workloads();
  const Workload& w = ws[static_cast<std::size_t>(state.range(0))];
  const bool with_tt = state.range(1) != 0;
  long count = 0;
  for (auto _ : state) {
    sim::ExploreOptions opts = w.opts;
    opts.threads = 1;
    if (with_tt) {
      opts.tt = std::make_shared<sim::TranspositionTable>(std::size_t{1}
                                                          << 22);
    }
    count = sim::Explorer(opts).explore(
        w.make, [](sim::Sim&, const std::vector<sim::Choice>&) {});
  }
  state.counters[with_tt ? "states" : "executions"] =
      static_cast<double>(count);
}
// Arg0 = workload (0 alg1 k=3, 1 alg2 crashes<=1); Arg1 = 0 baseline /
// 1 TT-pruned.
BENCHMARK(BM_ExploreTT)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
