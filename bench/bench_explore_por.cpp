// Partial-order-reduction bench: wall-clock of the exhaustive explorer
// with transposition-table pruning alone vs composed with sleep-set POR
// (ExploreOptions::por, fed by analysis/static/interference.h).
//
// The TT collapses reconvergent states but still *expands* every reachable
// state once; the sleep sets stop commuting interleavings from being
// generated at all, so on workloads rich in independent ops the composed
// engine touches a small fraction of the state graph's edges. That both
// legs reach the same finals and findings is asserted by the differential
// tests (tests/explore_por_slow_test.cpp), not here; the end-to-end
// explorer benchmark is perfbench/ (see perfbench/README.md).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "core/alg1.h"
#include "sim/explore.h"
#include "sim/sim.h"
#include "sim/tt.h"

namespace {

using namespace bsr;

struct Workload {
  sim::Explorer::Factory make;
  sim::ExploreOptions opts;
};

/// n processes, each writing ONLY its own register `writes` times: every
/// cross-process pair of ops is independent, so the state graph is a
/// (w+1)^n grid for the TT, and the sleep sets collapse the whole thing to
/// essentially one representative path. This is the workload class POR
/// exists for.
sim::Explorer::Factory make_independent_writers(int n, int writes) {
  return [n, writes]() {
    auto sim = std::make_unique<sim::Sim>(n);
    for (sim::Pid p = 0; p < n; ++p) {
      const int reg = sim->add_register("own" + std::to_string(p), p,
                                        sim::kUnbounded, Value(0));
      sim->spawn(p, [reg, writes](sim::Env& env) -> sim::Proc {
        for (int i = 1; i <= writes; ++i) {
          co_await env.write(reg, Value(static_cast<std::uint64_t>(i)));
        }
        co_return Value(0);
      });
    }
    return sim;
  };
}

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
    Workload w;  // indep-writers n=4 w=10
    w.make = make_independent_writers(4, 10);
    w.opts.max_steps = 2000;
    ws.push_back(std::move(w));
  }
  return ws;
}

void BM_ExplorePor(benchmark::State& state) {
  const std::vector<Workload> ws = workloads();
  const Workload& w = ws[static_cast<std::size_t>(state.range(0))];
  const bool por = state.range(1) != 0;
  long count = 0;
  for (auto _ : state) {
    sim::ExploreOptions opts = w.opts;
    opts.threads = 1;
    opts.por = por;
    opts.tt = std::make_shared<sim::TranspositionTable>(std::size_t{1} << 22);
    count = sim::Explorer(opts).explore(
        w.make, [](sim::Sim&, const std::vector<sim::Choice>&) {});
  }
  state.counters["states"] = static_cast<double>(count);
}
// Arg0 = workload (0 alg1 k=3, 1 indep-writers n=4 w=10); Arg1 = 0 TT-only
// / 1 POR+TT.
BENCHMARK(BM_ExplorePor)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
