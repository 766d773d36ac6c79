// Exploration instances and the traced depth-first search over them.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "sim/explore.h"
#include "sim/sim.h"

namespace perfbench {

/// One exhaustive exploration: a factory, its options (always serial, no
/// table, no reduction), the execution count it must produce and the
/// output check every execution must pass.
struct Instance {
  std::string name;
  bsr::sim::Explorer::Factory make;
  bsr::sim::ExploreOptions opts;
  long expected = 0;
  std::function<bool(const bsr::sim::Sim&)> ok;
};

/// alg1-k5, alg2-c1 and the snapshot prefix of explore-exhaustive.
[[nodiscard]] std::vector<Instance> explore_instances();

/// Wall time of the traced DFS and of the plain explorer over the same
/// instances: the two sides of trace.overhead_frac.
struct DfsTiming {
  double traced_s = 0;
  double plain_s = 0;
};

/// Traced DFS over every instance: checks each count against
/// Explorer::explore and sets the sim.* per-layer metrics, in total and
/// once more per instance with the instance name as suffix.
DfsTiming traced_dfs_report(const std::vector<Instance>& instances,
                            Tracer& tracer, int parent, Result& r);

}  // namespace perfbench
