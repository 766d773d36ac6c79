// Registry-wide differential for the checkpointing memo: seeded random
// walks of step, crash and rewind(k) over every terminating registry
// protocol. After every action the checkpointed Sim, which answers steps
// from its memo and rewinds by moving cursors, must show the same process
// and shared state as a fresh, non-checkpointing Sim driven through the
// surviving schedule with every body resumed live.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/claims.h"
#include "sim/explore.h"
#include "sim/sim.h"
#include "util/rng.h"

namespace bsr::sim {
namespace {

/// Everything the kernel exposes about processes, registers, channels and
/// collected violations, rendered for a readable diff.
std::string render(const Sim& sim) {
  std::ostringstream os;
  for (Pid p = 0; p < sim.n(); ++p) {
    const OpRequest& req = sim.pending_request(p);
    os << "p" << p << " steps=" << sim.steps(p) << " alive=" << sim.alive(p)
       << " enabled=" << sim.enabled(p) << " terminated=" << sim.terminated(p)
       << " crashed=" << sim.crashed(p) << " pending=" << to_string(req.kind)
       << " reg=" << req.reg << " peer=" << req.peer << " value=" << req.value
       << " regs=";
    for (const int r : req.regs) os << r << ",";
    os << " recv_from=";
    for (const Pid q : sim.recv_choices(p)) os << q << ",";
    if (sim.terminated(p)) os << " decision=" << sim.decision(p);
    os << "\n";
  }
  for (int r = 0; r < sim.num_registers(); ++r) {
    const Register& reg = sim.register_info(r);
    os << reg.name << "=" << reg.value << " w=" << reg.writes
       << " r=" << reg.reads << " bits=" << reg.max_bits_written << "\n";
  }
  for (Pid a = 0; a < sim.n(); ++a) {
    for (Pid b = 0; b < sim.n(); ++b) {
      if (sim.channel_size(a, b) == 0) continue;
      os << "chan " << a << "->" << b << ":";
      for (const Value& v : sim.channel(a, b)) os << " " << v;
      os << "\n";
    }
  }
  for (const ModelEvent& e : sim.model_violations()) {
    os << "violation " << to_string(e.kind) << " p" << e.pid << " r" << e.reg
       << " @" << e.step_index << " " << e.message << "\n";
  }
  os << "total_steps=" << sim.total_steps();
  return os.str();
}

/// The oracle: a fresh world stepped through `schedule` without
/// checkpointing, so every step resumes its body live.
std::string replayed(const analysis::ProtocolSpec& spec,
                     const std::vector<Choice>& schedule) {
  std::unique_ptr<Sim> sim = spec.factory();
  sim->set_violation_collecting(true);
  for (const Choice& c : schedule) {
    if (c.kind == Choice::Kind::Step) {
      sim->step(c.pid, c.recv_from);
    } else {
      sim->crash(c.pid);
    }
  }
  return render(*sim);
}

/// Adds the walk's fast-forward resumes to `fast_forwards`.
void walk(const analysis::ProtocolSpec& spec, std::uint64_t seed,
          int actions, long& fast_forwards) {
  std::unique_ptr<Sim> sim = spec.factory();
  sim->set_violation_collecting(true);
  sim->set_checkpointing(true);
  ExploreOptions opts = spec.explore;
  opts.max_crashes = std::max(opts.max_crashes, 1);
  Rng rng(seed);
  std::vector<Choice> schedule;
  std::vector<int> crashes_at{0};  // crash count per schedule length
  for (int a = 0; a < actions; ++a) {
    const std::vector<Choice> cs =
        detail::legal_choices(*sim, crashes_at.back(), opts);
    if (!schedule.empty() && (cs.empty() || rng.chance(1, 4))) {
      const std::size_t k = 1 + rng.below(schedule.size());
      sim->rewind(k);
      schedule.resize(schedule.size() - k);
      crashes_at.resize(crashes_at.size() - k);
    } else if (!cs.empty()) {
      const Choice& c = cs[rng.below(cs.size())];
      if (c.kind == Choice::Kind::Step) {
        sim->step(c.pid, c.recv_from);
      } else {
        sim->crash(c.pid);
      }
      schedule.push_back(c);
      crashes_at.push_back(crashes_at.back() +
                           (c.kind == Choice::Kind::Crash ? 1 : 0));
    } else {
      break;
    }
    ASSERT_EQ(sim->history_size(), schedule.size());
    ASSERT_EQ(render(*sim), replayed(spec, schedule))
        << "diverged after action " << a << " (schedule length "
        << schedule.size() << ")";
  }
  EXPECT_GT(sim->resume_stats().memo_hits, 0);
  fast_forwards += sim->resume_stats().replayed;
}

TEST(SimMemoSlow, RandomWalksMatchALiveReplayOnEveryRegistryProtocol) {
  long fast_forwards = 0;
  for (const analysis::ProtocolSpec& spec : analysis::builtin_protocols()) {
    if (spec.sample_runner) continue;  // serve-forever: never terminates
    std::unique_ptr<Sim> sim = spec.factory();
    if (sim->total_steps() > 0) continue;  // pre-stepped: cannot checkpoint
    for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
      SCOPED_TRACE(spec.name + " seed " + std::to_string(seed));
      walk(spec, seed, 400, fast_forwards);
      if (HasFatalFailure()) return;
    }
  }
  // Misses after rewinds rebuild stale coroutines, so the walks cover the
  // fast-forward path as well as memo hits.
  EXPECT_GT(fast_forwards, 0);
}

}  // namespace
}  // namespace bsr::sim
