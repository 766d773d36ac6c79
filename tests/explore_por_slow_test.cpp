// Full-registry differential: sleep-set partial-order reduction vs the
// ReplayExplorer oracle on EVERY terminating registry protocol, alone and
// composed with transposition-table pruning. The fast smoke subset of the
// same properties lives in explore_por_test.cpp; this sweep carries the
// `slow` ctest label.
//
// The acceptance statement of the reduction, per protocol:
//   * POR alone visits at most as many schedules as the full search and
//     reaches exactly the same final-configuration set and the same
//     violation findings (bit-identical keys, not just kinds);
//   * POR + TT visits exactly one schedule per distinct final
//     configuration — the same count TT alone reports — with zero drops.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/claims.h"
#include "core/alg1.h"
#include "sim/explore.h"
#include "sim/sim.h"
#include "sim/tt.h"
#include "sim/zobrist.h"

namespace bsr::sim {
namespace {

std::string violation_key(const ModelEvent& e) {
  return to_string(e.kind) + "|" + std::to_string(e.pid) + "|" +
         std::to_string(e.reg) + "|" + e.message;
}

struct Observed {
  long count = 0;
  std::set<std::uint64_t> finals;
  std::set<std::string> violations;
};

TEST(ExplorePorSlow, MatchesReplayOracleOnEveryTerminatingRegistryProtocol) {
  long reduced_somewhere = 0;
  for (const analysis::ProtocolSpec& spec : analysis::builtin_protocols()) {
    if (spec.sample_runner) continue;  // non-terminating: sampled, never swept
    SCOPED_TRACE(spec.name);
    {
      // Pre-stepped factories make the Explorer delegate to the replay
      // engine (which ignores por and tt), so the differential is vacuous.
      const auto probe = spec.factory();
      ASSERT_NE(probe, nullptr);
      if (probe->total_steps() > 0) continue;
    }
    const auto make = [&spec] {
      auto sim = spec.factory();
      sim->set_violation_collecting(true);  // demos violate by design
      return sim;
    };

    // Ground truth: every schedule via rebuild-and-replay, with final
    // states collapsed by the from-scratch hash oracle.
    Observed oracle;
    {
      const auto ckpt = [&make] {
        auto sim = make();
        sim->set_checkpointing(true);  // full_hash reads the result logs
        return sim;
      };
      ExploreOptions opts = spec.explore;
      opts.threads = 1;
      oracle.count = ReplayExplorer(opts).explore(
          ckpt, [&](Sim& sim, const std::vector<Choice>&) {
            oracle.finals.insert(zobrist::full_hash(sim));
            for (const ModelEvent& e : sim.model_violations()) {
              oracle.violations.insert(violation_key(e));
            }
          });
    }

    // POR alone: one representative per commutation class — same finals,
    // same violation findings, never more schedules than the full search.
    {
      ExploreOptions opts = spec.explore;
      opts.por = true;
      opts.threads = 1;
      Observed por;
      por.count = Explorer(opts).explore(
          [&make] {
            auto sim = make();
            sim->set_checkpointing(true);
            return sim;
          },
          [&](Sim& sim, const std::vector<Choice>&) {
            por.finals.insert(zobrist::full_hash(sim));
            for (const ModelEvent& e : sim.model_violations()) {
              por.violations.insert(violation_key(e));
            }
          });
      EXPECT_LE(por.count, oracle.count);
      EXPECT_EQ(por.finals, oracle.finals);
      EXPECT_EQ(por.violations, oracle.violations);
      if (por.count < oracle.count) ++reduced_somewhere;
    }

    // POR + TT: exactly one visit per distinct final configuration (the
    // empty-sleep publication discipline), same finals, same findings.
    {
      auto tt = std::make_shared<TranspositionTable>(std::size_t{16} << 20);
      ExploreOptions opts = spec.explore;
      opts.por = true;
      opts.tt = tt;
      opts.threads = 1;
      Observed both;
      both.count = Explorer(opts).explore(
          make, [&](Sim& sim, const std::vector<Choice>&) {
            both.finals.insert(sim.state_hash());
            for (const ModelEvent& e : sim.model_violations()) {
              both.violations.insert(violation_key(e));
            }
          });
      ASSERT_EQ(tt->stats().drops, 0);
      EXPECT_EQ(both.count, static_cast<long>(oracle.finals.size()));
      EXPECT_EQ(both.finals, oracle.finals);
      EXPECT_EQ(both.violations, oracle.violations);
    }

    // POR + TT on the parallel engine: the frontier jobs re-seed the serial
    // sleep sets, so the reduced tree — and therefore the count — is the
    // same.
    {
      auto tt = std::make_shared<TranspositionTable>(std::size_t{16} << 20);
      ExploreOptions opts = spec.explore;
      opts.por = true;
      opts.tt = tt;
      opts.threads = 4;
      long count = 0;
      std::set<std::uint64_t> finals;
      count = Explorer(opts).explore(
          make, [&](Sim& sim, const std::vector<Choice>&) {
            finals.insert(sim.state_hash());
          });
      ASSERT_EQ(tt->stats().drops, 0);
      EXPECT_EQ(count, static_cast<long>(oracle.finals.size()));
      EXPECT_EQ(finals, oracle.finals);
    }
  }
  // The sweep must demonstrate an actual reduction on at least one
  // protocol, or the POR plumbing is dead code.
  EXPECT_GT(reduced_somewhere, 0);
}

/// n processes, each writing only its own register `writes` times: every
/// cross-process pair of ops is independent, the state graph is a
/// (w+1)^n grid, and the sleep sets collapse it to about one path.
Explorer::Factory make_independent_writers(int n, int writes) {
  return [n, writes] {
    auto sim = std::make_unique<Sim>(n);
    for (Pid p = 0; p < n; ++p) {
      const int reg =
          sim->add_register("own" + std::to_string(p), p, kUnbounded,
                            Value(0));
      sim->spawn(p, [reg, writes](Env& env) -> Proc {
        for (int i = 1; i <= writes; ++i) {
          co_await env.write(reg, Value(static_cast<std::uint64_t>(i)));
        }
        co_return Value(0);
      });
    }
    return sim;
  };
}

// Larger instantiations than the registry sweep, including the
// independent-writers class POR exists for (bench/bench_explore_por.cpp
// times alg1 k=3 and n=4 w=10): POR+TT must reach exactly TT-only's final
// configurations and violation keys, with no drop on either table. Where
// the full schedule tree is small enough, the unpruned search must agree
// too.
TEST(ExplorePorSlow, ComposedSearchMatchesTtOnBenchWorkloads) {
  struct Case {
    std::string name;
    Explorer::Factory make;
    bool plain_feasible;
  };
  std::vector<Case> cases;
  for (const std::uint64_t k : {3ull, 4ull}) {
    cases.push_back({"alg1 k=" + std::to_string(k),
                     [k] {
                       auto sim = std::make_unique<Sim>(2);
                       core::install_alg1(*sim, k, {0, 1});
                       sim->set_violation_collecting(true);
                       return sim;
                     },
                     true});
  }
  // n=4 w=2: 12!/(3!)^4 = 369600 schedules (the coroutine start counts as
  // a step). n=4 w=10: about 10^23 schedules, so TT-only is the baseline.
  cases.push_back({"indep-writers n=4 w=2", make_independent_writers(4, 2),
                   true});
  cases.push_back({"indep-writers n=4 w=10", make_independent_writers(4, 10),
                   false});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ExploreOptions base;
    base.max_steps = 2000;
    base.threads = 1;
    const auto pruned = [&](bool por) {
      auto tt = std::make_shared<TranspositionTable>(std::size_t{1} << 22);
      ExploreOptions opts = base;
      opts.tt = tt;
      opts.por = por;
      Observed obs;
      obs.count = Explorer(opts).explore(
          c.make, [&obs](Sim& sim, const std::vector<Choice>&) {
            obs.finals.insert(sim.state_hash());
            for (const ModelEvent& e : sim.model_violations()) {
              obs.violations.insert(violation_key(e));
            }
          });
      EXPECT_EQ(tt->stats().drops, 0);
      return obs;
    };
    const Observed tt = pruned(false);
    const Observed both = pruned(true);
    EXPECT_EQ(both.count, tt.count);
    EXPECT_EQ(both.finals, tt.finals);
    EXPECT_EQ(both.violations, tt.violations);
    if (!c.plain_feasible) continue;

    // The unpruned leg identifies finals with the from-scratch hash, which
    // reads the per-process result logs: checkpointing required.
    Observed plain;
    plain.count = Explorer(base).explore(
        [&c] {
          auto sim = c.make();
          sim->set_checkpointing(true);
          return sim;
        },
        [&plain](Sim& sim, const std::vector<Choice>&) {
          plain.finals.insert(zobrist::full_hash(sim));
          for (const ModelEvent& e : sim.model_violations()) {
            plain.violations.insert(violation_key(e));
          }
        });
    EXPECT_EQ(plain.finals, tt.finals);
    EXPECT_EQ(plain.violations, tt.violations);
  }
}

}  // namespace
}  // namespace bsr::sim
