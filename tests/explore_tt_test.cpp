// Differential tests for transposition-table pruning (sim/tt.h).
//
// Semantics under a TT: the explorer visits each distinct reachable world
// state exactly once, so the leaf count equals the number of distinct final
// configurations (not schedules), and the SET of final states / violations
// is identical to the unpruned search — checked here against the
// ReplayExplorer oracle, which knows nothing about hashing or rewinding.
// All exactness claims require stats().drops == 0 (a full probe window
// falls back to exploring, which is sound but double-counts).
#include "sim/tt.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "sim/explore.h"
#include "sim/sim.h"
#include "sim/zobrist.h"

namespace bsr::sim {
namespace {

std::unique_ptr<Sim> make_pair_sim() {
  auto sim = std::make_unique<Sim>(2);
  const int r0 = sim->add_register("R0", 0, kUnbounded, Value(0));
  const int r1 = sim->add_register("R1", 1, kUnbounded, Value(0));
  auto body = [r0, r1](Env& env) -> Proc {
    const int mine = env.pid() == 0 ? r0 : r1;
    const int theirs = env.pid() == 0 ? r1 : r0;
    co_await env.write(mine, Value(1));
    const OpResult got = co_await env.read(theirs);
    co_return got.value;
  };
  sim->spawn(0, body);
  sim->spawn(1, body);
  return sim;
}

/// Two multi-writer processes racing a single write-once register: the
/// world state converges under both write orders but the violation log
/// blames a different pid in each.
std::unique_ptr<Sim> make_write_once_race() {
  auto sim = std::make_unique<Sim>(2);
  const int reg = sim->add_input_register("W", -1);
  auto body = [reg](Env& env) -> Proc {
    co_await env.write(reg, Value(7));
    co_return Value(0);
  };
  sim->spawn(0, body);
  sim->spawn(1, body);
  sim->set_violation_collecting(true);
  return sim;
}

/// Two senders racing into one receiver, exercising the channel-queue hash
/// components.
std::unique_ptr<Sim> make_recv_race() {
  auto sim = std::make_unique<Sim>(3);
  sim->spawn(0, [](Env& env) -> Proc {
    co_await env.send(2, Value(10));
    co_return Value(0);
  });
  sim->spawn(1, [](Env& env) -> Proc {
    co_await env.send(2, Value(20));
    co_return Value(0);
  });
  sim->spawn(2, [](Env& env) -> Proc {
    const OpResult m = co_await env.recv();
    co_return m.value;
  });
  return sim;
}

std::string violation_key(const ModelEvent& e) {
  return to_string(e.kind) + "|" + std::to_string(e.pid) + "|" +
         std::to_string(e.reg) + "|" + e.message;
}

/// What one exploration saw, in path-order-independent form.
struct Observed {
  long count = 0;
  std::set<std::uint64_t> finals;       ///< Hashes of distinct final states.
  std::set<std::string> violations;     ///< Deduped violation keys.
};

/// Ground truth via the replay engine (explores every SCHEDULE; distinct
/// final states are collapsed here with the from-scratch hash oracle).
Observed replay_oracle(const Explorer::Factory& make,
                       const ExploreOptions& opts) {
  Observed obs;
  const auto ckpt = [&make] {
    auto sim = make();
    sim->set_checkpointing(true);  // full_hash reads the result logs
    return sim;
  };
  ExploreOptions plain = opts;
  plain.tt.reset();
  plain.threads = 1;
  obs.count = ReplayExplorer(plain).explore(
      ckpt, [&](Sim& sim, const std::vector<Choice>&) {
        obs.finals.insert(zobrist::full_hash(sim));
        for (const ModelEvent& e : sim.model_violations()) {
          obs.violations.insert(violation_key(e));
        }
      });
  return obs;
}

/// The same exploration through the incremental engine with a fresh TT.
Observed tt_run(const Explorer::Factory& make, ExploreOptions opts,
                bool symmetry = false, int threads = 1) {
  Observed obs;
  auto tt = std::make_shared<TranspositionTable>(std::size_t{1} << 22);
  opts.tt = tt;
  opts.tt_symmetry = symmetry;
  opts.threads = threads;
  opts.concurrent_visitor = false;  // shared Observed, serialize the visitor
  obs.count = Explorer(opts).explore(
      make, [&](Sim& sim, const std::vector<Choice>&) {
        obs.finals.insert(sim.state_hash());
        for (const ModelEvent& e : sim.model_violations()) {
          obs.violations.insert(violation_key(e));
        }
      });
  EXPECT_EQ(tt->stats().drops, 0) << "probe window overflowed; grow the table";
  EXPECT_GT(tt->stats().stores, 0);
  return obs;
}

TEST(ExploreTT, FirstVisitClaimsEachHashOnce) {
  TranspositionTable tt(std::size_t{1} << 16);
  EXPECT_TRUE(tt.first_visit(42));
  EXPECT_FALSE(tt.first_visit(42));
  EXPECT_TRUE(tt.first_visit(0));  // zero remaps to a sentinel, still works
  EXPECT_FALSE(tt.first_visit(0));
  EXPECT_TRUE(tt.first_visit(7));
  const TranspositionTable::Stats s = tt.stats();
  EXPECT_EQ(s.probes, 5);
  EXPECT_EQ(s.stores, 3);
  EXPECT_EQ(s.hits, 2);
  EXPECT_EQ(s.drops, 0);
  EXPECT_GE(s.slots * 8, std::size_t{1} << 16);
}

TEST(ExploreTT, PrunesToDistinctFinalStatesOnPairRace) {
  const Observed oracle = replay_oracle(make_pair_sim, ExploreOptions{});
  EXPECT_EQ(oracle.count, 20);  // schedules: interleavings of 3+3 steps
  // Final states: both registers hold 1; the reads give (0,1), (1,0) or
  // (1,1) — reading 0 on both sides is impossible.
  EXPECT_EQ(oracle.finals.size(), 3u);

  const Observed tt = tt_run(make_pair_sim, ExploreOptions{});
  EXPECT_EQ(tt.count, 3);
  EXPECT_EQ(tt.finals, oracle.finals);
}

TEST(ExploreTT, PreservesChannelStatesOnRecvRace) {
  const Observed oracle = replay_oracle(make_recv_race, ExploreOptions{});
  const Observed tt = tt_run(make_recv_race, ExploreOptions{});
  EXPECT_EQ(tt.count, static_cast<long>(oracle.finals.size()));
  EXPECT_EQ(tt.finals, oracle.finals);
}

TEST(ExploreTT, ConvergedStatesWithDistinctViolationBlameAreKept) {
  const Observed oracle = replay_oracle(make_write_once_race, ExploreOptions{});
  EXPECT_EQ(oracle.count, 6);
  // The two write orders converge in world state but not in the violation
  // log (a different pid is blamed), so the pruned search must still reach
  // both final states and report both findings.
  EXPECT_EQ(oracle.finals.size(), 2u);
  ASSERT_EQ(oracle.violations.size(), 2u);

  const Observed tt = tt_run(make_write_once_race, ExploreOptions{});
  EXPECT_EQ(tt.count, 2);
  EXPECT_EQ(tt.finals, oracle.finals);
  EXPECT_EQ(tt.violations, oracle.violations);
}

TEST(ExploreTT, SymmetryCollapsesPidRenamingsButKeepsViolationKinds) {
  // pair race: (0,1) and (1,0) are pid-renamings of each other; (1,1) is
  // symmetric. 3 distinct finals collapse to 2 canonical ones.
  const Observed sym = tt_run(make_pair_sim, ExploreOptions{}, true);
  EXPECT_EQ(sym.count, 2);

  // Symmetry deliberately ignores pid attribution in violations (messages
  // embed pid numbers), so the two blame orders of the write-once race
  // collapse — but a write_once finding must survive.
  const Observed oracle = replay_oracle(make_write_once_race, ExploreOptions{});
  const Observed sym2 = tt_run(make_write_once_race, ExploreOptions{}, true);
  EXPECT_EQ(sym2.count, 1);
  auto kinds = [](const std::set<std::string>& keys) {
    std::set<std::string> out;
    for (const std::string& k : keys) out.insert(k.substr(0, k.find('|')));
    return out;
  };
  EXPECT_EQ(kinds(sym2.violations), kinds(oracle.violations));
}

TEST(ExploreTT, ParallelCountMatchesSerialCount) {
  const Observed serial = tt_run(make_pair_sim, ExploreOptions{});
  const Observed par = tt_run(make_pair_sim, ExploreOptions{}, false, 4);
  EXPECT_EQ(par.count, serial.count);
  EXPECT_EQ(par.finals, serial.finals);

  const Observed serial2 = tt_run(make_recv_race, ExploreOptions{});
  const Observed par2 = tt_run(make_recv_race, ExploreOptions{}, false, 4);
  EXPECT_EQ(par2.count, serial2.count);
  EXPECT_EQ(par2.finals, serial2.finals);
}

TEST(ExploreTT, SharedTableMemoizesWholeRepeatedSearches) {
  auto tt = std::make_shared<TranspositionTable>(std::size_t{1} << 20);
  ExploreOptions opts;
  opts.tt = tt;
  const Explorer ex(opts);
  const long first = ex.explore(make_pair_sim,
                                [](Sim&, const std::vector<Choice>&) {});
  EXPECT_EQ(first, 3);
  // Same factory, same table: the root state is already claimed, so the
  // whole search is pruned at depth zero.
  const long second = ex.explore(make_pair_sim,
                                 [](Sim&, const std::vector<Choice>&) {});
  EXPECT_EQ(second, 0);
}

// Raw concurrency stress: many threads race first_visit over overlapping
// value streams; exactly one thread must win each distinct value. Run under
// TSan in CI (the suite name matches the Explore filter there).
TEST(ExploreTTStress, ConcurrentFirstVisitClaimsEachValueOnce) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kValues = 20000;
  TranspositionTable tt(std::size_t{4} << 20);  // ~26x headroom: no drops
  std::vector<std::atomic<int>> wins(kValues);
  for (auto& w : wins) w.store(0, std::memory_order_relaxed);
  {
    std::vector<std::jthread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&tt, &wins, t] {
        // Each thread walks the values from a different offset so the
        // races spread over the whole table.
        for (std::uint64_t i = 0; i < kValues; ++i) {
          const std::uint64_t v =
              (i + static_cast<std::uint64_t>(t) * (kValues / kThreads)) %
              kValues;
          // Mix so consecutive values do not probe adjacent slots.
          if (tt.first_visit(zobrist::mix(v + 1))) {
            wins[v].fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  }
  ASSERT_EQ(tt.stats().drops, 0);
  EXPECT_EQ(tt.stats().stores, static_cast<long>(kValues));
  for (std::uint64_t v = 0; v < kValues; ++v) {
    ASSERT_EQ(wins[v].load(), 1) << "value " << v;
  }
}

}  // namespace
}  // namespace bsr::sim
