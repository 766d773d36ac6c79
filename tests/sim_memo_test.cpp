// The per-process memo behind checkpointing (Sim::set_checkpointing): steps
// whose result history was seen before are answered from the memo without
// resuming the coroutine, and rewind only moves cursors. These cases pin
// the resume accounting, the edge cases (a body that throws, a rewind
// across termination, a world with user data), and that exploration
// counts do not move. The registry-wide differential against a
// fresh, non-checkpointing Sim lives in sim_memo_slow_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/alg1.h"
#include "sim/explore.h"
#include "sim/sim.h"
#include "util/errors.h"

namespace bsr::sim {
namespace {

std::unique_ptr<Sim> make_alg1(std::uint64_t k) {
  auto sim = std::make_unique<Sim>(2);
  core::install_alg1(*sim, k, {0, 1});
  return sim;
}

TEST(SimMemo, Alg1ResumesStayBoundedByTheMemo) {
  ExploreOptions opts;
  opts.max_steps = 200;
  opts.threads = 1;  // one Sim, so its counters cover the whole search
  const long oracle =
      ReplayExplorer(opts).explore([] { return make_alg1(3); },
                                   [](Sim&, const std::vector<Choice>&) {});
  ResumeStats stats;
  long steps = 0;
  const long executions = Explorer(opts).explore(
      [] { return make_alg1(3); },
      [&](Sim& sim, const std::vector<Choice>&) {
        stats = sim.resume_stats();
        steps = sim.total_steps();
      });
  EXPECT_EQ(executions, oracle);
  EXPECT_EQ(executions, 18'378);
  // Every distinct history is resumed into once; fast-forwards are the
  // only other resumes, and they too scale with the memo, not with the
  // number of executions.
  ASSERT_GT(stats.memo_nodes, 0);
  EXPECT_LE(stats.live + stats.replayed, 4 * stats.memo_nodes);
  EXPECT_GT(stats.memo_hits, 100 * (stats.live + stats.replayed));
  EXPECT_GT(steps, 0);
}

/// p1 writes 1 into R; p0 reads R once and throws if it saw the 1.
std::unique_ptr<Sim> make_throw_on_one() {
  auto sim = std::make_unique<Sim>(2);
  const int r = sim->add_register("R", 1, kUnbounded, Value(0));
  sim->spawn(0, [r](Env& env) -> Proc {
    const OpResult got = co_await env.read(r);
    if (got.value == Value(1)) throw std::runtime_error("saw the write");
    co_return got.value;
  });
  sim->spawn(1, [r](Env& env) -> Proc {
    co_await env.write(r, Value(1));
    co_return Value(0);
  });
  sim->set_checkpointing(true);
  return sim;
}

TEST(SimMemo, BodyThatThrowsOnOneHistoryIsNeverMemoized) {
  auto sim = make_throw_on_one();
  sim->step(0);  // start: p0 now reads R
  sim->step(1);
  sim->step(1);  // R = 1
  for (int attempt = 0; attempt < 2; ++attempt) {
    const long live = sim->resume_stats().live;
    EXPECT_THROW(sim->step(0), std::runtime_error);
    // The throwing resume ran again: nothing was memoized for it.
    EXPECT_EQ(sim->resume_stats().live, live + 1);
    EXPECT_TRUE(sim->crashed(0));
    EXPECT_FALSE(sim->terminated(0));
    EXPECT_EQ(sim->pending_request(0).kind, OpKind::Read);
    sim->rewind(1);  // undoes the step, and the crash it caused
    EXPECT_FALSE(sim->crashed(0));
    EXPECT_TRUE(sim->enabled(0));
  }
  // On the other history the same read is fine and memoized.
  sim->rewind(1);  // R = 0 again
  sim->step(0);
  ASSERT_TRUE(sim->terminated(0));
  EXPECT_EQ(sim->decision(0), Value(0));
  sim->rewind(1);
  const long hits = sim->resume_stats().memo_hits;
  sim->step(0);
  EXPECT_EQ(sim->resume_stats().memo_hits, hits + 1);
  EXPECT_EQ(sim->decision(0), Value(0));
  // Back on the throwing history, the stale coroutine is rebuilt first.
  sim->rewind(1);
  sim->step(1);
  const long replayed = sim->resume_stats().replayed;
  EXPECT_THROW(sim->step(0), std::runtime_error);
  EXPECT_GT(sim->resume_stats().replayed, replayed);
}

TEST(SimMemo, RewindAcrossTerminationRestoresThePendingOp) {
  Sim sim(2);
  const int r = sim.add_register("R", 0, kUnbounded, Value(0));
  sim.spawn(0, [r](Env& env) -> Proc {
    co_await env.write(r, Value(7));
    const OpResult got = co_await env.read(r);
    co_return got.value;
  });
  sim.spawn(1, [r](Env& env) -> Proc {
    const OpResult got = co_await env.read(r);
    co_return got.value;
  });
  sim.set_checkpointing(true);
  sim.step(0);
  sim.step(0);
  sim.step(0);
  ASSERT_TRUE(sim.terminated(0));
  EXPECT_EQ(sim.decision(0), Value(7));
  EXPECT_FALSE(sim.enabled(0));
  sim.rewind(1);
  EXPECT_FALSE(sim.terminated(0));
  EXPECT_TRUE(sim.enabled(0));
  EXPECT_EQ(sim.pending_request(0).kind, OpKind::Read);
  EXPECT_EQ(sim.pending_request(0).reg, r);
  EXPECT_THROW((void)sim.decision(0), UsageError);
  const ResumeStats before = sim.resume_stats();
  sim.step(0);  // the same result again: a memo hit, no resume
  EXPECT_TRUE(sim.terminated(0));
  EXPECT_EQ(sim.decision(0), Value(7));
  EXPECT_EQ(sim.resume_stats().memo_hits, before.memo_hits + 1);
  EXPECT_EQ(sim.resume_stats().live, before.live);
  // p1 reads 7 or 0 depending on the rewind; both histories are distinct.
  sim.step(1);
  sim.step(1);
  EXPECT_EQ(sim.decision(1), Value(7));
  sim.rewind(5);
  sim.step(1);
  sim.step(1);
  EXPECT_EQ(sim.decision(1), Value(0));
  EXPECT_FALSE(sim.terminated(0));
  EXPECT_EQ(sim.pending_request(0).kind, OpKind::Start);
}

TEST(SimMemo, EdgesDistinguishSendersOfEqualPayloads) {
  // The memo edge is the whole OpResult: the same payload from another
  // sender is another history.
  Sim sim(3);
  sim.spawn(0, [](Env& env) -> Proc {
    const OpResult m = co_await env.recv();
    co_return Value(static_cast<std::uint64_t>(m.from));
  });
  for (Pid p = 1; p < 3; ++p) {
    sim.spawn(p, [](Env& env) -> Proc {
      co_await env.send(0, Value(5));
      co_return Value(0);
    });
  }
  sim.set_checkpointing(true);
  for (Pid p = 1; p < 3; ++p) {
    sim.step(p);
    sim.step(p);
  }
  sim.step(0);
  sim.step(0, 1);
  EXPECT_EQ(sim.decision(0), Value(1));
  sim.rewind(1);
  sim.step(0, 2);
  EXPECT_EQ(sim.decision(0), Value(2));
  sim.rewind(1);
  sim.step(0, 1);
  EXPECT_EQ(sim.decision(0), Value(1));
}

/// Caller state the bodies write into: how many reads each process did.
struct ReadCounts {
  std::array<int, 2> reads{0, 0};
};

std::unique_ptr<Sim> make_counting(bool with_user_data,
                                  ReadCounts** out = nullptr) {
  auto sim = std::make_unique<Sim>(2);
  auto counts = std::make_shared<ReadCounts>();
  if (out != nullptr) *out = counts.get();
  const int r0 = sim->add_register("R0", 0, kUnbounded, Value(0));
  const int r1 = sim->add_register("R1", 1, kUnbounded, Value(0));
  for (Pid p = 0; p < 2; ++p) {
    // The closures share ownership, so the counts outlive the factory.
    sim->spawn(p, [p, r0, r1, c = counts](Env& env) -> Proc {
      c->reads[static_cast<std::size_t>(p)] = 0;  // every run starts over
      co_await env.write(p == 0 ? r0 : r1, Value(1));
      for (int i = 0; i < 2; ++i) {
        co_await env.read(p == 0 ? r1 : r0);
        c->reads[static_cast<std::size_t>(p)] += 1;
      }
      co_return Value(0);
    });
  }
  if (with_user_data) sim->set_user_data(std::move(counts));
  return sim;
}

int reads_in(const Sim& sim, Pid p) {
  // Start, write, then the reads: each read result follows the write's.
  return std::max(0, static_cast<int>(sim.result_log(p).size()) - 2);
}

TEST(SimMemo, UserDataWorldStillAppliesItsDiagWrites) {
  long leaves = 0;
  Explorer(ExploreOptions{}).explore(
      [] { return make_counting(true); },
      [&](Sim& sim, const std::vector<Choice>&) {
        ++leaves;
        const auto* counts = sim.user_data<ReadCounts>();
        EXPECT_EQ(counts->reads[0], 2);
        EXPECT_EQ(counts->reads[1], 2);
        EXPECT_EQ(sim.resume_stats().memo_hits, 0);
      });
  EXPECT_GT(leaves, 1);

  // After any rewind the counts match the surviving histories, also for a
  // process that is not stepped again.
  auto sim = make_counting(true);
  sim->set_checkpointing(true);
  const auto* counts = sim->user_data<ReadCounts>();
  for (int i = 0; i < 4; ++i) sim->step(0);
  for (int i = 0; i < 3; ++i) sim->step(1);
  EXPECT_EQ(counts->reads[0], 2);
  EXPECT_EQ(counts->reads[1], 1);
  for (std::size_t k = 1; k <= 6; ++k) {
    sim->rewind(1);
    EXPECT_EQ(counts->reads[0], reads_in(*sim, 0)) << k;
    EXPECT_EQ(counts->reads[1], reads_in(*sim, 1)) << k;
  }
  EXPECT_EQ(sim->resume_stats().memo_hits, 0);
}

TEST(SimMemo, WorldWithoutUserDataSkipsTheBodiesOnHits) {
  // The counterpart of the above: with the counts kept outside the Sim
  // (a contract breach), memo hits skip the bodies' writes — which is why
  // such state must travel with set_user_data.
  ReadCounts* counts = nullptr;
  auto sim = make_counting(false, &counts);
  sim->set_checkpointing(true);
  for (int i = 0; i < 4; ++i) sim->step(0);
  sim->rewind(2);
  EXPECT_EQ(counts->reads[0], 2);  // stale: no body ran on the rewind
  const long hits = sim->resume_stats().memo_hits;
  sim->step(0);
  sim->step(0);
  EXPECT_EQ(sim->resume_stats().memo_hits, hits + 2);
  EXPECT_EQ(counts->reads[0], 2);  // and none ran on the hits
}

TEST(SimMemo, DisablingCheckpointingHandsTheStateBackToTheCoroutines) {
  auto sim = make_alg1(2);
  sim->set_checkpointing(true);
  for (int i = 0; i < 3; ++i) sim->step(0);
  sim->step(1);
  sim->rewind(2);  // p0's coroutine stays parked one op ahead
  const OpRequest want = sim->pending_request(0);
  sim->set_checkpointing(false);
  EXPECT_EQ(sim->resume_stats().memo_nodes, 0);
  EXPECT_EQ(sim->pending_request(0).kind, want.kind);
  EXPECT_EQ(sim->pending_request(0).reg, want.reg);
  EXPECT_EQ(sim->pending_request(1).kind, OpKind::Start);
  while (sim->enabled(0) || sim->enabled(1)) {
    sim->step(sim->enabled(0) ? 0 : 1);
  }
  EXPECT_TRUE(sim->terminated(0) && sim->terminated(1));
}

}  // namespace
}  // namespace bsr::sim
