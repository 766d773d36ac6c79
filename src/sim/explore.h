// Exhaustive execution explorer (bounded model checking).
//
// Protocols in this library are deterministic state machines; all
// nondeterminism lives in the scheduler. The explorer therefore enumerates
// *every* execution of a protocol by depth-first search over scheduling
// choices (which process steps next, which channel a Recv drains, which
// processes crash and when). This lets tests check lemma-level statements
// ("in every execution, |r1 − r2| ≤ 1") by literally checking every
// execution, which is how we validate Lemmas 5.1–5.6 and the snapshot
// properties of §7.
//
// Two engines share the same API and visit executions in the same canonical
// order:
//
//  * `Explorer` — the default engine. It keeps ONE live Sim per search and
//    backtracks incrementally: the Sim records an undo log (see
//    Sim::set_checkpointing), so taking a sibling branch rewinds the world
//    to the divergence point instead of rebuilding the Sim and replaying
//    the whole choice prefix. With `threads` > 1 (or BSR_EXPLORE_THREADS
//    set), it partitions the choice tree at a frontier depth and explores
//    the subtrees on a work-stealing thread pool (see explore_parallel.h);
//    execution counts and `explore_until` early-stop results stay
//    bit-identical to the serial search.
//
//  * `ReplayExplorer` — the original rebuild-and-replay DFS, kept as a
//    differential-testing oracle and as the baseline for the
//    bench_explore_scaling speedup measurements. O(depth) replay work per
//    visited execution; single-threaded.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "analysis/static/interference.h"
#include "sim/sched.h"
#include "sim/sim.h"

namespace bsr::sim {

class TranspositionTable;  // sim/tt.h

/// Environment variable consulted when ExploreOptions::threads == 0.
inline constexpr const char* kExploreThreadsEnv = "BSR_EXPLORE_THREADS";

struct ExploreOptions {
  /// Maximum execution length; exceeding it aborts the exploration with a
  /// UsageError (it means the protocol does not terminate in bound).
  long max_steps = 10'000;
  /// The adversary may crash up to this many processes (t of the model).
  int max_crashes = 0;
  /// Abort after visiting this many complete executions (-1 = unlimited).
  long max_executions = -1;
  /// Worker threads. 1 = serial; 0 = resolve from BSR_EXPLORE_THREADS
  /// (unset ⇒ 1, "0" or "auto" ⇒ hardware concurrency). Values > 1 run the
  /// parallel engine.
  int threads = 0;
  /// Parallel engine: partition the choice tree at this depth into subtree
  /// jobs (0 = choose automatically so there are comfortably more jobs than
  /// threads).
  int frontier_depth = 0;
  /// Parallel engine: by default visitor calls are serialized through a
  /// mutex so non-thread-safe visitors keep working. Set true only if the
  /// visitor is itself thread-safe (e.g. bumps atomics).
  bool concurrent_visitor = false;
  /// State-space memoization: when set, the engine maintains a Zobrist hash
  /// of the world (Sim::set_state_hashing) and prunes any search-tree node
  /// whose state — registers, coroutine histories, channels, crashes, AND
  /// collected violations — was reached before, consulting this table. The
  /// table is shared across parallel workers (and may be shared across
  /// explore calls to memoize between them). Under memoization the visitor
  /// runs once per *distinct* final configuration and the returned count is
  /// the number of distinct final configurations, not of schedules; the
  /// set of final states and collected violations is exactly that of the
  /// unpruned search as long as the table reports no drops. `explore_until`
  /// early stops and `max_executions` remain correct but may leave
  /// memoized-but-unfinished states in a shared table, so reuse the table
  /// across calls only with plain `explore`. Ignored by ReplayExplorer
  /// (the differential oracle) and by factories that pre-step the Sim.
  std::shared_ptr<TranspositionTable> tt;
  /// With `tt`: canonicalize states over pid permutations
  /// (Sim::set_state_hashing symmetry mode). Only meaningful for protocols
  /// symmetric in the process ids; preserves the *kinds* of reachable
  /// violations, not exact counts or messages.
  bool tt_symmetry = false;
  /// Sleep-set partial-order reduction (off by default). At each search
  /// node the engine skips any choice provably independent — via the
  /// footprint relation of analysis/static/interference.h, fed with
  /// pending-op footprints — of every choice already explored since the
  /// node was entered: the skipped interleaving commutes, step by step,
  /// into one explored earlier. The reduction preserves the exact set of
  /// reachable final configurations and of collected violations (the
  /// search tree is acyclic: result histories grow along every path), so
  /// violation findings are bit-identical to the unreduced search; without
  /// `tt` the visited-execution count shrinks to one representative per
  /// commutation class. Composes with `tt`: states are published to the
  /// table only when visited under an empty sleep set (a non-empty-sleep
  /// visit explores the subtree only partially, so it probes without
  /// inserting), which keeps the memoized count equal to the number of
  /// distinct final configurations. Ignored by ReplayExplorer (the
  /// differential oracle).
  bool por = false;
};

/// Resolves the effective thread count: `requested` if > 0, else
/// BSR_EXPLORE_THREADS ("0"/"auto" ⇒ hardware concurrency, unset/empty ⇒ 1).
/// Throws UsageError on a malformed environment value.
[[nodiscard]] int resolve_explore_threads(int requested);

class Explorer {
 public:
  /// Builds a fresh, fully-spawned Sim. Called once per serial search and
  /// once per parallel subtree job; must be deterministic.
  using Factory = std::function<std::unique_ptr<Sim>()>;
  /// Called on every complete execution (a state with no enabled process),
  /// with the final Sim and the schedule that produced it.
  using Visitor = std::function<void(Sim&, const std::vector<Choice>&)>;

  explicit Explorer(ExploreOptions opts) : opts_(opts) {}

  /// Runs the DFS; returns the number of complete executions visited.
  long explore(const Factory& make, const Visitor& visit) const;

  /// Like explore, but the visitor may stop the search by returning true.
  using StoppingVisitor =
      std::function<bool(Sim&, const std::vector<Choice>&)>;
  long explore_until(const Factory& make, const StoppingVisitor& visit) const;

 private:
  long explore_serial(const Factory& make, const StoppingVisitor& visit) const;

  ExploreOptions opts_;
};

/// The original explorer: rebuilds the Sim and replays the whole choice
/// prefix for every branch. Kept as a slow-but-simple oracle. Ignores the
/// `threads` / `frontier_depth` / `concurrent_visitor` options.
class ReplayExplorer {
 public:
  using Factory = Explorer::Factory;
  using Visitor = Explorer::Visitor;
  using StoppingVisitor = Explorer::StoppingVisitor;

  explicit ReplayExplorer(ExploreOptions opts) : opts_(opts) {}

  long explore(const Factory& make, const Visitor& visit) const;
  long explore_until(const Factory& make, const StoppingVisitor& visit) const;

 private:
  ExploreOptions opts_;
};

namespace detail {

/// The scheduling choices available in the Sim's current state, in canonical
/// order: Step choices by pid (with Recv-sender sub-choices in sender order),
/// then Crash choices by pid while the crash budget allows.
[[nodiscard]] std::vector<Choice> legal_choices(const Sim& sim,
                                                int crashes_so_far,
                                                const ExploreOptions& opts);

/// Mutable cursor of an in-progress incremental DFS: the schedule applied so
/// far (including any pre-applied prefix) and derived counters.
struct DfsCursor {
  std::vector<Choice> schedule;
  int crashes = 0;  ///< Crash choices in `schedule`.
  long steps = 0;   ///< Step choices in `schedule` (max_steps accounting).
  /// POR: the sleep set of the node the cursor currently sits on. Seed it
  /// to resume a reduced search mid-tree (the parallel engine's frontier
  /// jobs do); after each descent it holds the current node's set.
  std::vector<Choice> sleep;
};

/// The shared-state footprint of one scheduling choice in the Sim's
/// *current* state, built from the pending OpRequest (crash choices have a
/// crash-only footprint). Mirrors the simulator's own violation checks
/// (do_write, topology) so `may_violate` is exact for the pending op; a
/// declared round budget conservatively marks every Step may-violate.
[[nodiscard]] analysis::itf::Footprint choice_footprint(const Sim& sim,
                                                        const Choice& c);

/// Whether `a` and `b` commute in the Sim's current state, per the shared
/// decision procedure analysis::itf::classify over pending-op footprints.
[[nodiscard]] bool independent(const Sim& sim, const Choice& a,
                               const Choice& b);

/// Leaf callback of `incremental_dfs`: receives the Sim in the leaf state,
/// the full schedule, and the per-depth choice indices taken since the DFS
/// root. Return true to stop the search.
using DfsLeafFn = std::function<bool(
    Sim&, const std::vector<Choice>&, const std::vector<std::size_t>&)>;

/// Depth-first search from the Sim's *current* state using incremental
/// backtracking (requires sim.checkpointing()). Visits every node that is
/// complete (no legal choices) or — when depth_limit >= 0 — at exactly
/// `depth_limit` choices below the root, calling `leaf` for each; returns
/// the number of leaves visited. Enforces opts.max_steps; ignores
/// opts.max_executions (callers implement their own truncation in `leaf`).
/// With opts.tt set (requires sim.state_hashing()), every applied choice is
/// probed against the table and already-seen states are pruned on entry;
/// the engines never combine tt with a depth limit (pruning a frontier
/// node would hide the subtree behind it from the job partition).
long incremental_dfs(Sim& sim, const ExploreOptions& opts, long depth_limit,
                     DfsCursor& cursor, const DfsLeafFn& leaf);

}  // namespace detail

}  // namespace bsr::sim
