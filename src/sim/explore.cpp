#include "sim/explore.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>

#include "sim/explore_parallel.h"
#include "sim/tt.h"
#include "util/errors.h"

namespace bsr::sim {

int resolve_explore_threads(int requested) {
  if (requested > 0) return requested;
  const char* env = std::getenv(kExploreThreadsEnv);
  if (env == nullptr || *env == '\0') return 1;
  const std::string s(env);
  unsigned hw = 0;
  if (s == "auto" || s == "0") {
    hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  try {
    std::size_t pos = 0;
    const int v = std::stoi(s, &pos);
    usage_check(pos == s.size() && v > 0, "");
    return v;
  } catch (...) {
    throw UsageError(std::string(kExploreThreadsEnv) + "='" + s +
                     "': expected a positive integer, 0, or 'auto'");
  }
}

namespace detail {
namespace {

/// Whether a pending write of `v` into `reg` by `pid` breaks a model rule.
/// The value is known, so this is exact: it asks the kernel's own check.
/// Any violation — a ModelEvent in collect mode, a ModelError otherwise —
/// makes the op order-sensitive.
bool write_may_violate(const Sim& sim, Pid pid, int reg, const Value& v) {
  if (reg < 0 || reg >= sim.num_registers()) return true;
  return write_violations(sim.register_info(reg), pid, v).any();
}

void add_sorted(std::vector<int>& v, int x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it == v.end() || *it != x) v.insert(it, x);
}

}  // namespace

analysis::itf::Footprint choice_footprint(const Sim& sim, const Choice& c) {
  analysis::itf::Footprint fp;
  fp.pid = c.pid;
  if (c.kind == Choice::Kind::Crash) {
    fp.crash = true;
    return fp;
  }
  const OpRequest& req = sim.pending_request(c.pid);
  switch (req.kind) {
    case OpKind::Start:
      break;  // resumes the body to its first op: local computation only
    case OpKind::Read:
      add_sorted(fp.reads, req.reg);
      break;
    case OpKind::Write:
      add_sorted(fp.writes, req.reg);
      fp.may_violate = write_may_violate(sim, c.pid, req.reg, req.value);
      break;
    case OpKind::Snapshot:
      for (const int r : req.regs) add_sorted(fp.reads, r);
      break;
    case OpKind::WriteSnap:
      add_sorted(fp.writes, req.reg);
      for (const int r : req.regs) add_sorted(fp.reads, r);
      fp.may_violate = write_may_violate(sim, c.pid, req.reg, req.value);
      break;
    case OpKind::Send:
      fp.send_to = req.peer;
      fp.may_violate = !sim.can_send(c.pid, req.peer);  // Topology
      break;
    case OpKind::Recv:
      fp.is_recv = true;
      fp.recv_from = c.recv_from;
      break;
  }
  // Round events fire inside the resumed body (Env::note_round), invisible
  // from the pending op, so a declared budget makes every step
  // order-sensitive. Blunt but sound; round-budgeted registry protocols
  // are sampled, never explored exhaustively.
  if (sim.max_rounds() >= 0) fp.may_violate = true;
  return fp;
}

bool independent(const Sim& sim, const Choice& a, const Choice& b) {
  return analysis::itf::classify(choice_footprint(sim, a),
                                 choice_footprint(sim, b))
      .independent;
}

std::vector<Choice> legal_choices(const Sim& sim, int crashes_so_far,
                                  const ExploreOptions& opts) {
  std::vector<Choice> out;
  for (Pid p = 0; p < sim.n(); ++p) {
    if (!sim.enabled(p)) continue;
    const std::vector<Pid> sources = sim.recv_choices(p);
    if (sources.empty()) {
      out.push_back(Choice{Choice::Kind::Step, p, -1});
    } else {
      for (Pid from : sources) {
        out.push_back(Choice{Choice::Kind::Step, p, from});
      }
    }
  }
  if (crashes_so_far < opts.max_crashes) {
    for (Pid p = 0; p < sim.n(); ++p) {
      if (sim.alive(p)) out.push_back(Choice{Choice::Kind::Crash, p, -1});
    }
  }
  return out;
}

long incremental_dfs(Sim& sim, const ExploreOptions& opts, long depth_limit,
                     DfsCursor& cursor, const DfsLeafFn& leaf) {
  usage_check(sim.checkpointing(),
              "incremental_dfs: Sim checkpointing must be enabled");
  TranspositionTable* const tt = opts.tt.get();
  usage_check(tt == nullptr || sim.state_hashing(),
              "incremental_dfs: transposition table requires "
              "Sim::set_state_hashing");

  struct Frame {
    std::vector<Choice> cs;  ///< Choices at this depth.
    std::size_t next;        ///< Next untried index.
    int crashes_before;      ///< cursor.crashes before any choice here.
    long steps_before;       ///< cursor.steps before any choice here.
    /// POR: this node's sleep set — choices whose subtrees are owned by
    /// sibling branches. Seeded from the parent when the frame is pushed;
    /// grows by each completed (or table-pruned) child.
    std::vector<Choice> sleep;
  };
  std::vector<Frame> stack;
  std::vector<std::size_t> idx;  // chosen index per depth since the root
  long visited = 0;

  const auto asleep = [](const Frame& f, const Choice& c) {
    return std::find(f.sleep.begin(), f.sleep.end(), c) != f.sleep.end();
  };

  // Applies the frame's next untried choice, skipping (and immediately
  // rewinding) any whose resulting state the transposition table has seen —
  // the first visitor of a state explores its whole subtree before
  // backtracking, so a repeat can only be a reconvergence, never a state
  // still on the current path (histories grow monotonically along it).
  // Under POR it also skips sleeping choices (their interleavings commute
  // into branches explored elsewhere). Returns false when every remaining
  // sibling was pruned, asleep, or exhausted, in which case the frame holds
  // no applied choice.
  const auto advance = [&](Frame& f) {
    while (f.next < f.cs.size()) {
      const Choice& c = f.cs[f.next];
      idx.back() = f.next;
      f.next += 1;
      std::vector<Choice> child_sleep;
      if (opts.por) {
        if (asleep(f, c)) continue;
        // The child inherits every sleeping choice that commutes with `c`:
        // such a choice is still enabled below `c` (independence preserves
        // enabledness), its pending op is unchanged (same-pid pairs are
        // never independent), and its subtree still commutes into the
        // sibling branch that owns it.
        for (const Choice& d : f.sleep) {
          if (independent(sim, d, c)) child_sleep.push_back(d);
        }
      }
      if (c.kind == Choice::Kind::Step) {
        sim.step(c.pid, c.recv_from);
        cursor.steps += 1;
      } else {
        sim.crash(c.pid);
        cursor.crashes += 1;
      }
      cursor.schedule.push_back(c);
      if (tt != nullptr) {
        // A state is published only when entered under an *empty* sleep
        // set: that visit explores the full subtree, so a later hit may
        // prune no matter what the later visit's sleep set is. A
        // non-empty-sleep visit explores only part of the subtree and must
        // probe without inserting (TranspositionTable::seen).
        const bool pruned = child_sleep.empty()
                                ? !tt->first_visit(sim.state_hash())
                                : tt->seen(sim.state_hash());
        if (pruned) {
          sim.rewind(1);
          cursor.schedule.pop_back();
          cursor.crashes = f.crashes_before;
          cursor.steps = f.steps_before;
          // The recorded state's subtree was fully explored by its first
          // visitor, so `c` is as done here as a completed child.
          if (opts.por) f.sleep.push_back(c);
          continue;
        }
      }
      if (opts.por) cursor.sleep = std::move(child_sleep);
      return true;
    }
    return false;
  };

  while (true) {
    // Descend greedily along first surviving choices until a leaf: a
    // complete state (no legal choices) or the depth limit. A node all of
    // whose children prune is no leaf — its subtree's leaves were all
    // visited earlier — so fall through to backtracking without counting.
    bool at_leaf = true;
    while (depth_limit < 0 || static_cast<long>(stack.size()) < depth_limit) {
      std::vector<Choice> cs = legal_choices(sim, cursor.crashes, opts);
      if (cs.empty()) break;
      usage_check(cursor.steps < opts.max_steps,
                  "Explorer: execution exceeded max_steps; "
                  "protocol may not terminate");
      stack.push_back(Frame{std::move(cs), 0, cursor.crashes, cursor.steps,
                            std::move(cursor.sleep)});
      cursor.sleep.clear();  // defined state after the move
      idx.push_back(0);
      if (!advance(stack.back())) {
        stack.pop_back();
        idx.pop_back();
        at_leaf = false;
        break;
      }
    }

    if (at_leaf) {
      ++visited;
      if (leaf(sim, cursor.schedule, idx)) return visited;
    }

    // Backtrack: the deepest frame with an untried sibling that survives
    // the table probe.
    while (true) {
      std::size_t t = stack.size();
      while (t > 0 && stack[t - 1].next >= stack[t - 1].cs.size()) --t;
      if (t == 0) return visited;

      // Rewind the world from the current depth to that frame's state, then
      // take the sibling. This is the incremental-backtracking core: only
      // the undone suffix is paid for, never the whole prefix.
      const std::size_t base = cursor.schedule.size() - stack.size();
      sim.rewind(cursor.schedule.size() - (base + t - 1));
      cursor.schedule.resize(base + t - 1);
      stack.resize(t);
      idx.resize(t);
      Frame& f = stack.back();
      cursor.crashes = f.crashes_before;
      cursor.steps = f.steps_before;
      // The child just backed out of is fully explored: later siblings may
      // skip any interleaving that merely reorders it across independent
      // steps, so it joins this node's sleep set (Godefroid's sleep-set
      // discipline — siblings inherit completed siblings).
      if (opts.por) f.sleep.push_back(f.cs[idx[t - 1]]);
      if (advance(f)) break;
      stack.pop_back();
      idx.pop_back();
    }
  }
}

}  // namespace detail

long Explorer::explore(const Factory& make, const Visitor& visit) const {
  return explore_until(make, [&](Sim& sim, const std::vector<Choice>& sched) {
    visit(sim, sched);
    return false;
  });
}

long Explorer::explore_until(const Factory& make,
                             const StoppingVisitor& visit) const {
  const int threads = resolve_explore_threads(opts_.threads);
  if (threads > 1) {
    return ParallelExplorer(opts_, threads).explore_until(make, visit);
  }
  return explore_serial(make, visit);
}

long Explorer::explore_serial(const Factory& make,
                              const StoppingVisitor& visit) const {
  std::unique_ptr<Sim> sim = make();
  usage_check(sim != nullptr, "Explorer: factory returned null");
  if (sim->total_steps() > 0) {
    // The factory pre-stepped the Sim, so its coroutines cannot be rebuilt
    // from recorded results alone; explore by rebuild-and-replay instead.
    return ReplayExplorer(opts_).explore_until(make, visit);
  }
  sim->set_checkpointing(true);
  if (opts_.tt != nullptr) {
    sim->set_state_hashing(true, opts_.tt_symmetry);
    // Publish the root state too, so a table shared across explore calls
    // memoizes whole repeated searches.
    if (!opts_.tt->first_visit(sim->state_hash())) return 0;
  }
  long visited = 0;
  detail::DfsCursor cursor;
  detail::incremental_dfs(
      *sim, opts_, -1, cursor,
      [&](Sim& s, const std::vector<Choice>& schedule,
          const std::vector<std::size_t>&) {
        ++visited;
        if (visit(s, schedule)) return true;
        return opts_.max_executions >= 0 && visited >= opts_.max_executions;
      });
  return visited;
}

// --- ReplayExplorer: the original rebuild-and-replay DFS -------------------

long ReplayExplorer::explore(const Factory& make, const Visitor& visit) const {
  return explore_until(make, [&](Sim& sim, const std::vector<Choice>& sched) {
    visit(sim, sched);
    return false;
  });
}

long ReplayExplorer::explore_until(const Factory& make,
                                   const StoppingVisitor& visit) const {
  std::vector<std::size_t> path;    // chosen index at each depth
  std::vector<std::size_t> widths;  // number of choices at each depth
  long visited = 0;

  while (true) {
    std::unique_ptr<Sim> sim = make();
    usage_check(sim != nullptr, "Explorer: factory returned null");
    std::vector<Choice> schedule;
    int crashes = 0;
    long steps = 0;

    const auto apply = [&](const Choice& c) {
      if (c.kind == Choice::Kind::Step) {
        sim->step(c.pid, c.recv_from);
        ++steps;
      } else {
        sim->crash(c.pid);
        ++crashes;
      }
      schedule.push_back(c);
    };

    // Replay the committed prefix.
    for (std::size_t depth = 0; depth < path.size(); ++depth) {
      const std::vector<Choice> cs =
          detail::legal_choices(*sim, crashes, opts_);
      usage_check(path[depth] < cs.size(),
                  "Explorer: nondeterministic factory (choice set changed)");
      apply(cs[path[depth]]);
    }

    // Extend greedily with first choices until no process is enabled.
    while (true) {
      const std::vector<Choice> cs =
          detail::legal_choices(*sim, crashes, opts_);
      if (cs.empty()) break;
      usage_check(steps < opts_.max_steps,
                  "Explorer: execution exceeded max_steps; "
                  "protocol may not terminate");
      path.push_back(0);
      widths.push_back(cs.size());
      apply(cs[0]);
    }

    const bool stop = visit(*sim, schedule);
    ++visited;
    if (stop ||
        (opts_.max_executions >= 0 && visited >= opts_.max_executions)) {
      return visited;
    }

    // Backtrack to the deepest depth with an unexplored alternative.
    while (!path.empty() && path.back() + 1 >= widths.back()) {
      path.pop_back();
      widths.pop_back();
    }
    if (path.empty()) return visited;
    ++path.back();
  }
}

}  // namespace bsr::sim
