// The explore-exhaustive instances and the traced DFS (see dfs.h).
#include "dfs.h"

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/alg1.h"
#include "core/alg2.h"
#include "memory/snapshot.h"
#include "tasks/approx.h"
#include "tasks/checker.h"
#include "tasks/explicit_task.h"
#include "topo/bmz.h"

namespace perfbench {

namespace {

using bsr::Value;
using bsr::sim::Choice;
using bsr::sim::Sim;

/// The snapshot instance is cut to this prefix of the canonical DFS order
/// (2 364 551 executions in full), so that one round of the three
/// instances takes a few seconds.
constexpr long kSnapshotPrefix = 300'000;

/// Per-layer totals of one traced depth-first search.
struct DfsTotals {
  long executions = 0;
  long steps = 0;         ///< Sim::step and Sim::crash calls.
  long rewinds = 0;       ///< Sim::rewind calls.
  long undone = 0;        ///< Actions undone by those rewinds.
  long enumerations = 0;  ///< legal_choices calls.
  std::int64_t step_ns = 0;
  std::int64_t rewind_ns = 0;
  std::int64_t legal_ns = 0;
  std::int64_t visit_ns = 0;
  std::int64_t wall_ns = 0;

  void add(const DfsTotals& o) {
    executions += o.executions;
    steps += o.steps;
    rewinds += o.rewinds;
    undone += o.undone;
    enumerations += o.enumerations;
    step_ns += o.step_ns;
    rewind_ns += o.rewind_ns;
    legal_ns += o.legal_ns;
    visit_ns += o.visit_ns;
    wall_ns += o.wall_ns;
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// A plain DFS mirroring sim::detail::incremental_dfs without table or
// reduction: descend along first choices to a leaf, visit it, then rewind
// to the deepest frame with an untried sibling and take that sibling.
// Crash choices are timed with steps: both are adversary actions.
DfsTotals traced_dfs(const Instance& inst, Tracer& tracer, int parent,
                     Result& r) {
  const ScopedSpan span(tracer, "dfs." + inst.name, parent);
  DfsTotals t;
  const Clock::time_point start = Clock::now();
  std::unique_ptr<Sim> sim = inst.make();
  sim->set_checkpointing(true);

  struct Frame {
    std::vector<Choice> cs;
    std::size_t next;
    int crashes_before;
    long steps_before;
  };
  std::vector<Frame> stack;
  int crashes = 0;
  long steps = 0;

  const auto apply = [&](const Choice& c) {
    const Clock::time_point a = Clock::now();
    if (c.kind == Choice::Kind::Step) {
      sim->step(c.pid, c.recv_from);
      ++steps;
    } else {
      sim->crash(c.pid);
      ++crashes;
    }
    t.step_ns += ns_between(a, Clock::now());
    ++t.steps;
  };

  while (true) {
    while (true) {
      const Clock::time_point a = Clock::now();
      std::vector<Choice> cs =
          bsr::sim::detail::legal_choices(*sim, crashes, inst.opts);
      t.legal_ns += ns_between(a, Clock::now());
      ++t.enumerations;
      if (cs.empty()) break;
      if (steps >= inst.opts.max_steps) {
        throw std::runtime_error(inst.name + ": execution exceeded max_steps");
      }
      stack.push_back(Frame{std::move(cs), 1, crashes, steps});
      apply(stack.back().cs[0]);
    }

    ++t.executions;
    const Clock::time_point a = Clock::now();
    if (inst.ok(*sim)) {
      ++r.attempted;
    } else {
      r.check(false, inst.name + ": traced execution " +
                         std::to_string(t.executions) +
                         " failed the output check");
    }
    t.visit_ns += ns_between(a, Clock::now());
    if (inst.opts.max_executions >= 0 &&
        t.executions >= inst.opts.max_executions) {
      break;
    }

    std::size_t top = stack.size();
    while (top > 0 && stack[top - 1].next >= stack[top - 1].cs.size()) --top;
    if (top == 0) break;
    const std::size_t undo = stack.size() - (top - 1);
    const Clock::time_point b = Clock::now();
    sim->rewind(undo);
    t.rewind_ns += ns_between(b, Clock::now());
    ++t.rewinds;
    t.undone += static_cast<long>(undo);
    stack.resize(top);
    Frame& f = stack.back();
    crashes = f.crashes_before;
    steps = f.steps_before;
    apply(f.cs[f.next++]);
  }
  t.wall_ns = ns_between(start, Clock::now());
  tracer.add_child_time(span.id(), "sim.step", t.step_ns, t.steps);
  tracer.add_child_time(span.id(), "sim.rewind", t.rewind_ns, t.rewinds);
  tracer.add_child_time(span.id(), "sim.legal_choices", t.legal_ns,
                        t.enumerations);
  tracer.add_child_time(span.id(), "visit", t.visit_ns, t.executions);
  return t;
}

void report_dfs(Result& r, const DfsTotals& t, const std::string& suffix) {
  const double wall = static_cast<double>(t.wall_ns);
  const double layers = static_cast<double>(t.step_ns + t.rewind_ns +
                                            t.legal_ns + t.visit_ns);
  r.set("sim.step.ns" + suffix, ratio(t.step_ns, t.steps), "ns");
  r.set("sim.steps_per_exec" + suffix, ratio(t.steps, t.executions), "count");
  r.set("sim.rewind.ns_per_undone_step" + suffix, ratio(t.rewind_ns, t.undone),
        "ns");
  r.set("sim.rewind.calls" + suffix, static_cast<double>(t.rewinds), "count");
  r.set("sim.rewind.undone_steps" + suffix, static_cast<double>(t.undone),
        "count");
  r.set("sim.legal_choices.ns" + suffix, ratio(t.legal_ns, t.enumerations),
        "ns");
  r.set("sim.share.step" + suffix, ratio(t.step_ns, wall), "ratio");
  r.set("sim.share.rewind" + suffix, ratio(t.rewind_ns, wall), "ratio");
  r.set("sim.share.legal_choices" + suffix, ratio(t.legal_ns, wall), "ratio");
  r.set("sim.share.visit" + suffix, ratio(t.visit_ns, wall), "ratio");
  r.set("sim.share.other" + suffix, ratio(wall - layers, wall), "ratio");
}

/// Runs Explorer::explore on `inst`, checking every execution's outputs
/// and the count into `r`; returns the count.
long explore_checked(const Instance& inst, Result& r) {
  long failures = 0;
  const long n = bsr::sim::Explorer(inst.opts).explore(
      inst.make, [&](Sim& sim, const std::vector<Choice>&) {
        if (!inst.ok(sim)) ++failures;
      });
  r.tally(n, failures, inst.name + ": " + std::to_string(failures) +
                          " executions failed the output check");
  r.check(n == inst.expected, inst.name + ": visited " + std::to_string(n) +
                                  " executions, want " +
                                  std::to_string(inst.expected));
  return n;
}

}  // namespace

std::vector<Instance> explore_instances() {
  std::vector<Instance> out;
  {
    Instance i;
    i.name = "alg1-k5";
    i.make = [] {
      auto sim = std::make_unique<Sim>(2);
      bsr::core::install_alg1(*sim, 5, {0, 1});
      return sim;
    };
    i.opts.max_steps = 2000;
    i.expected = 295'178;
    // Lemma 5.5: both decide, at most one grid step apart.
    i.ok = [](const Sim& sim) {
      if (!sim.terminated(0) || !sim.terminated(1)) return false;
      const std::uint64_t y0 = sim.decision(0).as_u64();
      const std::uint64_t y1 = sim.decision(1).as_u64();
      return (y0 > y1 ? y0 - y1 : y1 - y0) <= 1;
    };
    out.push_back(std::move(i));
  }
  {
    // Algorithm 2 solving approximate agreement at n = 2, one crash, on the
    // plan the BMZ characterization precomputes.
    const auto task = std::make_shared<bsr::tasks::ApproxAgreement>(2, 3);
    std::vector<Value> domain;
    for (std::uint64_t v = 0; v <= 3; ++v) domain.emplace_back(v);
    const bsr::topo::Bmz2 bmz(bsr::tasks::materialize(*task, domain));
    const bsr::tasks::Config input{Value(0), Value(1)};
    Instance i;
    i.name = "alg2-c1";
    i.make = [plan = bmz.plan(), input] {
      auto sim = std::make_unique<Sim>(2);
      bsr::core::install_alg2(*sim, plan, input);
      return sim;
    };
    i.opts.max_steps = 500;
    i.opts.max_crashes = 1;
    i.expected = 542'382;
    i.ok = [task, input](const Sim& sim) {
      return bsr::tasks::check_outputs(*task, input,
                                       bsr::tasks::decisions_of(sim))
          .ok;
    };
    out.push_back(std::move(i));
  }
  {
    // Two processes each update their snapshot segment, then scan.
    Instance i;
    i.name = "snapshot";
    i.make = [] {
      auto sim = std::make_unique<Sim>(2);
      auto snap = std::make_shared<bsr::memory::SnapshotObject>(*sim, "S");
      for (int p = 0; p < 2; ++p) {
        sim->spawn(p, [snap, p](bsr::sim::Env& env) -> bsr::sim::Proc {
          co_await snap->update(env, Value(100 + p));
          std::vector<Value> view = co_await snap->scan(env);
          co_return Value(std::move(view));
        });
      }
      return sim;
    };
    i.opts.max_steps = 2000;
    i.opts.max_executions = kSnapshotPrefix;
    i.expected = kSnapshotPrefix;
    // Every scan includes the scanner's own preceding update.
    i.ok = [](const Sim& sim) {
      for (int p = 0; p < 2; ++p) {
        if (!sim.terminated(p)) return false;
        if (sim.decision(p).at(static_cast<std::size_t>(p)).as_u64() !=
            static_cast<std::uint64_t>(100 + p)) {
          return false;
        }
      }
      return true;
    };
    out.push_back(std::move(i));
  }
  // Serial whatever BSR_EXPLORE_THREADS says; no table, no reduction.
  for (Instance& i : out) i.opts.threads = 1;
  return out;
}

DfsTiming traced_dfs_report(const std::vector<Instance>& instances,
                            Tracer& tracer, int parent, Result& r) {
  DfsTotals total;
  DfsTiming timing;
  for (const Instance& inst : instances) {
    const DfsTotals t = traced_dfs(inst, tracer, parent, r);
    const Clock::time_point p0 = Clock::now();
    const long plain = explore_checked(inst, r);
    timing.plain_s += seconds_since(p0);
    r.check(t.executions == plain,
            inst.name + ": traced DFS visited " +
                std::to_string(t.executions) + " executions, explorer " +
                std::to_string(plain));
    r.note("dfs_executions." + inst.name, std::to_string(t.executions));
    report_dfs(r, t, "." + inst.name);
    total.add(t);
  }
  report_dfs(r, total, "");
  timing.traced_s = static_cast<double>(total.wall_ns) / 1e9;
  return timing;
}

}  // namespace perfbench
