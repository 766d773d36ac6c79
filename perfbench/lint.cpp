// The lint layer probes, run inside explore-exhaustive's traced run:
// analysis::run_lint with json = true in all six modes over the default
// registry, analyze_protocol per default spec, and JSON emission of the
// dynamic tier's reports. The dynamic tier is the explorer run over the
// registry with violation collecting, so it is traced beside the explorer.
// (A lint-registry workload of its own did not hold its end-to-end spread
// on a shared host; README.md has the numbers.)
//
// It also checks that every mode exits 0 with zero errors, and replays the
// four golden command lines of scripts/update_goldens.sh against
// tests/golden/lint_*.json byte for byte.
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/lint.h"
#include "bench.h"
#include "layers.h"
#include "serve/json.h"

namespace perfbench {

namespace {

using bsr::analysis::LintMode;
using bsr::analysis::LintOptions;

struct ModeName {
  LintMode mode;
  const char* name;
};

constexpr ModeName kModes[] = {
    {LintMode::Dynamic, "dynamic"},   {LintMode::Static, "static"},
    {LintMode::Symbolic, "symbolic"}, {LintMode::Interference, "interference"},
    {LintMode::Steps, "steps"},       {LintMode::Both, "both"},
};

/// One golden command line of scripts/update_goldens.sh.
struct Golden {
  std::string file;
  LintMode mode;
  std::vector<std::string> protocols;
  int exit_code;  ///< What the script's command returns.
};

const Golden kGoldens[] = {
    {"lint_static.json", LintMode::Static, {"alg1", "demo-misdeclared"}, 1},
    {"lint_symbolic.json",
     LintMode::Symbolic,
     {"sec4-quantized", "demo-misdeclared-symbolic", "demo-holds-small-n"},
     1},
    {"lint_interference.json",
     LintMode::Interference,
     {"alg1", "demo-false-independence"},
     0},
    {"lint_steps.json", LintMode::Steps, {"alg1", "demo-unbounded-loop"}, 1},
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Runs one lint mode over the default registry and checks it exits 0 with
/// zero errors; returns the run_lint time in seconds.
double lint_once(LintMode mode, const char* name, Result& r) {
  LintOptions opts;
  opts.mode = mode;
  opts.json = true;
  std::ostringstream out;
  std::ostringstream err;
  const Clock::time_point t0 = Clock::now();
  const int rc = bsr::analysis::run_lint(opts, out, err);
  const double s = seconds_since(t0);
  long errors = -1;
  try {
    errors = bsr::serve::Json::parse(out.str()).num_or("errors", -1);
  } catch (const std::exception&) {
  }
  r.check(rc == 0 && errors == 0,
          std::string("lint --mode=") + name + " exited " +
              std::to_string(rc) + " with " + std::to_string(errors) +
              " errors: " + err.str());
  return s;
}

void check_goldens(const std::string& root, Result& r) {
  for (const Golden& g : kGoldens) {
    const std::string want = read_file(root + "/tests/golden/" + g.file);
    LintOptions opts;
    opts.mode = g.mode;
    opts.json = true;
    opts.protocols = g.protocols;
    std::ostringstream out;
    std::ostringstream err;
    const int rc = bsr::analysis::run_lint(opts, out, err);
    r.check(rc == g.exit_code && out.str() == want,
            "golden " + g.file + ": exit " + std::to_string(rc) +
                (out.str() == want ? ", bytes equal" : ", bytes differ"));
  }
}

}  // namespace

void lint_layers(const RunContext& ctx, Tracer& tracer, Result& r) {
  const std::vector<const bsr::analysis::ProtocolSpec*> specs =
      default_specs();

  // Three sweeps of the six modes; lint.<mode>.s is each mode's median.
  {
    const ScopedSpan lint(tracer, "lint");
    std::vector<std::vector<double>> per_mode(std::size(kModes));
    for (int i = 0; i < 3; ++i) {
      for (std::size_t m = 0; m < std::size(kModes); ++m) {
        const ScopedSpan s(tracer, std::string("lint.") + kModes[m].name,
                           lint.id());
        per_mode[m].push_back(lint_once(kModes[m].mode, kModes[m].name, r));
      }
    }
    for (std::size_t m = 0; m < std::size(kModes); ++m) {
      r.set(std::string("lint.") + kModes[m].name + ".s",
            percentile(per_mode[m], 0.5), "s");
    }
  }

  // The dynamic tier per spec, three passes, median each.
  std::vector<bsr::analysis::ProtocolReport> dynamic_reports;
  {
    const ScopedSpan s(tracer, "analysis.dynamic");
    std::vector<std::vector<double>> ms(specs.size());
    for (int pass = 0; pass < 3; ++pass) {
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const ScopedSpan one(tracer, "analysis.dynamic." + specs[i]->name,
                             s.id());
        const Clock::time_point t0 = Clock::now();
        bsr::analysis::ProtocolReport rep =
            bsr::analysis::analyze_protocol(*specs[i]);
        ms[i].push_back(seconds_since(t0) * 1e3);
        r.check(rep.errors() == 0,
                specs[i]->name + ": dynamic tier reports errors");
        if (pass == 0) dynamic_reports.push_back(std::move(rep));
      }
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      r.set("analysis.dynamic." + specs[i]->name + ".ms",
            percentile(ms[i], 0.5), "ms");
    }
  }

  measure_emit_json({{"dynamic", std::move(dynamic_reports)}}, tracer, -1, r,
                    0.5);
  check_goldens(ctx.root, r);
}

}  // namespace perfbench
