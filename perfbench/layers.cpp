// Static-tier and JSON-emission layer probes (see layers.h).
#include "layers.h"

#include <functional>
#include <map>
#include <sstream>
#include <string>

#include "analysis/diag.h"
#include "analysis/static/checker.h"
#include "analysis/static/interference.h"
#include "analysis/static/steps.h"

namespace perfbench {

namespace {

using bsr::analysis::ProtocolReport;
using bsr::analysis::ProtocolSpec;

using LayerUs = std::map<std::string, double>;

/// Runs `pass` (which returns its own µs per layer) repeatedly for about
/// `budget_s`, at least 3 times. Returns each layer's median pass and
/// attaches each layer's total over all passes to span `span_id`.
LayerUs median_passes(const std::function<LayerUs()>& pass, double budget_s,
                      Tracer& tracer, int span_id) {
  std::map<std::string, std::vector<double>> samples;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < 3 || seconds_since(start) < budget_s; ++i) {
    for (const auto& [layer, us] : pass()) samples[layer].push_back(us);
  }
  LayerUs out;
  for (auto& [layer, v] : samples) {
    double total = 0;
    for (const double us : v) total += us;
    tracer.add_child_time(span_id, layer, static_cast<std::int64_t>(total * 1e3),
                          static_cast<long>(v.size()));
    out[layer] = percentile(v, 0.5);
  }
  return out;
}

double us_since(Clock::time_point t0) {
  return static_cast<double>(ns_between(t0, Clock::now())) / 1e3;
}

}  // namespace

std::vector<const ProtocolSpec*> default_specs() {
  std::vector<const ProtocolSpec*> out;
  for (const ProtocolSpec& s : bsr::analysis::builtin_protocols()) {
    if (!s.demo) out.push_back(&s);
  }
  return out;
}

void measure_static_layers(const std::vector<const ProtocolSpec*>& specs,
                           Tracer& tracer, int parent, Result& r,
                           double budget_s) {
  const ScopedSpan span(tracer, "static.layers", parent);
  bool checked = false;
  const auto pass = [&] {
    LayerUs us;
    for (const ProtocolSpec* spec : specs) {
      if (!spec->describe) continue;
      Clock::time_point t = Clock::now();
      const bsr::analysis::ir::ProtocolIR ir = spec->describe();
      us["proto.reflect.us"] += us_since(t);

      t = Clock::now();
      const ProtocolReport rep = bsr::analysis::analyze_static(*spec);
      us["static.checker.us"] += us_since(t);

      t = Clock::now();
      const bsr::analysis::ClaimVerification cv =
          bsr::analysis::verify_claims(*spec);
      us["static.prover.us"] += us_since(t);

      t = Clock::now();
      const bsr::analysis::itf::Report itf = bsr::analysis::itf::analyze(ir);
      us["static.interference.us"] += us_since(t);

      t = Clock::now();
      const bsr::analysis::ir::StepReport steps =
          bsr::analysis::ir::step_bounds(ir);
      us["static.steps.us"] += us_since(t);

      if (!checked) {
        r.check(rep.errors() == 0,
                spec->name + ": static checker reports errors");
        r.check(cv.status != "refuted",
                spec->name + ": prover refutes a width claim");
      }
    }
    checked = true;
    return us;
  };
  for (const auto& [layer, us] : median_passes(pass, budget_s, tracer,
                                              span.id())) {
    r.set(layer, us, "us");
  }
}

ReportsByMode static_tier_reports(
    const std::vector<const ProtocolSpec*>& specs) {
  ReportsByMode out;
  for (const ProtocolSpec* spec : specs) {
    out["static"].push_back(bsr::analysis::analyze_static(*spec));
    out["symbolic"].push_back(bsr::analysis::analyze_symbolic(*spec));
    out["interference"].push_back(bsr::analysis::analyze_interference(*spec));
  }
  return out;
}

void measure_emit_json(const ReportsByMode& reports, Tracer& tracer,
                       int parent, Result& r, double budget_s) {
  const ScopedSpan span(tracer, "analysis.emit_json", parent);
  double bytes = 0;
  const auto pass = [&] {
    double us = 0;
    bytes = 0;
    for (const auto& [mode, reps] : reports) {
      std::ostringstream os;
      int errors = 0;
      int warnings = 0;
      const Clock::time_point t = Clock::now();
      bsr::analysis::JsonSink sink(os);
      for (const ProtocolReport& rep : reps) {
        sink.report(rep);
        errors += rep.errors();
        warnings += rep.warnings();
      }
      sink.close(errors, warnings);
      us += us_since(t);
      bytes += static_cast<double>(os.str().size());
    }
    return LayerUs{{"analysis.emit_json.us", us}};
  };
  r.set("analysis.emit_json.us",
        median_passes(pass, budget_s, tracer, span.id())
            .at("analysis.emit_json.us"),
        "us");
  r.set("analysis.emit_json.bytes", bytes, "bytes");
}

}  // namespace perfbench
