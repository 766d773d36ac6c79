// Per-layer probes of the analysis stack for the traced runs: each times
// the public entry point of one layer over the default registry.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/claims.h"
#include "analysis/diag.h"
#include "bench.h"

namespace perfbench {

/// The default registry: every spec `bsr lint` analyzes when no protocol is
/// named (demos excluded).
[[nodiscard]] std::vector<const bsr::analysis::ProtocolSpec*>
default_specs();

/// Times spec.describe(), analyze_static, verify_claims, itf::analyze and
/// ir::step_bounds, each summed over `specs`, in repeated passes for about
/// `budget_s`; sets proto.reflect.us and static.{checker,prover,
/// interference,steps}.us to the median pass. Counts a static error or a
/// refuted claim as a failed check.
void measure_static_layers(
    const std::vector<const bsr::analysis::ProtocolSpec*>& specs,
    Tracer& tracer, int parent, Result& r, double budget_s);

/// Protocol reports keyed by lint mode name.
using ReportsByMode =
    std::map<std::string, std::vector<bsr::analysis::ProtocolReport>>;

/// The static, symbolic and interference tiers' reports over `specs`: what
/// serve-mixed's cold requests emit.
[[nodiscard]] ReportsByMode static_tier_reports(
    const std::vector<const bsr::analysis::ProtocolSpec*>& specs);

/// Times JsonSink report-plus-close of each mode's reports, in repeated
/// passes for about `budget_s`; sets analysis.emit_json.us (median pass,
/// summed over the modes) and analysis.emit_json.bytes (document bytes,
/// summed over the modes).
void measure_emit_json(const ReportsByMode& reports, Tracer& tracer,
                       int parent, Result& r, double budget_s);

}  // namespace perfbench
