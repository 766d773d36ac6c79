#include "analysis/doc.h"

#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/claims.h"
#include "analysis/static/checker.h"
#include "analysis/static/ir.h"
#include "analysis/static/steps.h"
#include "serve/modes.h"

namespace bsr::analysis {

namespace {

/// "n = 2, k = 3" — only the parameters the spec actually sets.
std::string params_line(const ir::ParamEnv& e) {
  std::ostringstream os;
  bool first = true;
  const auto emit = [&os, &first](const char* key, long v) {
    if (v == 0) return;
    if (!first) os << ", ";
    first = false;
    os << key << " = " << v;
  };
  emit("n", e.n);
  emit("k", e.k);
  emit("Δ", e.delta);
  emit("t", e.t);
  emit("b", e.b);
  return os.str();
}

std::string width_cell(int bits) {
  return bits == ir::kUnboundedWidth ? "unbounded" : std::to_string(bits);
}

/// `s` as a Markdown code span. Appended, not `"`" + s + "`"`: GCC 12's
/// -Wrestrict misfires on that concatenation.
std::string code_span(const std::string& s) {
  std::string out = "`";
  out.append(s).append("`");
  return out;
}

std::string bits_word(int n) {
  return std::to_string(n) + (n == 1 ? " bit" : " bits");
}

/// The claimed per-register budget, with its symbolic form when the claims
/// table states one (e.g. "2 (= ceil_log2(k))").
std::string claim_cell(const WidthClaim& c) {
  std::string s = bits_word(c.max_register_bits);
  if (c.symbolic_bits.defined()) {
    s += " (= ";
    s += c.symbolic_bits.render();
    s += ")";
  }
  return s;
}

/// The symbolic prover's verdict on the spec's width claims ("all params",
/// "n <= N", or "refuted" — the docs/PROTOCOLS.md *verified* column).
std::string verified_cell(const ProtocolSpec& s) {
  if (!s.describe) return "per-env only";
  return verify_claims(s).status;
}

/// The step tier's summary column: the declared per-process step claim and
/// the prover's verdict on the derived bounds ("—" when the spec makes no
/// finite step claim — serve-pump stacks and the termination canary).
std::string step_bound_cell(const ProtocolSpec& s) {
  if (!s.describe) return "per-env only";
  if (!s.step_claim.max_steps.defined()) return "—";
  std::string cell = "≤ " + s.step_claim.max_steps.render();
  const std::string status = analyze_steps(s).step_verified;
  if (!status.empty()) cell += " (" + status + ")";
  return cell;
}

std::string audit_cell(const ProtocolSpec& s) {
  if (s.demo) return "linter self-test (demo; must fail)";
  if (s.sample_runner) {
    return std::to_string(s.sample_seeds) +
           " seeded sample runs + static IR audit";
  }
  return "exhaustive exploration + static IR audit";
}

/// The lint rules that can fire on this spec, derived from its IR features
/// (dynamic id / static mirror where both tiers implement the rule; see
/// docs/ANALYSIS.md for the full catalogue).
std::vector<std::string> applicable_rules(const ProtocolSpec& s,
                                          const ir::ProtocolIR& p) {
  bool bounded = false;
  bool once = false;
  bool bottom = false;
  for (const ir::RegisterDecl& r : p.registers) {
    if (r.width_bits != ir::kUnboundedWidth) bounded = true;
    if (r.write_once) once = true;
    if (r.allows_bottom) bottom = true;
  }
  std::vector<std::string> rules;
  rules.emplace_back("`claim-width` / `static-width`");
  rules.emplace_back("`step-atomicity`");
  if (!p.registers.empty()) {
    rules.emplace_back("`swmr-ownership` / `static-ownership`");
    rules.emplace_back("`dead-register` / `static-dead-register`");
    rules.emplace_back("`width-unused`");
  }
  if (bounded) rules.emplace_back("`width-overflow`");
  if (once) rules.emplace_back("`write-once` / `static-write-once`");
  if (bottom) rules.emplace_back("`bottom-escape`");
  if (s.claim.per_process_bits.has_value()) {
    rules.emplace_back("`claim-usage`");
  }
  if (!p.channels.empty()) {
    rules.emplace_back("`topology` / `static-topology`");
    rules.emplace_back("`static-channel-width`");
  }
  return rules;
}

/// Compact per-source topology: "0 → {1, 2}; 1 → {0, 2}".
std::string topology_line(const ir::ProtocolIR& p) {
  if (p.channels.empty()) return "unconstrained (shared memory only)";
  std::ostringstream os;
  int current_src = -1;
  bool first_dst = true;
  for (const ir::ChannelDecl& c : p.channels) {
    if (c.src != current_src) {
      if (current_src != -1) os << "}; ";
      current_src = c.src;
      first_dst = true;
      os << c.src << " → {";
    }
    if (!first_dst) os << ", ";
    first_dst = false;
    os << c.dst;
    if (c.width_bits != ir::kUnboundedWidth) os << " (" << c.width_bits << "b)";
  }
  os << "}";
  return os.str();
}

/// Total atomic steps across all processes per complete execution — the
/// paper's step-complexity figure for the whole protocol.
ir::Count total_steps(const ir::ProtocolSummary& sum) {
  ir::Count total;
  for (const ir::Count& s : sum.steps) total = total.seq(s);
  return total;
}

/// Per-process step and round counts, derived by the same abstract
/// interpretation that audits the widths (ir::summarize_full).
void write_step_table(std::ostream& os, const ir::ProtocolIR& p,
                      const ir::ProtocolSummary& sum,
                      const ir::StepReport& bounds) {
  os << "| process | steps/exec | step bound | rounds/exec |\n"
     << "|---------|------------|------------|-------------|\n";
  for (std::size_t i = 0; i < p.processes.size(); ++i) {
    const ir::ProcessStepBound& b = bounds.processes[i];
    const std::string bound =
        b.finite ? b.bound.render()
                 : (b.serve ? std::string("∞ (serve)")
                            : std::string("∞ (unproven)"));
    os << "| p" << p.processes[i].pid << " | " << ir::render(sum.steps[i])
       << " | " << bound << " | "
       << (p.max_rounds == ir::kMany ? std::string("—")
                                     : ir::render(sum.rounds[i]))
       << " |\n";
  }
  os << "| **total** | " << ir::render(total_steps(sum)) << " | | |\n";
}

void write_register_table(std::ostream& os, const ir::ProtocolIR& p,
                          const std::vector<ir::RegisterSummary>& sums) {
  if (p.registers.empty()) {
    os << "No shared registers (message passing only).\n";
    return;
  }
  os << "| # | register | owner | declared bits | write-once | ⊥ | "
        "writes/exec | derived value set | symbolic width |\n"
     << "|---|----------|-------|---------------|------------|---|"
        "-------------|-------------------|----------------|\n";
  for (std::size_t i = 0; i < p.registers.size(); ++i) {
    const ir::RegisterDecl& r = p.registers[i];
    const ir::RegisterSummary& s = sums[i];
    os << "| " << i << " | `" << r.name << "` | p" << r.writer << " | "
       << width_cell(r.width_bits) << " | " << (r.write_once ? "yes" : "—")
       << " | " << (r.allows_bottom ? "yes" : "—") << " | "
       << ir::render(s.writes) << " | "
       << (s.written ? ir::render(s.values) : std::string("—")) << " | "
       << (s.sym.defined() ? code_span(s.sym.render()) : std::string("—"))
       << " |\n";
  }
}

void write_structure(std::ostream& os, const ir::ProtocolIR& p) {
  os << "```text\n";
  for (const ir::ProcessIR& proc : p.processes) {
    os << "process p" << proc.pid << ":\n";
    for (const ir::Instr& i : proc.body) {
      os << "  " << ir::render(i) << "\n";
    }
  }
  os << "```\n";
}

void write_spec(std::ostream& os, const ProtocolSpec& s) {
  const ir::ProtocolIR p = s.describe();
  const ir::ProtocolSummary sum = ir::summarize_full(p);
  os << "## `" << s.name << "`\n\n" << s.description << ".\n\n";
  os << "- **Paper anchor:** " << s.claim.source << "\n";
  os << "- **Claimed register width:** " << claim_cell(s.claim);
  if (s.claim.per_process_bits.has_value()) {
    os << "; per-process budget " << bits_word(*s.claim.per_process_bits);
  }
  os << "\n";
  os << "- **Claim verification:** " << verified_cell(s)
     << " (symbolic prover; see docs/ANALYSIS.md)\n";
  os << "- **Step claim:** ";
  if (s.step_claim.max_steps.defined()) {
    os << "at most " << s.step_claim.max_steps.render()
       << " steps/process [" << s.step_claim.source << "]";
    const std::string status = analyze_steps(s).step_verified;
    if (!status.empty()) os << ", verified: " << status;
  } else {
    os << "none [" << s.step_claim.source << "]";
  }
  os << "\n";
  const std::string params = params_line(s.params);
  if (!params.empty()) os << "- **Parameters:** " << params << "\n";
  os << "- **Audit:** " << audit_cell(s) << "\n";
  os << "- **Topology:** " << topology_line(p) << "\n";
  os << "- **Round budget:** "
     << (p.max_rounds == ir::kMany
             ? std::string("undeclared (no round structure)")
             : "at most " + std::to_string(p.max_rounds) + " per process")
     << "\n";
  os << "- **Lint rules:** ";
  const std::vector<std::string> rules = applicable_rules(s, p);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (i > 0) os << ", ";
    os << rules[i];
  }
  os << "\n\n### Step counts\n\n";
  write_step_table(os, p, sum, ir::step_bounds(p));
  os << "\n### Registers\n\n";
  write_register_table(os, p, sum.registers);
  os << "\n### Reflected structure\n\n";
  write_structure(os, p);
  os << "\n";
}

}  // namespace

void write_protocol_reference(std::ostream& os) {
  const std::vector<ProtocolSpec>& specs = builtin_protocols();
  os << "# Protocol reference\n\n"
     << "<!-- Generated by `bsr doc` — do not edit by hand. Regenerate with\n"
     << "     scripts/update_goldens.sh; CI fails when this file is stale. "
        "-->\n\n"
     << "Every entry below is derived from the protocol's executable builder "
        "body\n"
     << "(`src/proto/builder.h`): the same coroutine that runs under "
        "`sim::Sim` is\n"
     << "reflected into the static IR rendered here, so this reference "
        "cannot drift\n"
     << "from the code. Widths are in bits; `[lo, hi]` denotes a value or "
        "trip-count\n"
     << "interval, `∞` an interval with no finite upper bound, and `⊥` the "
        "reserved\n"
     << "bottom code point. The rule catalogue behind the *Lint rules* lines "
        "is\n"
     << "documented in docs/ANALYSIS.md.\n\n";

  os << "| protocol | paper anchor | claimed width | verified | steps/exec "
        "| step bound | audit |\n"
     << "|----------|--------------|---------------|----------|------------"
        "|------------|-------|\n";
  for (const ProtocolSpec& s : specs) {
    const ir::Count steps = total_steps(ir::summarize_full(s.describe()));
    os << "| [`" << s.name << "`](#" << s.name << ") | " << s.claim.source
       << " | " << claim_cell(s.claim) << " | " << verified_cell(s) << " | "
       << ir::render(steps) << " | " << step_bound_cell(s) << " | "
       << audit_cell(s) << " |\n";
  }
  os << "\n";
  for (const ProtocolSpec& s : specs) write_spec(os, s);

  os << "## `bsr serve` request modes\n\n"
     << "The analysis daemon (docs/SERVE.md) answers these request modes; "
        "*cacheable*\n"
     << "modes are served from the IR-keyed result cache on repeat "
        "requests. This\n"
     << "table is rendered from the daemon's own dispatch table "
        "(src/serve/modes.h).\n\n";
  write_serve_modes(os);
}

void write_serve_modes(std::ostream& os) {
  os << "| mode | cacheable | payload | contract |\n"
     << "|------|-----------|---------|----------|\n";
  std::size_t count = 0;
  const serve::ModeInfo* table = serve::dispatch_table(&count);
  for (std::size_t i = 0; i < count; ++i) {
    os << "| `" << table[i].mode << "` | "
       << (table[i].cacheable ? "yes" : "—") << " | " << table[i].payload
       << " | " << table[i].description << " |\n";
  }
}

}  // namespace bsr::analysis
