#include "analysis/diag.h"

#include <cstdio>
#include <ostream>

namespace bsr::analysis {

std::string to_string(Severity s) {
  switch (s) {
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

std::string to_string(Mode m) {
  switch (m) {
    case Mode::Dynamic: return "dynamic";
    case Mode::Static: return "static";
    case Mode::Symbolic: return "symbolic";
    case Mode::Both: return "both";
    case Mode::Interference: return "interference";
    case Mode::Steps: return "steps";
  }
  return "?";
}

std::string schedule_fingerprint(const std::vector<sim::Choice>& schedule) {
  // FNV-1a over the choice triples; stable across platforms by construction.
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ull;
  };
  for (const sim::Choice& c : schedule) {
    mix(c.kind == sim::Choice::Kind::Step ? 1u : 2u);
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(c.pid)) + 1);
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(c.recv_from)) +
        2);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

int ProtocolReport::errors() const {
  int n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::Error) ++n;
  }
  return n;
}

int ProtocolReport::warnings() const {
  int n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::Warning) ++n;
  }
  return n;
}

void TextSink::report(const ProtocolReport& r) {
  os_ << r.name << ": ";
  if (r.mode == Mode::Interference) {
    os_ << "interference: " << r.interference_ops << " op site(s), "
        << r.interference_pairs << " cross-process pair(s), "
        << r.interference_independent << " independent";
    if (r.interference_truncated) os_ << " (detail truncated)";
    if (r.diagnostics.empty()) {
      os_ << ": clean\n";
      return;
    }
    os_ << "\n";
    for (const Diagnostic& d : r.diagnostics) {
      os_ << "  " << to_string(d.severity) << "[" << d.rule << "]";
      if (d.pid != -1) os_ << " p" << d.pid;
      if (d.reg != -1) os_ << " register '" << d.reg_name << "'";
      os_ << ": " << d.message << "\n";
    }
    return;
  }
  if (r.mode == Mode::Steps) {
    // Step tier: the symbolic per-process bounds, the claim they were
    // proved against, and the dynamic observation they were checked
    // against — one row per process.
    os_ << r.executions
        << (r.sampled ? " sampled runs" : " executions explored")
        << " + step-bound audit, ";
    if (!r.step_claim_expr.empty()) {
      os_ << "claimed <= " << r.step_claim_expr << " steps/process";
    } else {
      os_ << "no finite step claim";
    }
    os_ << " [" << r.step_claim_source << "]";
    if (!r.step_verified.empty()) os_ << ", verified: " << r.step_verified;
    os_ << (r.diagnostics.empty() ? ": clean" : "") << "\n";
    for (const StepAudit& a : r.steps) {
      os_ << "  p" << a.pid << ": bound " << a.bound;
      if (a.serve) os_ << " (serve)";
      if (a.finite && std::to_string(a.bound_eval) != a.bound) {
        os_ << " (= " << a.bound_eval << " here)";
      }
      if (a.observed >= 0) os_ << ", observed max " << a.observed;
      if (!a.verified.empty()) os_ << ", verified: " << a.verified;
      os_ << "\n";
    }
    for (const Diagnostic& d : r.diagnostics) {
      os_ << "  " << to_string(d.severity) << "[" << d.rule << "]";
      if (d.pid != -1) os_ << " p" << d.pid;
      os_ << ": " << d.message << "\n";
    }
    return;
  }
  if (r.mode == Mode::Static || r.mode == Mode::Symbolic) {
    os_ << "static IR audit (0 executions), max derivable bounded bits ";
  } else {
    os_ << r.executions
        << (r.sampled ? " sampled runs" : " executions explored");
    if (r.mode == Mode::Both) os_ << " + static IR audit";
    os_ << ", max bounded bits used ";
  }
  os_ << r.max_bounded_bits_used << "/" << r.claimed_register_bits;
  if (!r.claimed_bits_expr.empty()) os_ << " (= " << r.claimed_bits_expr << ")";
  os_ << " claimed [" << r.claim_source << "]";
  if (!r.claim_verified.empty()) os_ << ", verified: " << r.claim_verified;
  if (r.diagnostics.empty()) {
    os_ << ": clean\n";
    return;
  }
  os_ << "\n";
  for (const Diagnostic& d : r.diagnostics) {
    os_ << "  " << to_string(d.severity) << "[" << d.rule << "]";
    if (d.pid != -1) os_ << " p" << d.pid;
    if (d.reg != -1) os_ << " register '" << d.reg_name << "'";
    if (d.step != -1) os_ << " step " << d.step;
    if (!d.fingerprint.empty()) os_ << " sched " << d.fingerprint;
    os_ << ": " << d.message << "\n";
  }
}

void TextSink::close(int errors, int warnings) {
  os_ << "lint: " << errors << " error(s), " << warnings << " warning(s)\n";
}

void JsonSink::report(const ProtocolReport& r) { reports_.push_back(r); }

void JsonSink::close(int errors, int warnings) {
  std::string out;
  JsonWriter w(out);
  w.begin_object().key("protocols").begin_array();
  for (const ProtocolReport& r : reports_) {
    w.begin_object();
    w.key("name").str(r.name);
    w.key("mode").str(to_string(r.mode));
    w.key("claim_source").str(r.claim_source);
    w.key("sampled").boolean(r.sampled);
    w.key("executions").num(r.executions);
    w.key("max_bounded_bits_used").num(r.max_bounded_bits_used);
    w.key("claimed_register_bits").num(r.claimed_register_bits);
    w.key("claimed_bits_expr").str(r.claimed_bits_expr);
    w.key("claim_verified").str(r.claim_verified);
    w.key("registers").begin_array();
    for (const RegisterAudit& a : r.registers) {
      w.begin_object();
      w.key("index").num(a.reg);
      w.key("name").str(a.name);
      w.key("writer").num(a.writer);
      w.key("declared_bits").num(a.declared_bits);
      w.key("write_once").boolean(a.write_once);
      w.key("allows_bottom").boolean(a.allows_bottom);
      w.key("max_bits").num(a.max_bits);
      w.key("max_writes").num(a.max_writes);
      w.key("read").boolean(a.read);
      w.key("sym_bits").str(a.sym_bits);
      w.key("verified").str(a.verified);
      w.end_object();
    }
    w.end_array().key("diagnostics").begin_array();
    for (const Diagnostic& d : r.diagnostics) {
      w.begin_object();
      w.key("rule").str(d.rule);
      w.key("severity").str(to_string(d.severity));
      w.key("pid").num(d.pid);
      w.key("register").num(d.reg);
      w.key("register_name").str(d.reg_name);
      w.key("step").num(d.step);
      w.key("fingerprint").str(d.fingerprint);
      w.key("message").str(d.message);
      w.end_object();
    }
    w.end_array();
    if (r.mode == Mode::Interference) {
      // Interference tier: totals over the full op-pair relation plus the
      // (possibly truncated) pair detail. Documented in docs/ANALYSIS.md.
      w.key("interference").begin_object();
      w.key("ops").num(r.interference_ops);
      w.key("pairs").num(r.interference_pairs);
      w.key("independent").num(r.interference_independent);
      w.key("truncated").boolean(r.interference_truncated);
      w.key("detail").begin_array();
      for (const InterferencePair& p : r.interference) {
        w.begin_object();
        w.key("a").str(p.a);
        w.key("b").str(p.b);
        w.key("independent").boolean(p.independent);
        w.key("reason").str(p.reason);
        w.end_object();
      }
      w.end_array().end_object();
    }
    if (r.mode == Mode::Steps) {
      // Step tier: the claim, the aggregate verdict, and one row per
      // process. Documented in docs/ANALYSIS.md.
      w.key("steps").begin_object();
      w.key("claim").str(r.step_claim_expr);
      w.key("claim_source").str(r.step_claim_source);
      w.key("verified").str(r.step_verified);
      w.key("processes").begin_array();
      for (const StepAudit& a : r.steps) {
        w.begin_object();
        w.key("pid").num(a.pid);
        w.key("bound").str(a.bound);
        w.key("finite").boolean(a.finite);
        w.key("serve").boolean(a.serve);
        w.key("bound_eval").num(a.bound_eval);
        w.key("observed").num(a.observed);
        w.key("verified").str(a.verified);
        w.end_object();
      }
      w.end_array().end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.key("errors").num(errors);
  w.key("warnings").num(warnings);
  w.end_object();
  os_ << out << "\n";
}

}  // namespace bsr::analysis
