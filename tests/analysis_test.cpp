// Tests of the model-conformance analyzer (src/analysis): the Sim's
// violation-collect mode and its undo-log integration, schedule
// fingerprints, diagnostic sinks, the claims registry, and end-to-end
// analysis of clean and deliberately-broken protocols.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/claims.h"
#include "analysis/diag.h"
#include "analysis/lint.h"
#include "sim/explore.h"
#include "sim/sched.h"
#include "sim/sim.h"
#include "util/errors.h"

namespace bsr::analysis {
namespace {

using sim::Choice;
using sim::ModelEvent;
using sim::Sim;

/// p0 writes p1's register: one SWMR violation per execution, no matter the
/// interleaving.
std::unique_ptr<Sim> make_swmr_violator() {
  auto sim = std::make_unique<Sim>(2);
  const int r = sim->add_register("R", 1, 2, Value(0));
  sim->spawn(0, [r](sim::Env& env) -> sim::Proc {
    co_await env.write(r, Value(1));
    co_return Value(0);
  });
  sim->spawn(1, [r](sim::Env& env) -> sim::Proc {
    (void)co_await env.read(r);
    co_return Value(0);
  });
  return sim;
}

TEST(ViolationCollecting, ThrowsByDefault) {
  auto sim = make_swmr_violator();
  EXPECT_THROW(run_round_robin(*sim), ModelError);
}

TEST(ViolationCollecting, CollectsAndContinues) {
  auto sim = make_swmr_violator();
  sim->set_violation_collecting(true);
  run_round_robin(*sim);
  ASSERT_EQ(sim->model_violations().size(), 1u);
  const ModelEvent& e = sim->model_violations()[0];
  EXPECT_EQ(e.kind, ModelEvent::Kind::Swmr);
  EXPECT_EQ(e.pid, 0);
  EXPECT_EQ(e.reg, 0);
  // The violating write still took effect and both processes finished.
  EXPECT_EQ(sim->peek(0).as_u64(), 1u);
  EXPECT_TRUE(sim->terminated(0));
  EXPECT_TRUE(sim->terminated(1));
}

TEST(ViolationCollecting, ClassifiesWidthBottomAndWriteOnce) {
  Sim sim(1);
  const int wide = sim.add_register("W", 0, 2, Value(0));
  const int bot = sim.add_bottom_register("B", 0, 2);
  const int once = sim.add_bottom_register("O", 0, 2, /*write_once=*/true);
  sim.set_violation_collecting(true);
  sim.spawn(0, [=](sim::Env& env) -> sim::Proc {
    co_await env.write(wide, Value(9));  // 4 bits into a 2-bit register.
    co_await env.write(bot, Value(3));   // 3 is B's reserved ⊥ code point.
    co_await env.write(once, Value(1));
    co_await env.write(once, Value(0));  // Second write to a write-once reg.
    co_return Value(0);
  });
  run_round_robin(sim);
  std::vector<ModelEvent::Kind> kinds;
  for (const ModelEvent& e : sim.model_violations()) kinds.push_back(e.kind);
  EXPECT_EQ(kinds, (std::vector<ModelEvent::Kind>{
                       ModelEvent::Kind::Width, ModelEvent::Kind::Bottom,
                       ModelEvent::Kind::WriteOnce}));
}

// The event log participates in the explorer's incremental backtracking: if
// rewind did not truncate it, later branches of the DFS would accumulate the
// violations of every previously-explored sibling.
TEST(ViolationCollecting, RewindKeepsEventLogPerPath) {
  const sim::Explorer explorer(sim::ExploreOptions{.max_steps = 50});
  long leaves = 0;
  explorer.explore(
      [] {
        auto sim = make_swmr_violator();
        sim->set_violation_collecting(true);
        return sim;
      },
      [&leaves](Sim& sim, const std::vector<Choice>&) {
        ++leaves;
        EXPECT_EQ(sim.model_violations().size(), 1u);
      });
  EXPECT_GT(leaves, 1);
}

TEST(Fingerprint, StableDiscriminatingHex) {
  const std::vector<Choice> a{{Choice::Kind::Step, 0, -1},
                              {Choice::Kind::Step, 1, -1}};
  const std::vector<Choice> b{{Choice::Kind::Step, 1, -1},
                              {Choice::Kind::Step, 0, -1}};
  EXPECT_EQ(schedule_fingerprint(a), schedule_fingerprint(a));
  EXPECT_NE(schedule_fingerprint(a), schedule_fingerprint(b));
  EXPECT_NE(schedule_fingerprint(a), schedule_fingerprint({}));
  EXPECT_EQ(schedule_fingerprint(a).size(), 16u);
  EXPECT_EQ(schedule_fingerprint(a).find_first_not_of("0123456789abcdef"),
            std::string::npos);
}

ProtocolReport sample_report() {
  ProtocolReport rep;
  rep.name = "p";
  rep.claim_source = "Theorem T";
  rep.executions = 7;
  rep.max_bounded_bits_used = 2;
  rep.claimed_register_bits = 3;
  rep.claimed_bits_expr = "ceil_log2(k) + delta";
  Diagnostic err;
  err.rule = "swmr-ownership";
  err.protocol = "p";
  err.pid = 0;
  err.reg = 1;
  err.reg_name = "R \"q\"";
  err.step = 4;
  err.fingerprint = "00ff";
  err.message = "bad";
  rep.diagnostics.push_back(err);
  Diagnostic warn;
  warn.rule = "dead-register";
  warn.severity = Severity::Warning;
  warn.protocol = "p";
  warn.message = "unused";
  rep.diagnostics.push_back(warn);
  return rep;
}

TEST(Sinks, ReportCountsBySeverity) {
  const ProtocolReport rep = sample_report();
  EXPECT_EQ(rep.errors(), 1);
  EXPECT_EQ(rep.warnings(), 1);
}

TEST(Sinks, TextFormat) {
  std::ostringstream os;
  TextSink sink(os);
  sink.report(sample_report());
  sink.close(1, 1);
  const std::string out = os.str();
  EXPECT_NE(out.find("p: 7 executions explored"), std::string::npos);
  EXPECT_NE(out.find("2/3 (= ceil_log2(k) + delta) claimed [Theorem T]"),
            std::string::npos);
  EXPECT_NE(out.find("error[swmr-ownership] p0 register 'R \"q\"' step 4"),
            std::string::npos);
  EXPECT_NE(out.find("warning[dead-register]"), std::string::npos);
  EXPECT_NE(out.find("lint: 1 error(s), 1 warning(s)"), std::string::npos);
}

TEST(Sinks, JsonFormatEscapesAndAggregates) {
  std::ostringstream os;
  JsonSink sink(os);
  sink.report(sample_report());
  sink.close(1, 1);
  const std::string out = os.str();
  EXPECT_EQ(out.rfind("{\"protocols\":[{\"name\":\"p\"", 0), 0u);
  EXPECT_NE(out.find("\"executions\":7"), std::string::npos);
  EXPECT_NE(out.find("\"claimed_bits_expr\":\"ceil_log2(k) + delta\""),
            std::string::npos);
  EXPECT_NE(out.find("\"rule\":\"swmr-ownership\""), std::string::npos);
  EXPECT_NE(out.find("\"register_name\":\"R \\\"q\\\"\""), std::string::npos);
  EXPECT_NE(out.find("\"errors\":1,\"warnings\":1}"), std::string::npos);
}

TEST(Sinks, JsonEscape) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json_escape("⊥"), "⊥");  // UTF-8 passes through.
  // Backspace and form feed have dedicated short escapes, not \u codes.
  EXPECT_EQ(json_escape("\b\f\r\t"), "\\b\\f\\r\\t");
  // A register name that is nothing but quotes and backslashes stays a
  // valid JSON string literal.
  EXPECT_EQ(json_escape("\"\\\""), "\\\"\\\\\\\"");
}

TEST(Claims, RegistryIsWellFormed) {
  const auto& specs = builtin_protocols();
  ASSERT_FALSE(specs.empty());
  std::set<std::string> names;
  for (const ProtocolSpec& s : specs) {
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
    EXPECT_FALSE(s.claim.source.empty()) << s.name;
    ASSERT_TRUE(static_cast<bool>(s.factory)) << s.name;
  }
  ASSERT_NE(find_protocol("alg1"), nullptr);
  EXPECT_FALSE(find_protocol("alg1")->demo);
  ASSERT_NE(find_protocol("demo-misdeclared"), nullptr);
  EXPECT_TRUE(find_protocol("demo-misdeclared")->demo);
  EXPECT_EQ(find_protocol("no-such-protocol"), nullptr);
}

TEST(Claims, EveryProtocolIsFullyAudited) {
  // Completeness: a protocol cannot ship unaudited. Every registry entry
  // needs a width claim with a paper source AND a static IR (describe), or
  // a listed exemption with a reason. The exemption list is empty today;
  // add to it only with a comment explaining why the tier cannot apply.
  const std::set<std::string> exempt_from_static_ir = {};
  for (const ProtocolSpec& s : builtin_protocols()) {
    EXPECT_FALSE(s.claim.source.empty()) << s.name << " has no claim source";
    EXPECT_GE(s.claim.max_register_bits, 0) << s.name;
    if (exempt_from_static_ir.contains(s.name)) continue;
    EXPECT_TRUE(static_cast<bool>(s.describe))
        << s.name << " has no describe() hook and no exemption";
  }
}

TEST(Analyzer, Alg1SatisfiesItsClaim) {
  const ProtocolSpec* spec = find_protocol("alg1");
  ASSERT_NE(spec, nullptr);
  const ProtocolReport rep = analyze_protocol(*spec);
  EXPECT_EQ(rep.errors(), 0);
  EXPECT_GT(rep.executions, 0);
  EXPECT_FALSE(rep.sampled);
  EXPECT_LE(rep.max_bounded_bits_used, spec->claim.max_register_bits);
}

TEST(Analyzer, Lemma82UsesItsOneDataBit) {
  // Lemma 8.2 claims 1 data bit + ⊥ per iterated register (2 bits). The
  // dynamic tier must observe the data bit actually written, not 0: every
  // write is width-tracked.
  const ProtocolSpec* spec = find_protocol("lemma82");
  ASSERT_NE(spec, nullptr);
  const ProtocolReport rep = analyze_protocol(*spec);
  EXPECT_EQ(rep.errors(), 0);
  EXPECT_EQ(rep.max_bounded_bits_used, 1);
  EXPECT_EQ(spec->claim.max_register_bits, 2);
}

TEST(Analyzer, MisdeclaredDemoTripsEveryRule) {
  const ProtocolSpec* spec = find_protocol("demo-misdeclared");
  ASSERT_NE(spec, nullptr);
  const ProtocolReport rep = analyze_protocol(*spec);
  EXPECT_GT(rep.errors(), 0);
  std::set<std::string> rules;
  for (const Diagnostic& d : rep.diagnostics) rules.insert(d.rule);
  for (const char* rule :
       {"claim-width", "claim-usage", "swmr-ownership", "write-once",
        "width-overflow", "bottom-escape", "dead-register", "width-unused"}) {
    EXPECT_TRUE(rules.contains(rule)) << "missing rule " << rule;
  }
  // Schedule-level findings carry a replay fingerprint and step index.
  const auto it = std::find_if(
      rep.diagnostics.begin(), rep.diagnostics.end(),
      [](const Diagnostic& d) { return d.rule == "swmr-ownership"; });
  ASSERT_NE(it, rep.diagnostics.end());
  EXPECT_FALSE(it->fingerprint.empty());
  EXPECT_GE(it->step, 0);
  EXPECT_EQ(it->reg_name, "demo.peer");
}

TEST(Analyzer, SymbolicClaimBudgetsTheDynamicTier) {
  // The symbolic canary's budget ⌈log₂ k⌉ + Δ evaluates to 2 bits at its
  // instantiation; its 3-bit registers and 3-bit writes must trip the same
  // claim rules a constant budget would.
  const ProtocolSpec* spec = find_protocol("demo-misdeclared-symbolic");
  ASSERT_NE(spec, nullptr);
  EXPECT_TRUE(spec->demo);
  EXPECT_EQ(spec->claim.effective_bits(spec->params), 2);
  const ProtocolReport rep = analyze_protocol(*spec);
  EXPECT_EQ(rep.claimed_bits_expr, "ceil_log2(k) + delta");
  std::set<std::string> rules;
  for (const Diagnostic& d : rep.diagnostics) rules.insert(d.rule);
  EXPECT_TRUE(rules.contains("claim-width"));
  EXPECT_TRUE(rules.contains("claim-usage"));
  EXPECT_EQ(rep.errors(), 4);  // declaration + usage, one per register
}

TEST(Analyzer, SampledStackSatisfiesItsClaim) {
  const ProtocolSpec* spec = find_protocol("sec6-stack");
  ASSERT_NE(spec, nullptr);
  const ProtocolReport rep = analyze_protocol(*spec);
  EXPECT_TRUE(rep.sampled);
  EXPECT_EQ(rep.executions, spec->sample_seeds);
  EXPECT_EQ(rep.errors(), 0);
  EXPECT_EQ(rep.max_bounded_bits_used, spec->claim.max_register_bits);
}

TEST(Analyzer, PerProcessBudgetIsEnforced) {
  // A register table within the per-register bound but over the per-process
  // sum: two 2-bit registers for p0 against a 3-bit-per-process claim.
  ProtocolSpec spec;
  spec.name = "overbudget";
  spec.claim = {2, 3, "test"};
  spec.factory = [] {
    auto sim = std::make_unique<Sim>(1);
    const int a = sim->add_register("A", 0, 2, Value(0));
    const int b = sim->add_register("B", 0, 2, Value(0));
    sim->spawn(0, [=](sim::Env& env) -> sim::Proc {
      co_await env.write(a, Value(1));
      (void)co_await env.read(b);
      (void)co_await env.read(a);
      co_return Value(0);
    });
    return sim;
  };
  spec.explore.max_steps = 20;
  const ProtocolReport rep = analyze_protocol(spec);
  ASSERT_EQ(rep.errors(), 1);
  EXPECT_EQ(rep.diagnostics[0].rule, "claim-width");
  EXPECT_NE(rep.diagnostics[0].message.find("owns 4 bounded bits"),
            std::string::npos);
}

}  // namespace
}  // namespace bsr::analysis
