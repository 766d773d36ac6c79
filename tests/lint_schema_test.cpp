// Schema tests for `bsr lint --json` (documented in docs/ANALYSIS.md): the
// JSON reader (util/json.h) validates the document structure the sink
// emits, and golden files pin the static tier's exact output so the schema
// cannot drift silently. The golden files are regenerated with:
//
//   ./scripts/update_goldens.sh
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "util/json.h"

namespace bsr::analysis {
namespace {

std::string lint_json(LintMode mode, std::vector<std::string> protocols) {
  LintOptions opts;
  opts.protocols = std::move(protocols);
  opts.mode = mode;
  opts.json = true;
  std::ostringstream out;
  std::ostringstream err;
  run_lint(opts, out, err);
  EXPECT_TRUE(err.str().empty()) << err.str();
  return out.str();
}

/// The documented schema (docs/ANALYSIS.md): key presence and types for the
/// top level, a protocol entry, a register row, and a diagnostic.
void check_schema(const std::string& json) {
  const Json doc = Json::parse(json);
  ASSERT_TRUE(doc.is_object());
  const auto& top = doc.object();
  ASSERT_TRUE(top.contains("protocols"));
  ASSERT_TRUE(top.contains("errors"));
  ASSERT_TRUE(top.contains("warnings"));
  (void)top.at("errors").num();
  (void)top.at("warnings").num();
  for (const Json& pv : top.at("protocols").array()) {
    const auto& p = pv.object();
    for (const char* key :
         {"name", "mode", "claim_source", "sampled", "executions",
          "max_bounded_bits_used", "claimed_register_bits",
          "claimed_bits_expr", "claim_verified", "registers", "diagnostics"}) {
      ASSERT_TRUE(p.contains(key)) << "protocol entry missing " << key;
    }
    const std::string& mode = p.at("mode").str();
    EXPECT_TRUE(mode == "dynamic" || mode == "static" || mode == "symbolic" ||
                mode == "both" || mode == "interference" || mode == "steps");
    // Steps mode runs the dynamic tier for its observations, so it is the
    // one non-dynamic mode with a nonzero execution count.
    if (mode == "static" || mode == "symbolic" || mode == "interference") {
      EXPECT_EQ(p.at("executions").num(), 0);
    }
    // The interference relation rides along as an extra object, only in
    // interference mode: pair totals plus a (possibly truncated) detail list.
    EXPECT_EQ(p.contains("interference"), mode == "interference");
    if (mode == "interference") {
      const auto& itf = p.at("interference").object();
      for (const char* key :
           {"ops", "pairs", "independent", "truncated", "detail"}) {
        ASSERT_TRUE(itf.contains(key)) << "interference object missing " << key;
      }
      EXPECT_LE(itf.at("independent").num(), itf.at("pairs").num());
      (void)itf.at("truncated").boolean();
      for (const Json& dv : itf.at("detail").array()) {
        const auto& d = dv.object();
        for (const char* key : {"a", "b", "independent", "reason"}) {
          ASSERT_TRUE(d.contains(key)) << "interference pair missing " << key;
        }
        (void)d.at("independent").boolean();
      }
    }
    // The step-bound audit rides along as an extra object, only in steps
    // mode: the declared claim, the aggregate prover verdict, and one row
    // per process.
    EXPECT_EQ(p.contains("steps"), mode == "steps");
    if (mode == "steps") {
      const auto& st = p.at("steps").object();
      for (const char* key : {"claim", "claim_source", "verified",
                              "processes"}) {
        ASSERT_TRUE(st.contains(key)) << "steps object missing " << key;
      }
      for (const Json& rv : st.at("processes").array()) {
        const auto& row = rv.object();
        for (const char* key : {"pid", "bound", "finite", "serve",
                                "bound_eval", "observed", "verified"}) {
          ASSERT_TRUE(row.contains(key)) << "step row missing " << key;
        }
        (void)row.at("finite").boolean();
        (void)row.at("serve").boolean();
        (void)row.at("pid").num();
        (void)row.at("bound_eval").num();
        (void)row.at("observed").num();
      }
    }
    // The aggregate verdict only appears on symbolic reports, and always
    // takes one of the three canonical forms.
    const std::string& verified = p.at("claim_verified").str();
    if (mode == "symbolic") {
      EXPECT_TRUE(verified == "all params" || verified == "refuted" ||
                  verified.rfind("n <= ", 0) == 0)
          << "unexpected claim_verified: " << verified;
    } else {
      EXPECT_EQ(verified, "");
    }
    for (const Json& rv : p.at("registers").array()) {
      const auto& r = rv.object();
      for (const char* key :
           {"index", "name", "writer", "declared_bits", "write_once",
            "allows_bottom", "max_bits", "max_writes", "read", "sym_bits",
            "verified"}) {
        ASSERT_TRUE(r.contains(key)) << "register row missing " << key;
      }
      (void)r.at("write_once").boolean();
      (void)r.at("read").boolean();
    }
    for (const Json& dv : p.at("diagnostics").array()) {
      const auto& d = dv.object();
      for (const char* key : {"rule", "severity", "pid", "register",
                              "register_name", "step", "fingerprint",
                              "message"}) {
        ASSERT_TRUE(d.contains(key)) << "diagnostic missing " << key;
      }
      const std::string& sev = d.at("severity").str();
      EXPECT_TRUE(sev == "error" || sev == "warning");
    }
  }
}

TEST(LintSchema, DynamicDocumentMatchesDocumentedSchema) {
  check_schema(lint_json(LintMode::Dynamic, {"alg1", "demo-misdeclared"}));
}

TEST(LintSchema, StaticDocumentMatchesDocumentedSchema) {
  check_schema(lint_json(LintMode::Static, {"alg1", "demo-misdeclared"}));
}

TEST(LintSchema, SymbolicDocumentMatchesDocumentedSchema) {
  const std::string json = lint_json(
      LintMode::Symbolic, {"alg1", "sec4-quantized", "demo-holds-small-n"});
  check_schema(json);
  const Json doc = Json::parse(json);
  const auto& protocols = doc.object().at("protocols").array();
  ASSERT_EQ(protocols.size(), 3u);
  EXPECT_EQ(protocols[0].object().at("mode").str(), "symbolic");
  EXPECT_EQ(protocols[0].object().at("claim_verified").str(), "all params");
  EXPECT_EQ(protocols[1].object().at("claim_verified").str(), "all params");
  // The canary passes every per-env tier but is refuted as a theorem; the
  // witness environment must appear in the static-width-all-n message.
  EXPECT_EQ(protocols[2].object().at("claim_verified").str(), "refuted");
  bool witnessed = false;
  for (const Json& dv : protocols[2].object().at("diagnostics").array()) {
    const auto& d = dv.object();
    if (d.at("rule").str() == "static-width-all-n" &&
        d.at("message").str().find("(n=5, k=1, delta=1, t=0, b=1)") !=
            std::string::npos) {
      witnessed = true;
    }
  }
  EXPECT_TRUE(witnessed) << "no static-width-all-n refutation with witness";
}

TEST(LintSchema, InterferenceDocumentMatchesDocumentedSchema) {
  const std::string json = lint_json(LintMode::Interference,
                                     {"alg1", "demo-false-independence"});
  check_schema(json);
  const Json doc = Json::parse(json);
  const auto& protocols = doc.object().at("protocols").array();
  ASSERT_EQ(protocols.size(), 2u);
  // alg1's relation is non-trivial in both directions: some pairs commute
  // (disjoint footprints), some do not (the shared bounded register).
  const auto& itf = protocols[0].object().at("interference").object();
  EXPECT_GT(itf.at("pairs").num(), 0);
  EXPECT_GT(itf.at("independent").num(), 0);
  EXPECT_LT(itf.at("independent").num(), itf.at("pairs").num());
  // The canary warns on exactly its contention-free bounded register.
  const auto& diags = protocols[1].object().at("diagnostics").array();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].object().at("rule").str(), "static-interference");
  EXPECT_EQ(diags[0].object().at("register_name").str(), "fi.private");
}

TEST(LintSchema, StepsDocumentMatchesDocumentedSchema) {
  const std::string json =
      lint_json(LintMode::Steps, {"alg1", "demo-unbounded-loop"});
  check_schema(json);
  const Json doc = Json::parse(json);
  const auto& protocols = doc.object().at("protocols").array();
  ASSERT_EQ(protocols.size(), 2u);
  // alg1: both processes provably within the 7-step claim, and the
  // explorer's observed maxima agree with the bound exactly.
  const auto& alg1 = protocols[0].object().at("steps").object();
  EXPECT_EQ(alg1.at("claim").str(), "7");
  EXPECT_EQ(alg1.at("verified").str(), "all params");
  for (const Json& rv : alg1.at("processes").array()) {
    const auto& row = rv.object();
    EXPECT_TRUE(row.at("finite").boolean());
    EXPECT_EQ(row.at("bound_eval").num(), 7);
    EXPECT_EQ(row.at("observed").num(), 7);
    EXPECT_EQ(row.at("verified").str(), "all params");
  }
  EXPECT_TRUE(protocols[0].object().at("diagnostics").array().empty());
  // The canary: every per-env tier passes it, but the undeclared [0, ∞]
  // loop has no termination argument — exactly one static-termination
  // error, on the looping process.
  const auto& diags = protocols[1].object().at("diagnostics").array();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].object().at("rule").str(), "static-termination");
  EXPECT_EQ(diags[0].object().at("severity").str(), "error");
  EXPECT_EQ(diags[0].object().at("pid").num(), 0);
  const auto& rows = protocols[1].object().at("steps").object()
                              .at("processes").array();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_FALSE(rows[0].object().at("finite").boolean());
  EXPECT_FALSE(rows[0].object().at("serve").boolean());
  EXPECT_EQ(rows[0].object().at("bound").str(), "∞");
}

TEST(LintSchema, BothDocumentMatchesDocumentedSchema) {
  const std::string json = lint_json(LintMode::Both, {"alg1"});
  check_schema(json);
  const Json doc = Json::parse(json);
  EXPECT_EQ(doc.object().at("protocols").array()[0].object().at("mode").str(),
            "both");
}

void check_golden(const std::string& file, LintMode mode,
                  std::vector<std::string> protocols, int expected_exit = 1) {
  // Exact-output pin: the static/symbolic/interference tiers are
  // deterministic (no exploration), and the steps tier's exploration half
  // is exhaustive (execution counts and observed maxima are schedule-order
  // independent), so any schema or diagnostic drift shows up as a
  // golden-file diff. Most goldens pair a canary that fails (exit 1);
  // warning-only canaries pin exit 0.
  std::ifstream golden(std::string(BSR_GOLDEN_DIR) + "/" + file);
  ASSERT_TRUE(golden.good()) << "missing tests/golden/" << file;
  std::ostringstream want;
  want << golden.rdbuf();
  LintOptions opts;
  opts.protocols = std::move(protocols);
  opts.mode = mode;
  opts.json = true;
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_lint(opts, out, err), expected_exit);
  EXPECT_EQ(out.str(), want.str())
      << "regenerate with: ./scripts/update_goldens.sh";
}

TEST(LintSchema, StaticGoldenFileIsCurrent) {
  check_golden("lint_static.json", LintMode::Static,
               {"alg1", "demo-misdeclared"});
}

TEST(LintSchema, SymbolicGoldenFileIsCurrent) {
  // Pins the symbolic-width surface: sec4-quantized's claim and write set
  // are WidthExpr terms (⌈log₂ k⌉), the symbolic canary's violated budget
  // is ⌈log₂ k⌉ + Δ, and demo-holds-small-n is the all-params refutation
  // with its witness env — claimed_bits_expr, sym_bits, claim_verified and
  // the verified rows must render byte-identically across schema changes.
  check_golden(
      "lint_symbolic.json", LintMode::Symbolic,
      {"sec4-quantized", "demo-misdeclared-symbolic", "demo-holds-small-n"});
}

TEST(LintSchema, StepsGoldenFileIsCurrent) {
  // Pins the step-bound surface: alg1's proved 7-step claim with exact
  // observed maxima, and the termination canary's static-termination error
  // with its ∞ bound row.
  check_golden("lint_steps.json", LintMode::Steps,
               {"alg1", "demo-unbounded-loop"});
}

TEST(LintSchema, InterferenceGoldenFileIsCurrent) {
  // Pins the interference surface: alg1's pair totals and detail rows, and
  // the demo's static-interference warning on 'fi.private'. The canary is
  // warning-only, so the pinned exit code is 0.
  check_golden("lint_interference.json", LintMode::Interference,
               {"alg1", "demo-false-independence"}, /*expected_exit=*/0);
}

}  // namespace
}  // namespace bsr::analysis
