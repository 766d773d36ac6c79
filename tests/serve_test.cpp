// The `bsr serve` engine, transport excluded (serve_socket_test.cpp covers
// the daemon): the IR fingerprint that keys the result cache, the LRU cache
// itself, and the Service request/response contract — including the two
// properties the service exists to provide: a warm response byte-identical
// to the cold one, and repeat requests that run zero simulator steps.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/claims.h"
#include "analysis/doc.h"
#include "analysis/lint.h"
#include "analysis/static/fingerprint.h"
#include "core/alg1.h"
#include "serve/cache.h"
#include "serve/modes.h"
#include "serve/service.h"
#include "sim/sim.h"
#include "util/json.h"

namespace {

using namespace bsr;
namespace air = bsr::analysis::ir;

constexpr const char* kLintStaticAlg1 =
    R"({"mode":"lint","protocols":["alg1"],"lint_mode":"static"})";

// ---------------------------------------------------------------- fingerprint

TEST(Fingerprint, ReflectionIsDeterministic) {
  // The cache-key soundness argument rests on this: reflecting the same
  // builder body twice yields the same IR, hence the same key.
  const air::ProtocolIR a = core::describe_alg1(2);
  const air::ProtocolIR b = core::describe_alg1(2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(air::fingerprint(a), air::fingerprint(b));
}

TEST(Fingerprint, EveryParamEnvFieldChangesTheDigest) {
  air::ParamEnv base;
  base.n = 2;
  base.k = 3;
  base.delta = 1;
  base.t = 1;
  base.b = 4;
  const std::uint64_t h0 = air::fingerprint(base);
  for (long air::ParamEnv::* field :
       {&air::ParamEnv::n, &air::ParamEnv::k, &air::ParamEnv::delta,
        &air::ParamEnv::t, &air::ParamEnv::b}) {
    air::ParamEnv mutated = base;
    mutated.*field += 1;
    EXPECT_NE(air::fingerprint(mutated), h0);
  }
}

TEST(Fingerprint, RegistryEditChangesTheDigest) {
  const air::ProtocolIR base = core::describe_alg1(2);
  const std::uint64_t h0 = air::fingerprint(base);

  air::ProtocolIR widened = base;
  widened.registers[0].width_bits += 1;
  EXPECT_NE(air::fingerprint(widened), h0);

  air::ProtocolIR renamed = base;
  renamed.registers[0].name += "x";
  EXPECT_NE(air::fingerprint(renamed), h0);

  air::ProtocolIR reowned = base;
  reowned.registers[2].writer = 1 - reowned.registers[2].writer;
  EXPECT_NE(air::fingerprint(reowned), h0);

  air::ProtocolIR once = base;
  once.registers[2].write_once = !once.registers[2].write_once;
  EXPECT_NE(air::fingerprint(once), h0);

  air::ProtocolIR extra_op = base;
  extra_op.processes[0].body.push_back(air::read(0));
  EXPECT_NE(air::fingerprint(extra_op), h0);

  air::ProtocolIR rounds = base;
  rounds.max_rounds = 7;
  EXPECT_NE(air::fingerprint(rounds), h0);

  air::ProtocolIR reparam = base;
  reparam.params.k += 1;
  EXPECT_NE(air::fingerprint(reparam), h0);
}

TEST(Fingerprint, DifferentKDifferentDigest) {
  EXPECT_NE(air::fingerprint(core::describe_alg1(2)),
            air::fingerprint(core::describe_alg1(3)));
}

// ---------------------------------------------------------------------- cache

TEST(ResultCache, MissThenHit) {
  serve::ResultCache cache(4, 1 << 20);
  serve::CacheEntry out;
  EXPECT_FALSE(cache.lookup(1, &out));
  cache.insert(1, {0, "body"});
  ASSERT_TRUE(cache.lookup(1, &out));
  EXPECT_EQ(out.exit, 0);
  EXPECT_EQ(out.body, "body");
  const serve::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, 4u);
}

TEST(ResultCache, EntryBudgetEvictsLeastRecentlyUsed) {
  serve::ResultCache cache(2, 1 << 20);
  cache.insert(1, {0, "a"});
  cache.insert(2, {0, "b"});
  serve::CacheEntry out;
  ASSERT_TRUE(cache.lookup(1, &out));  // refresh 1 → 2 is now LRU
  cache.insert(3, {0, "c"});
  EXPECT_FALSE(cache.lookup(2, &out));
  EXPECT_TRUE(cache.lookup(1, &out));
  EXPECT_TRUE(cache.lookup(3, &out));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCache, ByteBudgetEvicts) {
  serve::ResultCache cache(16, 10);
  cache.insert(1, {0, "123456"});
  cache.insert(2, {0, "654321"});  // 12 bytes total > 10 → evict key 1
  serve::CacheEntry out;
  EXPECT_FALSE(cache.lookup(1, &out));
  EXPECT_TRUE(cache.lookup(2, &out));
  EXPECT_EQ(cache.stats().bytes, 6u);
}

TEST(ResultCache, OversizedEntryIsNotCached) {
  serve::ResultCache cache(16, 4);
  cache.insert(1, {0, "too large to fit"});
  serve::CacheEntry out;
  EXPECT_FALSE(cache.lookup(1, &out));
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCache, ReinsertReplacesAndReaccountsBytes) {
  serve::ResultCache cache(16, 1 << 20);
  cache.insert(1, {0, "aaaa"});
  cache.insert(1, {1, "bb"});
  serve::CacheEntry out;
  ASSERT_TRUE(cache.lookup(1, &out));
  EXPECT_EQ(out.exit, 1);
  EXPECT_EQ(out.body, "bb");
  const serve::CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, 2u);
}

// -------------------------------------------------------------------- service

std::string replace_once(std::string s, const std::string& from,
                         const std::string& to) {
  const std::size_t at = s.find(from);
  EXPECT_NE(at, std::string::npos);
  return s.replace(at, from.size(), to);
}

TEST(Service, WarmResponseIsByteIdenticalToCold) {
  serve::Service service;
  const std::string cold = service.handle_line(kLintStaticAlg1);
  const std::string warm = service.handle_line(kLintStaticAlg1);
  // The envelope documents exactly one cold/warm difference: the `cached`
  // flag. Everything else — key, exit, payload bytes — must match exactly.
  EXPECT_EQ(replace_once(cold, "\"cached\":false", "\"cached\":true"), warm);
  EXPECT_NE(cold, warm);
}

TEST(Service, PayloadIsByteIdenticalToDirectLint) {
  serve::Service service;
  const std::string cold = service.handle_line(kLintStaticAlg1);

  analysis::LintOptions lo;
  lo.json = true;
  lo.mode = analysis::LintMode::Static;
  lo.protocols = {"alg1"};
  std::ostringstream out;
  std::ostringstream err;
  ASSERT_EQ(analysis::run_lint(lo, out, err), 0);
  std::string direct = out.str();
  ASSERT_FALSE(direct.empty());
  ASSERT_EQ(direct.back(), '\n');
  direct.pop_back();

  // The served payload is the direct CLI output, byte for byte (modulo the
  // producer's trailing newline, stripped for the one-line envelope).
  EXPECT_NE(cold.find(",\"payload\":" + direct + "}"), std::string::npos)
      << cold;
}

/// An alg1 spec whose factory counts its invocations: the only way the
/// service can run simulator steps for a lint request is through this
/// factory, so a repeat request that leaves the counter unchanged provably
/// ran zero of them.
analysis::ProtocolSpec counted_spec(std::atomic<int>* factory_calls) {
  analysis::ProtocolSpec s;
  s.name = "counted-alg1";
  s.description = "Algorithm 1 behind a counting factory";
  s.claim = {/*max_register_bits=*/2, /*per_process_bits=*/3, "test spec"};
  s.factory = [factory_calls] {
    factory_calls->fetch_add(1, std::memory_order_acq_rel);
    auto sim = std::make_unique<sim::Sim>(2);
    core::install_alg1(*sim, /*k=*/2, {0, 1});
    return sim;
  };
  s.describe = [] { return core::describe_alg1(/*k=*/2); };
  s.explore.max_steps = 200;
  return s;
}

TEST(Service, RepeatRequestRunsZeroSimulatorSteps) {
  std::atomic<int> factory_calls{0};
  const std::vector<analysis::ProtocolSpec> registry = {
      counted_spec(&factory_calls)};
  serve::ServiceOptions opts;
  opts.registry = &registry;
  serve::Service service(opts);

  const std::string req =
      R"({"mode":"lint","protocols":["counted-alg1"],"lint_mode":"dynamic"})";
  const std::string cold = service.handle_line(req);
  EXPECT_NE(cold.find("\"cached\":false"), std::string::npos) << cold;
  const int cold_calls = factory_calls.load();
  ASSERT_GT(cold_calls, 0);  // the dynamic tier really explored

  const std::string warm = service.handle_line(req);
  EXPECT_NE(warm.find("\"cached\":true"), std::string::npos) << warm;
  EXPECT_EQ(factory_calls.load(), cold_calls);  // zero new simulator work
  EXPECT_EQ(service.analyses_run(), 1u);
}

std::string extract_key(const std::string& envelope) {
  return Json::parse(envelope).str_or("key", "");
}

TEST(Service, KeyCoversModeOptionsAndProtocolSet) {
  serve::Service service;
  const std::string k_static = extract_key(service.handle_line(
      R"({"mode":"lint","protocols":["alg1"],"lint_mode":"static"})"));
  const std::string k_symbolic = extract_key(service.handle_line(
      R"({"mode":"lint","protocols":["alg1"],"lint_mode":"symbolic"})"));
  const std::string k_packed = extract_key(service.handle_line(
      R"({"mode":"lint","protocols":["alg1-packed"],"lint_mode":"static"})"));
  const std::string k_pairs = extract_key(service.handle_line(
      R"({"mode":"lint","protocols":["alg1"],"lint_mode":"static","max_pairs":7})"));
  EXPECT_NE(k_static, k_symbolic);
  EXPECT_NE(k_static, k_packed);
  EXPECT_NE(k_static, k_pairs);
  // And the key is stable: the same request again maps to the same entry.
  const std::string again = extract_key(service.handle_line(
      R"({"mode":"lint","protocols":["alg1"],"lint_mode":"static"})"));
  EXPECT_EQ(k_static, again);
}

TEST(Service, DocPayloadMatchesTheGeneratedReference) {
  serve::Service service;
  const std::string resp = service.handle_line(R"({"mode":"doc"})");

  std::ostringstream reference;
  analysis::write_protocol_reference(reference);
  std::string expected = reference.str();
  ASSERT_EQ(expected.back(), '\n');
  expected.pop_back();
  EXPECT_NE(resp.find(",\"payload\":\"" + json_escape(expected) +
                      "\"}"),
            std::string::npos);
}

TEST(Service, ErrorEnvelopes) {
  serve::Service service;
  EXPECT_NE(service.handle_line("{not json")
                .find("{\"ok\":false,\"error\":\"usage\""),
            std::string::npos);
  EXPECT_NE(service.handle_line(R"({"mode":"fly"})").find("unknown mode"),
            std::string::npos);
  EXPECT_NE(service.handle_line(
                     R"({"mode":"lint","protocols":["no-such-protocol"]})")
                .find("unknown protocol"),
            std::string::npos);
  // A line without a mode, such as a `batch` wrapper, is a usage error.
  EXPECT_TRUE(service.handle_line(R"({"batch":[{"mode":"stats"}]})")
                  .starts_with("{\"ok\":false,\"error\":\"usage\""));
  EXPECT_NE(service.handle_line(R"({"mode":"explore","k":99})")
                .find("must be in"),
            std::string::npos);
  // Nesting past the reader's limit is a usage error, not a stack overflow.
  EXPECT_EQ(service.handle_line(std::string(120000, '[')),
            "{\"ok\":false,\"error\":\"usage\",\"message\":\"malformed "
            "request JSON: nesting deeper than 64 at byte 64\"}\n");
}

TEST(Service, StatsReportsCacheAndPerModeCounters) {
  serve::Service service;
  (void)service.handle_line(kLintStaticAlg1);
  (void)service.handle_line(kLintStaticAlg1);
  const std::string resp = service.handle_line(R"({"mode":"stats"})");
  const Json r = Json::parse(resp.substr(0, resp.size() - 1));
  ASSERT_TRUE(r.bool_or("ok", false));
  const Json* payload = r.get("payload");
  ASSERT_NE(payload, nullptr);
  const Json* cache = payload->get("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->num_or("hits", -1), 1);
  EXPECT_EQ(cache->num_or("misses", -1), 1);
  EXPECT_EQ(payload->num_or("analyses_run", -1), 1);
  bool found_lint = false;
  for (const Json& m : payload->get("modes")->array()) {
    if (m.str_or("mode", "") != "lint") continue;
    found_lint = true;
    EXPECT_EQ(m.num_or("requests", -1), 2);
    EXPECT_EQ(m.num_or("cache_hits", -1), 1);
  }
  EXPECT_TRUE(found_lint);
}

TEST(Service, ShutdownSetsTheStopFlag) {
  serve::Service service;
  EXPECT_FALSE(service.stopping());
  const std::string resp = service.handle_line(R"({"mode":"shutdown"})");
  EXPECT_NE(resp.find("\"stopping\":true"), std::string::npos);
  EXPECT_TRUE(service.stopping());
}

// ------------------------------------------------------------------ dispatch

TEST(Modes, TableIsTheSingleSourceOfTruth) {
  std::size_t count = 0;
  const serve::ModeInfo* table = serve::dispatch_table(&count);
  ASSERT_GE(count, 6u);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(serve::find_mode(table[i].mode), &table[i]);
    const std::string payload = table[i].payload;
    EXPECT_TRUE(payload == "json" || payload == "text") << table[i].mode;
  }
  EXPECT_EQ(serve::find_mode("no-such-mode"), nullptr);
  // The generated docs render exactly this table.
  std::ostringstream os;
  analysis::write_serve_modes(os);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_NE(os.str().find("`" + std::string(table[i].mode) + "`"),
              std::string::npos);
  }
}

// -------------------------------------------------------------------- golden

TEST(ServeGolden, LintEnvelopeMatchesGoldenByteForByte) {
  serve::Service service;
  const std::string got = service.handle_line(kLintStaticAlg1);
  const std::string path = std::string(BSR_GOLDEN_DIR) + "/serve_lint.json";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden: " << path
                         << " (run scripts/update_goldens.sh)";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "serve envelope drifted from " << path
      << " — regenerate with scripts/update_goldens.sh and review the diff";
}

}  // namespace
