#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>

#include "analysis/claims.h"
#include "analysis/doc.h"
#include "analysis/lint.h"
#include "analysis/static/fingerprint.h"
#include "core/alg1.h"
#include "sim/explore.h"
#include "sim/sim.h"
#include "util/errors.h"
#include "util/json.h"

namespace bsr::serve {

namespace {

namespace air = bsr::analysis::ir;

// Key-chain seed for the serve cache, distinct from every per-family tag in
// fingerprint.cpp (those start at ...0001).
constexpr std::uint64_t kKeySeed = air::fp_mix(0x5e21c0de000000ffULL);

// Request-size guards: the daemon is a local analysis service, not a job
// farm; anything past these bounds should run through the CLI instead.
constexpr long kMaxExploreK = 6;
constexpr long kMaxExploreCrashes = 4;
constexpr long kMaxExploreSteps = 1'000'000;
constexpr long kMaxSleepMs = 60'000;

std::string ok_envelope(const ModeInfo& info, bool cached, std::uint64_t key,
                        const CacheEntry& entry) {
  std::string out;
  out.reserve(entry.body.size() + 96);
  JsonWriter w(out);
  w.begin_object();
  w.key("ok").boolean(true);
  w.key("mode").str(info.mode);
  w.key("cached").boolean(cached);
  if (info.cacheable) w.key("key").str(air::fp_hex(key));
  w.key("exit").num(entry.exit);
  w.key("payload");
  if (std::string_view(info.payload) == "json") {
    w.raw(entry.body);
  } else {
    w.str(entry.body);
  }
  w.end_object();
  return out;
}

// Strips the producer's single trailing newline: payloads are embedded in a
// one-line envelope, and the golden/differential tests compare against the
// direct CLI output with its newline stripped the same way.
std::string chomp(std::string s) {
  if (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

analysis::LintMode parse_lint_mode(const std::string& mode) {
  if (mode.empty() || mode == "dynamic") return analysis::LintMode::Dynamic;
  if (mode == "static") return analysis::LintMode::Static;
  if (mode == "symbolic") return analysis::LintMode::Symbolic;
  if (mode == "both") return analysis::LintMode::Both;
  if (mode == "interference") return analysis::LintMode::Interference;
  if (mode == "steps") return analysis::LintMode::Steps;
  throw UsageError("unknown lint_mode '" + mode +
                   "' (expected dynamic, static, symbolic, both, "
                   "interference, or steps)");
}

std::vector<std::string> parse_protocols(const Json& req) {
  std::vector<std::string> names;
  const Json* list = req.get("protocols");
  if (list == nullptr) return names;
  usage_check(list->is_array(), "field 'protocols' must be an array");
  for (const Json& name : list->array()) {
    usage_check(name.is_string(), "protocol names must be strings");
    names.push_back(name.str());
  }
  return names;
}

long bounded_num(const Json& req, const std::string& key, long def, long lo,
                 long hi) {
  const long v = req.num_or(key, def);
  usage_check(v >= lo && v <= hi,
              "field '" + key + "' must be in [" + std::to_string(lo) + ", " +
                  std::to_string(hi) + "]");
  return v;
}

}  // namespace

std::string error_envelope(std::string_view category,
                           std::string_view message) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.key("ok").boolean(false);
  w.key("error").str(category);
  w.key("message").str(message);
  w.end_object();
  return out;
}

Service::Service(ServiceOptions opts)
    : opts_(opts), cache_(opts.cache_entries, opts.cache_bytes) {
  std::size_t count = 0;
  (void)dispatch_table(&count);
  modes_.resize(count);
}

const std::vector<analysis::ProtocolSpec>& Service::registry() const {
  return opts_.registry != nullptr ? *opts_.registry
                                   : analysis::builtin_protocols();
}

std::uint64_t Service::spec_fingerprint(const analysis::ProtocolSpec& spec) {
  {
    const std::lock_guard<std::mutex> lock(memo_mu_);
    const auto it = fp_memo_.find(&spec);
    if (it != fp_memo_.end()) return it->second;
  }
  // Cover every spec field the analyzers can observe, not just the IR: the
  // claims and exploration bounds steer verdicts too (docs/SERVE.md "The
  // cache key").
  std::uint64_t h = kKeySeed;
  h = air::fp_combine_str(h, spec.name);
  h = air::fp_combine(h,
                      static_cast<std::uint64_t>(spec.claim.max_register_bits));
  h = air::fp_combine(
      h, spec.claim.per_process_bits
             ? static_cast<std::uint64_t>(*spec.claim.per_process_bits) + 1
             : 0);
  h = air::fp_combine_str(h, spec.claim.source);
  h = air::fp_combine(h, air::fingerprint(spec.claim.symbolic_bits));
  h = air::fp_combine(h, air::fingerprint(spec.step_claim.max_steps));
  h = air::fp_combine_str(h, spec.step_claim.source);
  h = air::fp_combine(h, static_cast<std::uint64_t>(spec.explore.max_steps));
  h = air::fp_combine(h,
                      static_cast<std::uint64_t>(spec.explore.max_crashes));
  h = air::fp_combine(h, spec.sample_runner ? 1 : 0);
  h = air::fp_combine(h, static_cast<std::uint64_t>(spec.sample_seeds));
  h = air::fp_combine(h, air::fingerprint(spec.params));
  h = air::fp_combine(h, spec.demo ? 1 : 0);
  // The IR reflection is the expensive part; the memo below is what makes
  // repeated requests share one reflection per spec.
  h = air::fp_combine(h, spec.describe ? air::fingerprint(spec.describe())
                                       : air::fp_mix(kKeySeed));
  const std::lock_guard<std::mutex> lock(memo_mu_);
  fp_memo_.emplace(&spec, h);
  return h;
}

std::uint64_t Service::lint_key(const Json& req) {
  const analysis::LintMode mode =
      parse_lint_mode(req.str_or("lint_mode", "dynamic"));
  const long max_pairs = bounded_num(req, "max_pairs", 2048, 0, 1 << 20);
  const std::vector<std::string> names = parse_protocols(req);

  std::vector<const analysis::ProtocolSpec*> specs;
  const std::vector<analysis::ProtocolSpec>& reg = registry();
  if (names.empty()) {
    for (const analysis::ProtocolSpec& s : reg) {
      if (!s.demo) specs.push_back(&s);
    }
  } else {
    for (const std::string& name : names) {
      const analysis::ProtocolSpec* found = nullptr;
      for (const analysis::ProtocolSpec& s : reg) {
        if (s.name == name) {
          found = &s;
          break;
        }
      }
      if (found == nullptr) {
        throw UsageError("unknown protocol '" + name +
                         "' (see `bsr lint --list`)");
      }
      specs.push_back(found);
    }
  }

  std::uint64_t h = air::fp_combine_str(kKeySeed, "lint");
  h = air::fp_combine(h, static_cast<std::uint64_t>(mode));
  h = air::fp_combine(h, static_cast<std::uint64_t>(max_pairs));
  for (const analysis::ProtocolSpec* s : specs) {
    h = air::fp_combine(h, spec_fingerprint(*s));
  }
  return h;
}

std::uint64_t Service::explore_key(const Json& req) {
  const long k = bounded_num(req, "k", 2, 1, kMaxExploreK);
  const long crashes = bounded_num(req, "crashes", 0, 0, kMaxExploreCrashes);
  const long max_steps =
      bounded_num(req, "max_steps", 1000, 1, kMaxExploreSteps);
  std::uint64_t h = air::fp_combine_str(kKeySeed, "explore");
  // describe_alg1 is the same reflected IR the static lint tier audits; its
  // fingerprint covers the register table and the k-dependent loop shape.
  h = air::fp_combine(
      h, air::fingerprint(core::describe_alg1(static_cast<std::uint64_t>(k))));
  h = air::fp_combine(h, static_cast<std::uint64_t>(crashes));
  h = air::fp_combine(h, static_cast<std::uint64_t>(max_steps));
  return h;
}

std::uint64_t Service::doc_key() {
  // `doc` renders the built-in registry (analysis::write_protocol_reference
  // does not take a registry), so its key folds over the built-ins even
  // when a test registry is installed.
  std::uint64_t h = air::fp_combine_str(kKeySeed, "doc");
  for (const analysis::ProtocolSpec& s : analysis::builtin_protocols()) {
    h = air::fp_combine(h, spec_fingerprint(s));
  }
  return h;
}

CacheEntry Service::run_lint_cold(const Json& req) {
  analysis::LintOptions lo;
  lo.json = true;
  lo.mode = parse_lint_mode(req.str_or("lint_mode", "dynamic"));
  lo.max_pairs = static_cast<std::size_t>(
      bounded_num(req, "max_pairs", 2048, 0, 1 << 20));
  lo.protocols = parse_protocols(req);
  lo.registry = opts_.registry;
  std::ostringstream out;
  std::ostringstream err;
  const int code = analysis::run_lint(lo, out, err);
  if (code == 2) throw ModelError(chomp(err.str()));
  return CacheEntry{code, chomp(out.str())};
}

CacheEntry Service::run_explore_cold(const Json& req) {
  const auto k =
      static_cast<std::uint64_t>(bounded_num(req, "k", 2, 1, kMaxExploreK));
  const long crashes = bounded_num(req, "crashes", 0, 0, kMaxExploreCrashes);
  const long max_steps =
      bounded_num(req, "max_steps", 1000, 1, kMaxExploreSteps);

  sim::ExploreOptions eo;
  eo.max_steps = max_steps;
  eo.max_crashes = static_cast<int>(crashes);
  eo.threads = 1;  // deterministic and cheap: repeats come from the cache

  std::uint64_t min_y = ~0ULL;
  std::uint64_t max_y = 0;
  std::uint64_t max_gap = 0;
  sim::Explorer ex(eo);
  const long execs = ex.explore(
      [k]() {
        auto sim = std::make_unique<sim::Sim>(2);
        core::install_alg1(*sim, k, {0, 1});
        return sim;
      },
      [&](sim::Sim& sim, const std::vector<sim::Choice>&) {
        for (int pid = 0; pid < 2; ++pid) {
          if (!sim.terminated(pid)) continue;
          const std::uint64_t y = sim.decision(pid).as_u64();
          min_y = std::min(min_y, y);
          max_y = std::max(max_y, y);
        }
        if (sim.terminated(0) && sim.terminated(1)) {
          const std::uint64_t y0 = sim.decision(0).as_u64();
          const std::uint64_t y1 = sim.decision(1).as_u64();
          max_gap = std::max(max_gap, y0 > y1 ? y0 - y1 : y1 - y0);
        }
      });

  std::string body;
  JsonWriter w(body);
  w.begin_object();
  w.key("protocol").str("alg1");
  w.key("k").num(k);
  w.key("crashes").num(crashes);
  w.key("max_steps").num(max_steps);
  w.key("executions").num(execs);
  w.key("decisions").begin_object();
  w.key("min").num(min_y == ~0ULL ? 0 : min_y);
  w.key("max").num(max_y);
  w.key("denominator").num(core::alg1_denominator(k));
  w.key("max_gap").num(max_gap);
  w.end_object().end_object();
  return CacheEntry{max_gap <= 1 ? 0 : 1, std::move(body)};
}

CacheEntry Service::run_doc_cold() {
  std::ostringstream os;
  analysis::write_protocol_reference(os);
  return CacheEntry{0, chomp(os.str())};
}

std::string Service::stats_payload() {
  const CacheStats cs = cache_.stats();
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.key("cache").begin_object();
  w.key("hits").num(cs.hits);
  w.key("misses").num(cs.misses);
  w.key("evictions").num(cs.evictions);
  w.key("entries").num(cs.entries);
  w.key("bytes").num(cs.bytes);
  w.end_object();
  w.key("analyses_run").num(analyses_run_.load(std::memory_order_acquire));
  w.key("modes").begin_array();
  std::size_t count = 0;
  const ModeInfo* table = dispatch_table(&count);
  const std::lock_guard<std::mutex> lock(stats_mu_);
  for (std::size_t i = 0; i < count; ++i) {
    w.begin_object();
    w.key("mode").str(table[i].mode);
    w.key("requests").num(modes_[i].requests);
    w.key("cache_hits").num(modes_[i].cache_hits);
    w.key("total_us").num(modes_[i].total_us);
    w.end_object();
  }
  w.end_array().end_object();
  return out;
}

Service::Reply Service::dispatch(const ModeInfo& info, const Json& req) {
  Reply r;
  const std::string mode = info.mode;
  if (info.cacheable) {
    std::uint64_t key = 0;
    if (mode == "lint") {
      key = lint_key(req);
    } else if (mode == "explore") {
      key = explore_key(req);
    } else {
      key = doc_key();
    }
    CacheEntry entry;
    if (cache_.lookup(key, &entry)) {
      r.hit = true;
      r.line = ok_envelope(info, /*cached=*/true, key, entry);
      return r;
    }
    if (mode == "lint") {
      entry = run_lint_cold(req);
    } else if (mode == "explore") {
      entry = run_explore_cold(req);
    } else {
      entry = run_doc_cold();
    }
    analyses_run_.fetch_add(1, std::memory_order_acq_rel);
    cache_.insert(key, entry);
    r.line = ok_envelope(info, /*cached=*/false, key, entry);
    return r;
  }

  CacheEntry entry;
  if (mode == "stats") {
    entry.body = stats_payload();
  } else if (mode == "sleep") {
    const long ms = bounded_num(req, "ms", 0, 0, kMaxSleepMs);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    JsonWriter(entry.body).begin_object().key("slept_ms").num(ms).end_object();
  } else {  // shutdown
    stop_.store(true, std::memory_order_release);
    JsonWriter(entry.body)
        .begin_object()
        .key("stopping")
        .boolean(true)
        .end_object();
  }
  r.line = ok_envelope(info, /*cached=*/false, 0, entry);
  return r;
}

std::string Service::handle_request(const Json& req) {
  const std::string mode = req.str_or("mode", "");
  const ModeInfo* info = find_mode(mode.c_str());
  if (info == nullptr) {
    std::string known;
    std::size_t count = 0;
    const ModeInfo* table = dispatch_table(&count);
    for (std::size_t i = 0; i < count; ++i) {
      known += (i > 0 ? ", " : "") + std::string(table[i].mode);
    }
    throw UsageError("unknown mode '" + mode + "' (expected " + known + ")");
  }
  std::size_t count = 0;
  const std::size_t index =
      static_cast<std::size_t>(info - dispatch_table(&count));
  const auto t0 = std::chrono::steady_clock::now();
  Reply r = dispatch(*info, req);
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  const std::lock_guard<std::mutex> lock(stats_mu_);
  ++modes_[index].requests;
  if (r.hit) ++modes_[index].cache_hits;
  modes_[index].total_us += static_cast<std::uint64_t>(us);
  return std::move(r.line);
}

std::string Service::handle_line(const std::string& line) {
  try {
    const Json req = Json::parse(line);
    usage_check(req.is_object(), "request must be a JSON object");
    return handle_request(req) + "\n";
  } catch (const UsageError& e) {
    return error_envelope("usage", e.what()) + "\n";
  } catch (const std::exception& e) {
    return error_envelope("analysis", e.what()) + "\n";
  }
}

}  // namespace bsr::serve
