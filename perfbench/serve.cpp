// Workload `serve-mixed`: an in-process daemon (serve::run_server with
// default options) on a socket under the scratch directory, driven by four
// client threads in a closed loop through serve::client_roundtrip, one
// connection per request, as `bsr serve --request` does.
//
// The request stream is seeded. Setup primes a hot set: 32 static-tier lint
// requests on random protocol subsets, plus `doc` and `explore` at k=1..3.
// About half of the measured requests repeat a hot request (warm hits); the
// other half are cold lint requests in static, symbolic or interference
// mode on a fresh ordered random subset of the registry (misses). Hits and
// misses share the daemon's LRU.
//
// Every response must be `ok`; a warm response must equal its request's
// first cold response except for the `cached` flag.
//
// Untraced, the run is cut into windows of kWindowS by when requests end.
// Each window gives its request rate and the 50th and 90th percentile of
// its requests' latencies, and the hypervisor's steal time over it (bench.h,
// steal_ticks). The figures are the medians over the quiet windows: those
// with the least steal, at least kQuietShare of them. Every request passes
// from a client thread to the acceptor, a worker and back, so when the host
// takes a CPU from this machine the chain stalls: one second with 15% of
// the CPU time stolen served 40% fewer requests. On a shared host such
// phases come and go over seconds to minutes, and whole-run rates of the
// same code spread by up to a quarter of their median over ten runs. The
// whole-run rate and p99 go in the record.
//
// Traced, it adds: the same stream replayed through Service::handle_line
// and Json::parse in process (cold and warm split on the `cached` flag),
// the daemon's own stats reply, and the static and JSON layers.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench.h"
#include "layers.h"
#include "serve/json.h"
#include "serve/server.h"
#include "serve/service.h"

namespace perfbench {

namespace {

using bsr::serve::Json;

// Four clients on the daemon's two workers keep its queue from running dry,
// so throughput follows the workers' service time more than the host's
// thread wake-up latency. With two clients the daemon idles between
// requests, and interleaved runs on a shared 4-core host varied about 1.6
// times as much.
constexpr int kClients = 4;
constexpr int kHotLint = 32;
/// Length of the windows the untraced figures are taken over; a window
/// holds a few thousand requests.
constexpr double kWindowS = 0.5;
/// The least share of the windows the untraced figures are taken over.
constexpr double kQuietShare = 0.1;
constexpr std::size_t kHotProtocols = 2;   ///< Protocols per hot lint.
constexpr std::size_t kColdProtocols = 5;  ///< Protocols per cold lint.
constexpr const char* kColdModes[] = {"static", "symbolic", "interference"};

std::string lint_request(const std::vector<std::string>& protocols,
                         const std::string& mode) {
  std::string s = "{\"mode\":\"lint\",\"protocols\":[";
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    s += (i ? ",\"" : "\"") + protocols[i] + "\"";
  }
  return s + "],\"lint_mode\":\"" + mode + "\"}";
}

/// `count` distinct registry names in random order.
std::vector<std::string> pick(const std::vector<std::string>& names,
                              std::size_t count, Rng& rng) {
  std::vector<std::string> pool = names;
  std::vector<std::string> out;
  while (out.size() < count) {
    const std::size_t i = rng.below(pool.size());
    out.push_back(pool[i]);
    pool.erase(pool.begin() + static_cast<long>(i));
  }
  return out;
}

std::vector<std::string> registry_names() {
  std::vector<std::string> names;
  for (const bsr::analysis::ProtocolSpec* s : default_specs()) {
    names.push_back(s->name);
  }
  return names;
}

/// The hot set, drawn from the seed: 32 static lints, doc, explore k=1..3.
std::vector<std::string> hot_set(std::uint64_t seed,
                                 const std::vector<std::string>& names) {
  Rng rng(seed);
  std::unordered_set<std::string> seen;
  std::vector<std::string> hot;
  while (hot.size() < kHotLint) {
    std::string req = lint_request(pick(names, kHotProtocols, rng), "static");
    if (seen.insert(req).second) hot.push_back(std::move(req));
  }
  hot.push_back("{\"mode\":\"doc\"}");
  for (int k = 1; k <= 3; ++k) {
    hot.push_back("{\"mode\":\"explore\",\"k\":" + std::to_string(k) + "}");
  }
  return hot;
}

struct Request {
  std::string line;
  int hot = -1;  ///< Index into the hot set; -1 for a cold request.
};

/// A seeded bijection on [0, n): a keyed mix on the enclosing power of two,
/// cycle-walked back into range. Walking k = 0, 1, 2, ... through it visits
/// every index once, in an order that looks random.
class Permutation {
 public:
  Permutation(std::uint64_t n, std::uint64_t seed) : n_(n) {
    while ((1ull << bits_) < n) ++bits_;
    Rng rng(seed);
    for (std::uint64_t& k : keys_) k = rng.next();
  }
  [[nodiscard]] std::uint64_t operator()(std::uint64_t k) const {
    std::uint64_t x = k % n_;
    do {
      x = mix(x);
    } while (x >= n_);
    return x;
  }

 private:
  // Each step is a bijection on `bits_`-bit values: an odd multiply, a key
  // add, and an xor with a right shift.
  [[nodiscard]] std::uint64_t mix(std::uint64_t x) const {
    const std::uint64_t mask = (1ull << bits_) - 1;
    for (const std::uint64_t k : keys_) {
      x = (x * (k | 1)) & mask;
      x = (x + (k >> 32)) & mask;
      x ^= x >> (bits_ / 2 + 1);
    }
    return x;
  }

  std::uint64_t n_;
  int bits_ = 1;
  std::array<std::uint64_t, 3> keys_{};
};

/// One client's request stream: a function of the seed and the client id.
/// Cold requests walk a seeded permutation of every (mode, ordered choice of
/// kColdProtocols names), client c taking positions c, c + kClients, ...,
/// so no cold request repeats within a run (about half a million per
/// client) and none equals a hot one (those name kHotProtocols).
class Stream {
 public:
  Stream(std::uint64_t seed, int client, const std::vector<std::string>& names,
         const std::vector<std::string>& hot)
      : rng_(seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(client) +
             1),
        names_(names),
        hot_(hot),
        cold_(cold_space(names.size()), seed),
        next_cold_(static_cast<std::uint64_t>(client)) {}

  Request next() {
    if (rng_.below(2) == 0) {
      const int i = static_cast<int>(rng_.below(hot_.size()));
      return Request{hot_[static_cast<std::size_t>(i)], i};
    }
    std::uint64_t idx = cold_(next_cold_);
    next_cold_ += kClients;
    const char* mode = kColdModes[idx % std::size(kColdModes)];
    idx /= std::size(kColdModes);
    std::vector<std::string> pool = names_;
    std::vector<std::string> chosen;
    while (chosen.size() < kColdProtocols) {
      const std::size_t i = idx % pool.size();
      idx /= pool.size();
      chosen.push_back(pool[i]);
      pool.erase(pool.begin() + static_cast<long>(i));
    }
    return Request{lint_request(chosen, mode), -1};
  }

 private:
  static std::uint64_t cold_space(std::size_t names) {
    std::uint64_t n = std::size(kColdModes);
    for (std::size_t i = 0; i < kColdProtocols; ++i) n *= names - i;
    return n;
  }

  Rng rng_;
  const std::vector<std::string>& names_;
  const std::vector<std::string>& hot_;
  Permutation cold_;
  std::uint64_t next_cold_;
};

/// The response a warm request must give: its cold response with the
/// envelope's cached flag set.
std::string warm_form(const std::string& cold) {
  std::string s = cold;
  const std::string from = "\"cached\":false";
  const std::size_t at = s.find(from);
  if (at != std::string::npos) s.replace(at, from.size(), "\"cached\":true");
  return s;
}

bool ok_envelope(const std::string& resp) {
  return resp.rfind("{\"ok\":true,", 0) == 0 &&
         resp.find(",\"exit\":0,") != std::string::npos;
}

/// The daemon on its own thread. The destructor asks it to shut down (if
/// it still runs) and joins it.
class Daemon {
 public:
  explicit Daemon(const std::string& socket_path) : path_(socket_path) {
    bsr::serve::ServerOptions opts;
    opts.socket_path = path_;
    thread_ = std::thread([this, opts] {
      try {
        std::ostringstream log;
        rc_ = bsr::serve::run_server(opts, log);
      } catch (const std::exception& e) {
        error_ = e.what();
        rc_ = 2;
      }
      done_.store(true);
    });
    // Listening once a stats request gets through.
    const Clock::time_point t0 = Clock::now();
    while (true) {
      try {
        (void)bsr::serve::client_roundtrip(path_, "{\"mode\":\"stats\"}");
        return;
      } catch (const std::exception&) {
        if (done_.load() || seconds_since(t0) > 30) {
          stop();
          throw std::runtime_error("daemon did not start: " + error_);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

  /// Sends `shutdown`, joins, and returns the daemon's exit code.
  int stop() {
    if (!thread_.joinable()) return rc_;
    if (!done_.load()) {
      try {
        (void)bsr::serve::client_roundtrip(path_, "{\"mode\":\"shutdown\"}");
      } catch (const std::exception&) {
      }
    }
    thread_.join();
    ::unlink(path_.c_str());
    return rc_;
  }

 private:
  std::string path_;
  std::atomic<bool> done_{false};
  int rc_ = 0;
  std::string error_;
  std::thread thread_;
};

/// Sends every hot request once, cold, and returns the responses.
std::vector<std::string> prime(const std::string& path,
                               const std::vector<std::string>& hot,
                               Result& r) {
  std::vector<std::string> cold;
  for (const std::string& req : hot) {
    cold.push_back(bsr::serve::client_roundtrip(path, req));
    r.check(ok_envelope(cold.back()) &&
                cold.back().find("\"cached\":false") != std::string::npos,
            "priming " + req + " gave " + cold.back().substr(0, 200));
  }
  return cold;
}

struct LoopStats {
  std::vector<float> latency_ms;  ///< Every ok request's roundtrip.
  std::vector<float> done_s;      ///< When each of them ended, from start.
  std::vector<long> steal;        ///< steal_ticks() every kWindowS from start.
  long ok = 0;
  double wall_s = 0;
};

/// The closed loop: kClients threads until `seconds` pass.
LoopStats closed_loop(const std::string& path, const RunContext& ctx,
                      double seconds, const std::vector<std::string>& names,
                      const std::vector<std::string>& hot,
                      const std::vector<std::string>& warm, Result& r,
                      std::uint64_t stream_salt, Tracer* tracer) {
  struct PerClient {
    std::vector<float> lat;
    std::vector<float> done;
    long attempted = 0;
    long failed = 0;
    std::string first_error;
    std::vector<std::pair<Clock::time_point, Clock::time_point>> spans;
    Clock::time_point end;
  };
  std::vector<PerClient> per(kClients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  LoopStats out;
  out.steal.push_back(steal_ticks());
  std::thread sampler([&] {
    for (int k = 1;; ++k) {
      const Clock::time_point at =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(k * kWindowS));
      if (at > deadline) return;
      std::this_thread::sleep_until(at);
      out.steal.push_back(steal_ticks());
    }
  });
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      PerClient& me = per[static_cast<std::size_t>(c)];
      Stream stream(ctx.seed + stream_salt, c, names, hot);
      while (Clock::now() < deadline) {
        const Request req = stream.next();
        ++me.attempted;
        std::string resp;
        const Clock::time_point t0 = Clock::now();
        try {
          resp = bsr::serve::client_roundtrip(path, req.line);
        } catch (const std::exception& e) {
          resp = std::string("transport error: ") + e.what();
        }
        const Clock::time_point t1 = Clock::now();
        const bool good =
            req.hot >= 0 ? resp == warm[static_cast<std::size_t>(req.hot)] ||
                               warm_form(resp) ==
                                   warm[static_cast<std::size_t>(req.hot)]
                         : ok_envelope(resp);
        if (!good) {
          ++me.failed;
          if (me.first_error.empty()) {
            me.first_error = req.line + " -> " + resp.substr(0, 200);
          }
          continue;
        }
        me.lat.push_back(static_cast<float>(ns_between(t0, t1)) / 1e6f);
        me.done.push_back(static_cast<float>(ns_between(start, t1)) / 1e9f);
        if (tracer != nullptr) me.spans.emplace_back(t0, t1);
      }
      me.end = Clock::now();
    });
  }
  for (std::thread& t : threads) t.join();
  sampler.join();
  out.wall_s = seconds_since(start);
  for (PerClient& p : per) {
    r.tally(p.attempted, p.failed, p.first_error);
    out.ok += static_cast<long>(p.lat.size());
  }
  out.latency_ms.reserve(static_cast<std::size_t>(out.ok));
  out.done_s.reserve(static_cast<std::size_t>(out.ok));
  for (PerClient& p : per) {
    out.latency_ms.insert(out.latency_ms.end(), p.lat.begin(), p.lat.end());
    out.done_s.insert(out.done_s.end(), p.done.begin(), p.done.end());
    p.lat = {};
    p.done = {};
  }
  if (tracer != nullptr) {
    // One span per client (they overlap in time), one child per request.
    for (const PerClient& p : per) {
      const int client = tracer->record("serve.client", -1, start, p.end);
      for (const auto& [a, b] : p.spans) {
        tracer->record("serve.roundtrip", client, a, b);
      }
    }
  }
  return out;
}

/// Per-window figures of a closed loop's quiet windows (run_serve): the
/// requests that ended in the window over its length, and the percentiles
/// of their latencies. The partial last window is dropped.
struct Windows {
  std::size_t total = 0;  ///< Whole windows in the run.
  long max_steal = 0;     ///< The most steal ticks a kept window had.
  std::vector<double> rate;
  std::vector<double> p50_ms;
  std::vector<double> p90_ms;
};

Windows quiet_windows(const LoopStats& s) {
  Windows w;
  w.total = std::min(static_cast<std::size_t>(s.wall_s / kWindowS),
                     s.steal.size() - 1);
  if (w.total == 0) throw std::runtime_error("run shorter than one window");
  std::vector<std::vector<float>> lat(w.total);
  for (std::size_t i = 0; i < s.done_s.size(); ++i) {
    const auto k = static_cast<std::size_t>(s.done_s[i] / kWindowS);
    if (k < w.total) lat[k].push_back(s.latency_ms[i]);
  }
  std::vector<long> steal(w.total);
  for (std::size_t k = 0; k < w.total; ++k) {
    steal[k] = s.steal[k + 1] - s.steal[k];
  }
  std::vector<long> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  const auto keep = static_cast<std::size_t>(
      std::ceil(kQuietShare * static_cast<double>(w.total)));
  w.max_steal = sorted[keep - 1];
  for (std::size_t k = 0; k < w.total; ++k) {
    if (steal[k] > w.max_steal) continue;
    std::vector<float>& l = lat[k];
    if (l.empty()) throw std::runtime_error("a window completed no request");
    w.rate.push_back(static_cast<double>(l.size()) / kWindowS);
    w.p50_ms.push_back(percentile(l, 0.50));
    w.p90_ms.push_back(percentile(l, 0.90));
  }
  return w;
}

std::string socket_path(const RunContext& ctx) {
  return ctx.scratch + "/serve-" + std::to_string(::getpid()) + ".sock";
}

double num_at(const Json& j, const std::string& key) {
  const Json* v = j.get(key);
  if (v == nullptr || !v->is_number()) {
    throw std::runtime_error("stats reply lacks " + key);
  }
  return static_cast<double>(v->num());
}

/// Reads the daemon's own stats reply into the serve.cache.* metrics.
void daemon_stats(const std::string& path, Result& r) {
  const Json reply =
      Json::parse(bsr::serve::client_roundtrip(path, "{\"mode\":\"stats\"}"));
  const Json* payload = reply.get("payload");
  if (payload == nullptr || payload->get("cache") == nullptr) {
    throw std::runtime_error("malformed stats reply");
  }
  const Json& cache = *payload->get("cache");
  const double hits = num_at(cache, "hits");
  const double misses = num_at(cache, "misses");
  r.set("serve.cache.hit_rate", hits / (hits + misses), "ratio");
  r.set("serve.cache.evictions", num_at(cache, "evictions"), "count");
  r.set("serve.analyses_run", num_at(*payload, "analyses_run"), "count");
  for (const Json& m : payload->get("modes")->array()) {
    const std::string mode = m.str_or("mode", "");
    if (mode != "lint" && mode != "explore" && mode != "doc") continue;
    const double requests = num_at(m, "requests");
    r.set("serve." + mode + ".us_per_req",
          requests > 0 ? num_at(m, "total_us") / requests : 0.0, "us");
  }
}

/// Replays the seeded stream through a fresh in-process Service for about
/// `seconds`; returns the median handle_line time in µs.
double replay(const RunContext& ctx, double seconds,
              const std::vector<std::string>& names,
              const std::vector<std::string>& hot, Tracer& tracer,
              Result& r) {
  const ScopedSpan span(tracer, "serve.replay");
  bsr::serve::Service service;
  for (const std::string& req : hot) (void)service.handle_line(req);
  std::vector<Stream> streams;
  for (int c = 0; c < kClients; ++c) streams.emplace_back(ctx.seed, c, names, hot);
  std::vector<double> cold_us;
  std::vector<double> warm_us;
  std::vector<double> all_us;
  std::vector<double> parse_us;
  double bytes = 0;
  const Clock::time_point start = Clock::now();
  for (long i = 0; i < 8 || seconds_since(start) < seconds; ++i) {
    const Request req = streams[static_cast<std::size_t>(i % kClients)].next();
    Clock::time_point t = Clock::now();
    const Json parsed = Json::parse(req.line);
    parse_us.push_back(static_cast<double>(ns_between(t, Clock::now())) / 1e3);
    t = Clock::now();
    const std::string resp = service.handle_line(req.line);
    const double us = static_cast<double>(ns_between(t, Clock::now())) / 1e3;
    all_us.push_back(us);
    bytes += static_cast<double>(resp.size());
    (resp.find("\"cached\":true") != std::string::npos ? warm_us : cold_us)
        .push_back(us);
    r.check(ok_envelope(resp) && parsed.is_object(),
            "replay " + req.line + " -> " + resp.substr(0, 200));
  }
  tracer.add_child_time(
      span.id(), "serve.json.parse",
      static_cast<std::int64_t>(
          std::accumulate(parse_us.begin(), parse_us.end(), 0.0) * 1e3),
      static_cast<long>(parse_us.size()));
  tracer.add_child_time(
      span.id(), "serve.handle_line",
      static_cast<std::int64_t>(
          std::accumulate(all_us.begin(), all_us.end(), 0.0) * 1e3),
      static_cast<long>(all_us.size()));
  r.set("serve.service.cold_us", percentile(cold_us, 0.5), "us");
  r.set("serve.service.warm_us", percentile(warm_us, 0.5), "us");
  r.set("serve.json.parse_us", percentile(parse_us, 0.5), "us");
  r.set("serve.response_bytes", bytes / static_cast<double>(all_us.size()),
        "bytes");
  r.note("replay_requests", std::to_string(all_us.size()));
  r.note("replay_cold", std::to_string(cold_us.size()));
  return percentile(all_us, 0.5);
}

}  // namespace

void run_serve(const RunContext& ctx, Result& r) {
  const Clock::time_point setup_start = Clock::now();
  const std::vector<std::string> names = registry_names();
  const std::vector<std::string> hot = hot_set(ctx.seed, names);
  Daemon daemon(socket_path(ctx));
  std::vector<std::string> warm;
  for (const std::string& cold : prime(daemon.path(), hot, r)) {
    warm.push_back(warm_form(cold));
  }
  r.set("setup_s", seconds_since(setup_start), "s");
  if (ctx.setup_only) return;
  r.note("seed_use", "drives the hot set and every client's request stream");
  r.note("clients", std::to_string(kClients) + " closed-loop");

  if (!ctx.trace) {
    LoopStats s = closed_loop(daemon.path(), ctx, ctx.seconds, names, hot,
                              warm, r, 0, nullptr);
    r.check(daemon.stop() == 0, "daemon exited nonzero");
    const std::size_t n = s.latency_ms.size();
    Windows w = quiet_windows(s);
    r.set("ops_per_s", percentile(w.rate, 0.5), "1/s");
    r.set("p50_ms", percentile(w.p50_ms, 0.5), "ms");
    r.set("p90_ms", percentile(w.p90_ms, 0.5), "ms");
    r.note("op", "one request roundtrip");
    r.note("windows", std::to_string(w.rate.size()) + " quiet of " +
                          std::to_string(w.total) + " windows of " +
                          std::to_string(kWindowS) + " s, at most " +
                          std::to_string(w.max_steal) +
                          " steal ticks each; every figure is the median "
                          "over the quiet ones");
    r.note("whole_run_ops_per_s",
           std::to_string(static_cast<double>(s.ok) / s.wall_s));
    r.note("whole_run_p50_ms", std::to_string(percentile(s.latency_ms, 0.50)));
    r.note("latency_samples", std::to_string(n));
    r.note("p99_ms", std::to_string(percentile(s.latency_ms, 0.99)));
    r.note("samples_beyond_p90", std::to_string(n / 10));
    r.note("samples_beyond_p99", std::to_string(n / 100));
    return;
  }

  Tracer tracer;
  // Untraced and traced loops alternate, twice each, so that the cache's
  // fill state and the host's drift fall on both sides of the overhead.
  const double phase = ctx.seconds / 8;
  std::vector<float> plain_latency_ms;
  long ok[2] = {0, 0};
  double wall_s[2] = {0, 0};
  for (int i = 0; i < 4; ++i) {
    const int traced = i % 2;
    LoopStats s = closed_loop(daemon.path(), ctx, phase, names, hot, warm, r,
                              static_cast<std::uint64_t>(i),
                              traced ? &tracer : nullptr);
    ok[traced] += s.ok;
    wall_s[traced] += s.wall_s;
    if (!traced) {
      plain_latency_ms.insert(plain_latency_ms.end(), s.latency_ms.begin(),
                              s.latency_ms.end());
    }
  }
  r.set("trace.overhead_frac",
        (static_cast<double>(ok[0]) / wall_s[0]) /
                (static_cast<double>(ok[1]) / wall_s[1]) -
            1.0,
        "ratio");
  daemon_stats(daemon.path(), r);
  r.check(daemon.stop() == 0, "daemon exited nonzero");

  const double handle_p50_us =
      replay(ctx, ctx.seconds / 4, names, hot, tracer, r);
  r.set("serve.transport_us",
        percentile(plain_latency_ms, 0.5) * 1e3 - handle_p50_us, "us");

  const std::vector<const bsr::analysis::ProtocolSpec*> specs =
      default_specs();
  measure_static_layers(specs, tracer, -1, r, 0.5);
  measure_emit_json(static_tier_reports(specs), tracer, -1, r, 0.5);
  tracer.write(ctx.scratch + "/spans-serve-mixed.json");
}

}  // namespace perfbench
