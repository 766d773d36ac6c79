// Shared pieces of the bsr_perfbench program: the run context, the result
// record, percentiles, the seeded generator, and the in-memory tracer.
//
// Each workload (explore.cpp, serve.cpp) exposes one entry point
// taking a RunContext and filling a Result. main.cpp prints the result's
// record line and, as the last line of stdout, the JSON summary run.py
// reads (README.md).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] inline std::int64_t ns_between(Clock::time_point a,
                                             Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

struct RunContext {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;  ///< Stop after set-up (run.py's setup_s samples).
  std::string root = ".";       ///< Repository root (tests/golden lives here).
  std::string scratch = ".";    ///< Writable directory for sockets and spans.
};

/// One metric as printed: value plus unit.
struct Metric {
  double value = 0;
  std::string unit;
};

struct Result {
  long attempted = 0;
  long failed = 0;
  std::map<std::string, Metric> metrics;
  /// Context that is not a metric: sample counts behind percentiles,
  /// per-instance counts, which percentile a tail is. Printed in the record.
  std::map<std::string, std::string> notes;
  std::vector<std::string> errors;  ///< First few failure messages.

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& key, const std::string& value) {
    notes[key] = value;
  }
  /// Counts `n` attempted operations of which `bad` failed, keeping the
  /// message when any did (the first 8 are printed).
  void tally(long n, long bad, const std::string& what) {
    attempted += n;
    failed += bad;
    if (bad > 0 && errors.size() < 8) errors.push_back(what);
  }
  /// Counts one attempted operation, failed unless `ok`.
  void check(bool ok, const std::string& what) { tally(1, ok ? 0 : 1, what); }
};

/// Linear-interpolated percentile (q in [0, 1]) of `v`; sorts `v`.
template <class T>
[[nodiscard]] double percentile(std::vector<T>& v, double q) {
  if (v.empty()) throw std::runtime_error("percentile of no samples");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return static_cast<double>(v[lo]) +
         static_cast<double>(v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();

/// CPU time the hypervisor has given to other guests while this machine's
/// CPUs wanted to run, summed over CPUs, in clock ticks since boot (the
/// `steal` column of /proc/stat); 0 where the kernel does not report it.
[[nodiscard]] long steal_ticks();

/// splitmix64: the seeded stream generator (deterministic per seed).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// In-memory span recorder for traced runs. Spans carry a name, start, end
/// and parent; they are written out once, when the run ends. A span's self
/// time is its duration minus the durations of its child spans. Hot layers
/// that fire millions of times (a simulator step) are not one span per call:
/// the caller accumulates them and attaches the total with `add_child_time`,
/// which counts against the parent's self time the same way.
class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}

  int open(const std::string& name, int parent = -1);
  void close(int id);
  /// Records a finished span measured by the caller; returns its id.
  int record(const std::string& name, int parent, Clock::time_point start,
             Clock::time_point end);
  /// Attaches `ns` of time spent in an aggregated child layer `name`
  /// (calls summed by the caller) below span `parent`.
  void add_child_time(int parent, const std::string& name, std::int64_t ns,
                      long calls);

  /// Writes every span as one JSON document to `path`.
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_ns = 0;  ///< Time covered by child spans.
  };

  void finish(int id, std::int64_t end_ns);
  [[nodiscard]] std::int64_t self_ns(int id) const;

  struct Aggregate {
    std::string name;
    int parent = -1;
    std::int64_t ns = 0;
    long calls = 0;
  };

  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<Aggregate> aggregates_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& name, int parent = -1)
      : t_(t), id_(t.open(name, parent)) {}
  ~ScopedSpan() { t_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

// Workload entry points.
void run_explore(const RunContext& ctx, Result& r);
void run_serve(const RunContext& ctx, Result& r);

/// The lint layer probes of explore-exhaustive's traced run (lint.cpp).
void lint_layers(const RunContext& ctx, Tracer& tracer, Result& r);

}  // namespace perfbench
