// bsr_perfbench: runs one benchmark workload in process and prints its
// record and result. perfbench/run.py builds and invokes it; README.md has
// the workloads, metrics and the record schema.
//
//   bsr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--root DIR] [--scratch DIR] [--git-sha SHA]
//                 [--source-digest HEX] [--setup-only 0|1]
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "analysis/diag.h"
#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using bsr::analysis::json_escape;

std::string number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The record line: everything needed to reproduce and compare the run.
std::string record_json(const perfbench::RunContext& ctx,
                        const std::string& workload,
                        const std::string& git_sha,
                        const std::string& source_digest,
                        const perfbench::Result& r) {
  std::ostringstream rec;
  rec << "{\"workload\":\"" << json_escape(workload) << "\",\"seed\":"
      << ctx.seed << ",\"seconds\":" << number(ctx.seconds)
      << ",\"trace\":" << (ctx.trace ? 1 : 0)
      << ",\"nproc\":" << std::thread::hardware_concurrency()
#ifdef __clang__
      << ",\"compiler\":\"" << json_escape(__VERSION__)
#else
      << ",\"compiler\":\"" << json_escape(std::string("gcc ") + __VERSION__)
#endif
      << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"git_sha\":\""
      << json_escape(git_sha) << "\",\"source_digest\":\""
      << json_escape(source_digest) << "\",\"fail_frac\":"
      << number(r.attempted > 0 ? static_cast<double>(r.failed) /
                                      static_cast<double>(r.attempted)
                                : 1.0)
      << ",\"notes\":{";
  bool first = true;
  for (const auto& [k, v] : r.notes) {
    rec << (first ? "" : ",") << "\"" << json_escape(k) << "\":\""
        << json_escape(v) << "\"";
    first = false;
  }
  rec << "}}";
  return rec.str();
}

/// The result line: the last line of standard output, which run.py reads.
std::string result_json(const perfbench::Result& r) {
  std::ostringstream out;
  out << "{\"correct\":"
      << (r.failed == 0 && r.attempted > 0 ? "true" : "false")
      << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
      << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    out << (first ? "" : ",") << "\"" << json_escape(name)
        << "\":{\"value\":" << number(m.value) << ",\"unit\":\""
        << json_escape(m.unit) << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

int usage(const std::string& msg) {
  std::cerr << "bsr_perfbench: " << msg
            << "\nusage: bsr_perfbench --workload explore-exhaustive|"
               "serve-mixed --seed N --seconds S --trace 0|1"
               " [--root DIR] [--scratch DIR] [--git-sha SHA]"
               " [--source-digest HEX] [--setup-only 0|1]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunContext ctx;
  std::string workload;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string val = argv[++i];
    try {
      if (flag == "--workload") {
        workload = val;
      } else if (flag == "--seed") {
        ctx.seed = std::stoull(val);
      } else if (flag == "--seconds") {
        ctx.seconds = std::stod(val);
      } else if (flag == "--trace") {
        if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
        ctx.trace = val == "1";
      } else if (flag == "--setup-only") {
        ctx.setup_only = val == "1";
      } else if (flag == "--root") {
        ctx.root = val;
      } else if (flag == "--scratch") {
        ctx.scratch = val;
      } else if (flag == "--git-sha") {
        git_sha = val;
      } else if (flag == "--source-digest") {
        source_digest = val;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + val);
    }
  }
  if (!(ctx.seconds > 0)) return usage("--seconds must be positive");

  perfbench::Result r;
  try {
    if (workload == "explore-exhaustive") {
      perfbench::run_explore(ctx, r);
    } else if (workload == "serve-mixed") {
      perfbench::run_serve(ctx, r);
    } else {
      return usage("unknown workload '" + workload + "'");
    }
    if (!ctx.trace) r.set("peak_rss_mb", perfbench::peak_rss_mib(), "MiB");
    for (const std::string& e : r.errors) {
      std::cerr << "bsr_perfbench: check failed: " << e << "\n";
    }
    std::cout << "record "
              << record_json(ctx, workload, git_sha, source_digest, r) << "\n"
              << result_json(r) << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "bsr_perfbench: " << workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  return 0;
}
