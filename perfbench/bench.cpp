// Percentiles, peak RSS and the tracer (see bench.h).
#include "bench.h"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analysis/diag.h"

namespace perfbench {

// VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across execve,
// so a child of a larger process would report its parent's peak.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

long steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return 0;
  std::istringstream fields(line.substr(4));
  long v = 0;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    if (!(fields >> v)) return 0;
  }
  return v;
}

int Tracer::open(const std::string& name, int parent) {
  spans_.push_back(Span{name, parent, ns_between(t0_, Clock::now()), 0, 0});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int id) { finish(id, ns_between(t0_, Clock::now())); }

int Tracer::record(const std::string& name, int parent,
                   Clock::time_point start, Clock::time_point end) {
  const int id = open(name, parent);
  spans_.back().start_ns = ns_between(t0_, start);
  finish(id, ns_between(t0_, end));
  return id;
}

void Tracer::finish(int id, std::int64_t end_ns) {
  Span& s = spans_.at(static_cast<std::size_t>(id));
  s.end_ns = end_ns;
  if (s.parent >= 0) {
    spans_.at(static_cast<std::size_t>(s.parent)).child_ns +=
        s.end_ns - s.start_ns;
  }
}

void Tracer::add_child_time(int parent, const std::string& name,
                            std::int64_t ns, long calls) {
  aggregates_.push_back(Aggregate{name, parent, ns, calls});
  spans_.at(static_cast<std::size_t>(parent)).child_ns += ns;
}

std::int64_t Tracer::self_ns(int id) const {
  const Span& s = spans_.at(static_cast<std::size_t>(id));
  return s.end_ns - s.start_ns - s.child_ns;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? "," : "") << "{\"id\":" << i << ",\"name\":\""
        << bsr::analysis::json_escape(s.name) << "\",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"self_ns\":" << self_ns(static_cast<int>(i)) << "}";
  }
  out << "],\"aggregates\":[";
  for (std::size_t i = 0; i < aggregates_.size(); ++i) {
    const Aggregate& a = aggregates_[i];
    out << (i ? "," : "") << "{\"name\":\""
        << bsr::analysis::json_escape(a.name) << "\",\"parent\":" << a.parent
        << ",\"ns\":" << a.ns << ",\"calls\":" << a.calls << "}";
  }
  out << "]}\n";
}

}  // namespace perfbench
