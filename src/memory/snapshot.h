// Wait-free atomic snapshot from SWMR registers (Lemma 2.3, after Afek,
// Attiya, Dolev, Gafni, Merritt & Shavit [2]).
//
// The simulator offers snapshot as a primitive step, which the paper
// justifies by this construction; implementing it from plain registers keeps
// the substrate honest. Unbounded version: each register holds a triple
// (seq, value, embedded_view). A scanner repeatedly collects all registers;
// if two consecutive collects are identical it returns that common view
// ("clean double collect"); otherwise, any writer observed to move *twice*
// has completed an entire update within the scan, so its embedded view (the
// view it scanned during that update) is a valid linearizable snapshot.
// An updater performs a scan and stores the result alongside its value,
// which is what makes the borrowed view valid.
#pragma once

#include <string>
#include <vector>

#include "sim/sim.h"

namespace bsr::memory {

/// One single-writer atomic snapshot object over n segments.
class SnapshotObject {
 public:
  /// Declares the n backing registers in `sim` (one per process, unbounded).
  SnapshotObject(sim::Sim& sim, const std::string& name);

  /// Wait-free update of the caller's segment. O(n) reads + 1 write.
  [[nodiscard]] sim::Task<void> update(sim::Env& env, Value v);

  /// Wait-free linearizable scan: the n current segment values (⊥ for
  /// never-written segments). At most n+1 collects (O(n²) reads).
  [[nodiscard]] sim::Task<std::vector<Value>> scan(sim::Env& env);

 private:
  struct Cell {
    std::uint64_t seq = 0;
    Value value;
    Value embedded;  // the writer's scan at this update (a Vec once written)
  };

  [[nodiscard]] sim::Task<std::vector<Cell>> collect(sim::Env& env);
  [[nodiscard]] static Value encode(const Cell& c);
  [[nodiscard]] static Cell decode(const Value& raw);

  std::vector<int> regs_;
  int n_;
};

}  // namespace bsr::memory
