// Atomic operations a simulated process can perform.
//
// The paper's model defines an execution as a sequence of *steps*, each an
// atomic access to the shared memory. We reify a step request as an
// OpRequest: the process coroutine suspends with a pending request, and the
// scheduler executes it atomically and resumes the process with the result.
// Message-passing ops (send/recv) live in the same enum so that the §6
// constructions (ABD emulation, ring routing) can run on one kernel.
#pragma once

#include <string>
#include <vector>

#include "util/value.h"

namespace bsr::sim {

/// Process identifier, in [0, n).
using Pid = int;

enum class OpKind {
  Start,      ///< Artificial first step: begins execution of the process.
  Read,       ///< Atomic read of one register.
  Write,      ///< Atomic write of one register.
  Snapshot,   ///< Atomic read of a set of registers (Lemma 2.3 primitive).
  WriteSnap,  ///< Immediate snapshot: write own register, then snapshot,
              ///< atomically; concurrent WriteSnaps may form a block.
  Send,       ///< Enqueue a message on a FIFO channel (asynchronous).
  Recv,       ///< Dequeue a message; blocks while no matching message exists.
};

[[nodiscard]] std::string to_string(OpKind k);

/// A pending atomic step, produced by a suspended process coroutine.
struct OpRequest {
  OpKind kind = OpKind::Start;
  int reg = -1;            ///< Register index (Read/Write, own reg for WriteSnap).
  std::vector<int> regs;   ///< Register set (Snapshot/WriteSnap).
  Value value;             ///< Value to write / message payload.
  Pid peer = -1;           ///< Send: destination. Recv: source filter (-1 = any).
};

/// The result of executing an OpRequest.
struct OpResult {
  Value value;    ///< Read: register content. Snapshot: vector of contents.
                  ///< Recv: message payload.
  Pid from = -1;  ///< Recv: sender of the delivered message.

  friend bool operator==(const OpResult&, const OpResult&) = default;
};

/// One executed step, for execution traces.
struct TraceEvent {
  Pid pid = -1;
  OpRequest request;
  OpResult result;
};

}  // namespace bsr::sim
