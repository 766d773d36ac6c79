#include "analysis/static/interference.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <utility>

namespace bsr::analysis::itf {
namespace {

void add_sorted(std::vector<int>& v, int x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it == v.end() || *it != x) v.insert(it, x);
}

bool contains(const std::vector<int>& v, int x) {
  return std::binary_search(v.begin(), v.end(), x);
}

/// First register in a ∩ b, or -1 (both sorted).
int first_common(const std::vector<int>& a, const std::vector<int>& b) {
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (*i == *j) return *i;
    if (*i < *j) {
      ++i;
    } else {
      ++j;
    }
  }
  return -1;
}

/// Bits needed for the largest value `v` may store, resolved against the
/// protocol's instantiation (symbolic widths) and register table
/// (relational widths); -1 = no finite bound. Mirrors the abstract
/// interpreter's resolution, conservatively.
int value_max_bits(const ir::ProtocolIR& p, const ir::ValueExpr& v) {
  if (v.unbounded) return -1;
  if (v.symbolic()) {
    const long w = v.sym_width.eval(p.params);
    return w >= 64 ? -1 : static_cast<int>(w);
  }
  if (v.relational()) {
    if (v.rel_base < 0 ||
        v.rel_base >= static_cast<int>(p.registers.size())) {
      return -1;
    }
    const int base = p.registers[v.rel_base].width_bits;
    return base == ir::kUnboundedWidth ? -1 : base + v.rel_slack;
  }
  return ir::bit_width_u64(v.hi);
}

/// May this write record a Width/Bottom/Swmr/WriteOnce event? Mirrors the
/// simulator's do_write checks on the static value set.
bool write_may_violate(const ir::ProtocolIR& p, int pid, int reg,
                       const ir::ValueExpr& value) {
  if (reg < 0 || reg >= static_cast<int>(p.registers.size())) return true;
  const ir::RegisterDecl& decl = p.registers[reg];
  if (decl.writer != -1 && decl.writer != pid) return true;  // SWMR breach
  // Statically we cannot count dynamic writes, so any write to a
  // write-once register may be the second one.
  if (decl.write_once) return true;
  if (decl.width_bits == ir::kUnboundedWidth) return false;
  const int bits = value_max_bits(p, value);
  if (bits < 0 || bits > decl.width_bits) return true;  // width overflow
  if (decl.allows_bottom && bits == decl.width_bits) {
    // The top code point is reserved for ⊥; a full-width value set may
    // reach it unless the interval's upper end provably stays below.
    const std::uint64_t limit =
        (std::uint64_t{1} << decl.width_bits) - 2;
    const bool concrete = !value.unbounded && !value.symbolic() &&
                          !value.relational();
    if (!concrete || value.hi > limit) return true;
  }
  return false;
}

bool send_may_violate(const ir::ProtocolIR& p, int pid, int dst) {
  if (p.channels.empty()) return pid == dst;  // default: no self-loops
  return std::none_of(p.channels.begin(), p.channels.end(),
                      [&](const ir::ChannelDecl& c) {
                        return c.src == pid && c.dst == dst;
                      });
}

std::string reg_name(const std::vector<ir::RegisterDecl>& registers, int r) {
  // Built by append: GCC 12's -Wrestrict misfires on `"'" + name + "'"`
  // and `"#" + std::to_string(r)` here.
  std::string out;
  if (r >= 0 && r < static_cast<int>(registers.size())) {
    out.append("'").append(registers[r].name).append("'");
  } else {
    out.append("#").append(std::to_string(r));
  }
  return out;
}

std::string op_label(const ir::ProtocolIR& p, int pid, const ir::Instr& op) {
  std::ostringstream os;
  os << "p" << pid << " ";
  const auto group = [&](const std::vector<int>& regs) {
    os << "{";
    for (std::size_t i = 0; i < regs.size(); ++i) {
      if (i > 0) os << ",";
      os << reg_name(p.registers, regs[i]);
    }
    os << "}";
  };
  switch (op.kind) {
    case ir::Instr::Kind::Read:
      os << "read " << reg_name(p.registers, op.reg);
      break;
    case ir::Instr::Kind::Write:
      os << "write " << reg_name(p.registers, op.reg);
      break;
    case ir::Instr::Kind::Snapshot:
      os << "snapshot ";
      group(op.regs);
      break;
    case ir::Instr::Kind::WriteSnapshot:
      os << "write-snapshot " << reg_name(p.registers, op.reg) << " ";
      group(op.regs);
      break;
    case ir::Instr::Kind::Send:
      os << "send -> p" << op.peer;
      break;
    case ir::Instr::Kind::Recv:
      os << "recv <- ";
      if (op.peer < 0) {
        os << "any";
      } else {
        os << "p" << op.peer;
      }
      break;
    case ir::Instr::Kind::Round:
      os << "round";
      break;
    case ir::Instr::Kind::Loop:
      os << "loop";  // not a leaf; never emitted by analyze()
      break;
  }
  return os.str();
}

void flatten(const ir::ProtocolIR& p, int pid,
             const std::vector<ir::Instr>& body, std::vector<OpSite>& out) {
  for (const ir::Instr& op : body) {
    if (op.kind == ir::Instr::Kind::Loop) {
      flatten(p, pid, op.body, out);
      continue;
    }
    out.push_back(OpSite{footprint(p, pid, op), op_label(p, pid, op)});
    if (op.kind == ir::Instr::Kind::Round) flatten(p, pid, op.body, out);
  }
}

}  // namespace

Verdict classify(const Footprint& a, const Footprint& b) {
  Verdict v;
  if (a.pid == b.pid) {
    v.why = Verdict::Why::SameProcess;
    return v;
  }
  if (a.may_violate || b.may_violate) {
    v.why = Verdict::Why::MayViolate;
    return v;
  }
  if (a.crash || b.crash) {
    if (a.crash && b.crash) {
      v.why = Verdict::Why::CrashBudget;
      return v;
    }
    v.independent = true;
    v.why = Verdict::Why::CrashCommutes;
    return v;
  }
  // Register conflicts: a write against any access of the same register.
  int conflict = first_common(a.writes, b.writes);
  if (conflict < 0) conflict = first_common(a.writes, b.reads);
  if (conflict < 0) conflict = first_common(b.writes, a.reads);
  if (conflict >= 0) {
    v.why = Verdict::Why::RegisterConflict;
    v.reg = conflict;
    return v;
  }
  // Channel conflicts: a send to q against a receive by q whose source
  // filter admits the sender (or admits anyone).
  const auto feeds = [](const Footprint& s, const Footprint& r) {
    return s.send_to >= 0 && r.is_recv && r.pid == s.send_to &&
           (r.recv_from < 0 || r.recv_from == s.pid);
  };
  if (feeds(a, b) || feeds(b, a)) {
    v.why = Verdict::Why::ChannelConflict;
    return v;
  }
  v.independent = true;
  v.why = Verdict::Why::DisjointFootprints;
  return v;
}

std::string render_reason(const Verdict& v,
                          const std::vector<ir::RegisterDecl>& registers) {
  switch (v.why) {
    case Verdict::Why::SameProcess:
      return "same process: program order";
    case Verdict::Why::MayViolate:
      return "an operand may record a model violation (order-sensitive)";
    case Verdict::Why::CrashBudget:
      return "both crashes draw on the adversary's crash budget";
    case Verdict::Why::RegisterConflict:
      return "conflicting access to register " + reg_name(registers, v.reg);
    case Verdict::Why::ChannelConflict:
      return "the send feeds the receive's FIFO channel";
    case Verdict::Why::CrashCommutes:
      return "a crash only halts its own process; no shared state touched";
    case Verdict::Why::DisjointFootprints:
      return "disjoint register and channel footprints";
  }
  return "?";
}

Footprint footprint(const ir::ProtocolIR& p, int pid, const ir::Instr& op) {
  Footprint fp;
  fp.pid = pid;
  switch (op.kind) {
    case ir::Instr::Kind::Read:
      add_sorted(fp.reads, op.reg);
      break;
    case ir::Instr::Kind::Write:
      add_sorted(fp.writes, op.reg);
      fp.may_violate = write_may_violate(p, pid, op.reg, op.value);
      break;
    case ir::Instr::Kind::Snapshot:
      for (const int r : op.regs) add_sorted(fp.reads, r);
      break;
    case ir::Instr::Kind::WriteSnapshot:
      add_sorted(fp.writes, op.reg);
      for (const int r : op.regs) add_sorted(fp.reads, r);
      fp.may_violate = write_may_violate(p, pid, op.reg, op.value);
      break;
    case ir::Instr::Kind::Send:
      fp.send_to = op.peer;
      fp.may_violate = send_may_violate(p, pid, op.peer);
      break;
    case ir::Instr::Kind::Recv:
      fp.is_recv = true;
      fp.recv_from = op.peer;
      break;
    case ir::Instr::Kind::Round:
    case ir::Instr::Kind::Loop:
      break;  // control structure: no shared-state footprint of its own
  }
  // Under a declared round budget every step may record a Round event (the
  // event fires inside the resumed body, not at the pending op).
  if (p.max_rounds != ir::kMany) fp.may_violate = true;
  return fp;
}

Report analyze(const ir::ProtocolIR& p) {
  Report rep;
  for (const ir::ProcessIR& proc : p.processes) {
    flatten(p, proc.pid, proc.body, rep.ops);
  }
  const int n = static_cast<int>(rep.ops.size());
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rep.ops[i].fp.pid == rep.ops[j].fp.pid) continue;
      OpPair pr;
      pr.a = i;
      pr.b = j;
      pr.verdict = classify(rep.ops[i].fp, rep.ops[j].fp);
      if (pr.verdict.independent) ++rep.independent;
      rep.pairs.push_back(std::move(pr));
    }
  }
  return rep;
}

std::vector<bool> contended_registers(const Report& r,
                                      std::size_t num_registers) {
  std::vector<bool> contended(num_registers, false);
  const auto mark = [&](const std::vector<int>& ws, const Footprint& other) {
    for (const int w : ws) {
      if (w < 0 || w >= static_cast<int>(num_registers)) continue;
      if (contains(other.writes, w) || contains(other.reads, w)) {
        contended[w] = true;
      }
    }
  };
  for (const OpPair& pr : r.pairs) {
    const Footprint& a = r.ops[pr.a].fp;
    const Footprint& b = r.ops[pr.b].fp;
    mark(a.writes, b);
    mark(b.writes, a);
  }
  return contended;
}

}  // namespace bsr::analysis::itf
