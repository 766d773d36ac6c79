#include "memory/snapshot.h"

#include "util/errors.h"

namespace bsr::memory {

using sim::Env;
using sim::Task;

SnapshotObject::SnapshotObject(sim::Sim& sim, const std::string& name)
    : n_(sim.n()) {
  regs_.reserve(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    regs_.push_back(sim.add_register(name + "." + std::to_string(i), i,
                                     sim::kUnbounded, Value()));
  }
}

Value SnapshotObject::encode(const Cell& c) {
  std::vector<Value> v;
  v.reserve(3);
  v.emplace_back(c.seq);
  v.push_back(c.value);
  v.push_back(c.embedded);
  return Value(std::move(v));
}

SnapshotObject::Cell SnapshotObject::decode(const Value& raw) {
  Cell c;
  if (raw.is_bottom()) return c;  // never written: seq 0, ⊥ value
  c.seq = raw.at(0).as_u64();
  c.value = raw.at(1);
  c.embedded = raw.at(2);
  return c;
}

Task<std::vector<SnapshotObject::Cell>> SnapshotObject::collect(Env& env) {
  std::vector<Cell> out;
  out.reserve(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    const sim::OpResult got =
        co_await env.read(regs_[static_cast<std::size_t>(i)]);
    out.push_back(decode(got.value));
  }
  co_return out;
}

Task<std::vector<Value>> SnapshotObject::scan(Env& env) {
  // Track, per writer, how many times it has been seen to move.
  std::vector<int> moved(static_cast<std::size_t>(n_), 0);
  std::vector<Cell> prev = co_await collect(env);
  for (;;) {
    std::vector<Cell> cur = co_await collect(env);
    bool clean = true;
    for (int j = 0; j < n_; ++j) {
      const auto ji = static_cast<std::size_t>(j);
      if (cur[ji].seq != prev[ji].seq) {
        clean = false;
        moved[ji] += 1;
        if (moved[ji] >= 2) {
          // Writer j performed a complete update inside this scan: its
          // embedded view is a snapshot linearized within our interval.
          co_return cur[ji].embedded.as_vec();
        }
      }
    }
    if (clean) {
      std::vector<Value> out;
      out.reserve(static_cast<std::size_t>(n_));
      for (const Cell& c : cur) out.push_back(c.value);
      co_return out;
    }
    prev = std::move(cur);
  }
}

Task<void> SnapshotObject::update(Env& env, Value v) {
  // Embedded scan first, then publish (seq+1, v, scan).
  std::vector<Value> view = co_await scan(env);
  const int me = env.pid();
  const sim::OpResult raw =
      co_await env.read(regs_[static_cast<std::size_t>(me)]);
  Cell c = decode(raw.value);
  c.seq += 1;
  c.value = std::move(v);
  c.embedded = Value(std::move(view));
  co_await env.write(regs_[static_cast<std::size_t>(me)], encode(c));
}

}  // namespace bsr::memory
