#include "util/value.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <ostream>
#include <sstream>

#include "util/errors.h"

namespace bsr {

struct Value::BytesPayload : Value::Payload {
  explicit BytesPayload(std::string b) : bytes(std::move(b)) {}
  const std::string bytes;
};

struct Value::VecPayload : Value::Payload {
  explicit VecPayload(std::vector<Value> v) : vec(std::move(v)) {}
  const std::vector<Value> vec;
};

Value::Value(std::string bytes)
    : kind_(Kind::Bytes),
      word_{.payload = new BytesPayload(std::move(bytes))} {}

Value::Value(std::vector<Value> vec)
    : kind_(Kind::Vec), word_{.payload = new VecPayload(std::move(vec))} {}

const Value::BytesPayload& Value::bytes_payload() const noexcept {
  return *static_cast<const BytesPayload*>(word_.payload);
}

const Value::VecPayload& Value::vec_payload() const noexcept {
  return *static_cast<const VecPayload*>(word_.payload);
}

void Value::destroy() noexcept {
  if (kind_ == Kind::Bytes) {
    delete static_cast<BytesPayload*>(word_.payload);
  } else {
    delete static_cast<VecPayload*>(word_.payload);
  }
}

Value Value::vec_of(std::size_t n, const Value& fill) {
  return Value(std::vector<Value>(n, fill));
}

std::uint64_t Value::as_u64() const {
  usage_check(kind_ == Kind::U64,
              [&] { return "Value::as_u64 on non-integer value " + str(); });
  return word_.u64;
}

const std::string& Value::as_bytes() const {
  usage_check(kind_ == Kind::Bytes,
              [&] { return "Value::as_bytes on non-bytes value " + str(); });
  return bytes_payload().bytes;
}

const std::vector<Value>& Value::as_vec() const {
  usage_check(kind_ == Kind::Vec,
              [&] { return "Value::as_vec on non-vector value " + str(); });
  return vec_payload().vec;
}

const Value& Value::at(std::size_t i) const {
  const auto& v = as_vec();
  usage_check(i < v.size(), "Value::at index out of range");
  return v[i];
}

int Value::bit_width() const {
  usage_check(kind_ == Kind::U64, [&] {
    return "Value::bit_width: only integers fit in bounded registers, got " +
           str();
  });
  return static_cast<int>(std::bit_width(word_.u64));
}

void Value::usage_nonnegative(int v) {
  usage_check(v >= 0, "Value(int): negative values are not representable");
}

bool operator==(const Value& a, const Value& b) noexcept {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case Value::Kind::Bottom: return true;
    case Value::Kind::U64: return a.word_.u64 == b.word_.u64;
    case Value::Kind::Bytes:
      return a.word_.payload == b.word_.payload ||
             a.bytes_payload().bytes == b.bytes_payload().bytes;
    case Value::Kind::Vec:
      return a.word_.payload == b.word_.payload ||
             a.vec_payload().vec == b.vec_payload().vec;
  }
  return false;
}

std::strong_ordering operator<=>(const Value& a, const Value& b) noexcept {
  if (auto c = a.kind_ <=> b.kind_; c != 0) return c;
  if (a.shared() && a.word_.payload == b.word_.payload) {
    return std::strong_ordering::equal;
  }
  switch (a.kind_) {
    case Value::Kind::Bottom: return std::strong_ordering::equal;
    case Value::Kind::U64: return a.word_.u64 <=> b.word_.u64;
    case Value::Kind::Bytes:
      return a.bytes_payload().bytes <=> b.bytes_payload().bytes;
    case Value::Kind::Vec: {
      const auto& av = a.vec_payload().vec;
      const auto& bv = b.vec_payload().vec;
      const std::size_t m = std::min(av.size(), bv.size());
      for (std::size_t i = 0; i < m; ++i) {
        if (auto c = av[i] <=> bv[i]; c != 0) return c;
      }
      return av.size() <=> bv.size();
    }
  }
  return std::strong_ordering::equal;
}

std::size_t Value::hash() const noexcept {
  // FNV-style structural combine.
  auto mix = [](std::size_t h, std::size_t x) {
    return (h ^ x) * 0x100000001b3ULL;
  };
  std::size_t h = 0xcbf29ce484222325ULL;
  h = mix(h, static_cast<std::size_t>(kind_));
  switch (kind_) {
    case Kind::Bottom: break;
    case Kind::U64: h = mix(h, static_cast<std::size_t>(word_.u64)); break;
    case Kind::Bytes:
      h = mix(h, std::hash<std::string>{}(bytes_payload().bytes));
      break;
    case Kind::Vec:
      // The length goes in first: otherwise an empty Vec's hash equals the
      // running hash of its parent, and mixing the two gives [[]] hash 0.
      h = mix(h, vec_payload().vec.size());
      for (const Value& v : vec_payload().vec) h = mix(h, v.hash());
      break;
  }
  return h;
}

std::string Value::str() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::Bottom: return os << "⊥";
    case Value::Kind::U64: return os << v.as_u64();
    case Value::Kind::Bytes: return os << '"' << v.as_bytes() << '"';
    case Value::Kind::Vec: {
      os << '[';
      bool first = true;
      for (const Value& x : v.as_vec()) {
        if (!first) os << ", ";
        first = false;
        os << x;
      }
      return os << ']';
    }
  }
  return os;
}

}  // namespace bsr
