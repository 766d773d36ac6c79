// Recursive register value type.
//
// Registers in the *unbounded* shared-memory model hold full-information
// views: arbitrarily nested structures built from process inputs. `Value`
// models exactly that: bottom (⊥), an unsigned integer, a byte string, or a
// vector of values. Values are totally ordered (lexicographic over a kind
// tag), hashable, and printable, so they can be used as set/map keys when
// enumerating protocol configurations.
//
// Representation: a kind tag plus one 8-byte word, which holds either the
// integer inline or a pointer to an immutable, atomically refcounted payload
// (the byte string or the element vector). A payload is never modified after
// construction, so copying a Value — however deeply nested — only bumps a
// refcount, and copies may be made and destroyed on different threads. A
// moved-from Value is ⊥.
#pragma once

#include <atomic>
#include <compare>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace bsr {

/// A value storable in a simulated register.
///
/// Bounded registers only accept `Value::u64` payloads small enough for the
/// declared bit width; unbounded registers accept any Value.
class Value {
 public:
  enum class Kind { Bottom, U64, Bytes, Vec };

  /// ⊥ — the initial content of registers, and "no value" in views.
  Value() noexcept : kind_(Kind::Bottom), word_{0} {}
  Value(std::uint64_t v) noexcept : kind_(Kind::U64), word_{v} {}
  Value(int v) : Value(static_cast<std::uint64_t>(v)) {
    usage_nonnegative(v);
  }
  Value(std::string bytes);
  Value(const char* bytes) : Value(std::string(bytes)) {}
  Value(std::vector<Value> vec);
  Value(std::initializer_list<Value> vec)
      : Value(std::vector<Value>(vec.begin(), vec.end())) {}

  /// Copies share the payload: O(1), no allocation.
  Value(const Value& o) noexcept : kind_(o.kind_), word_(o.word_) { retain(); }
  /// Leaves `o` as ⊥.
  Value(Value&& o) noexcept : kind_(o.kind_), word_(o.word_) { o.reset(); }
  // Both assignments build the new value first and drop the old one last,
  // so assigning from a value nested inside our own payload is safe.
  Value& operator=(const Value& o) noexcept {
    Value tmp(o);
    swap(tmp);
    return *this;
  }
  /// Leaves `o` as ⊥ (a self-move leaves the value unchanged).
  Value& operator=(Value&& o) noexcept {
    Value tmp(std::move(o));
    swap(tmp);
    return *this;
  }
  ~Value() { release(); }

  /// Named constructor for ⊥, for readability at call sites.
  [[nodiscard]] static Value bottom() noexcept { return Value(); }
  /// A vector of `n` copies of `fill` (defaults to ⊥).
  [[nodiscard]] static Value vec_of(std::size_t n, const Value& fill = Value());

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_bottom() const noexcept { return kind_ == Kind::Bottom; }
  [[nodiscard]] bool is_u64() const noexcept { return kind_ == Kind::U64; }
  [[nodiscard]] bool is_bytes() const noexcept { return kind_ == Kind::Bytes; }
  [[nodiscard]] bool is_vec() const noexcept { return kind_ == Kind::Vec; }

  /// Integer payload; throws UsageError if not a U64.
  [[nodiscard]] std::uint64_t as_u64() const;
  /// Byte-string payload; throws UsageError if not Bytes.
  [[nodiscard]] const std::string& as_bytes() const;
  /// Vector payload; throws UsageError if not a Vec.
  [[nodiscard]] const std::vector<Value>& as_vec() const;

  /// Vector element access; throws UsageError if not a Vec or out of range.
  [[nodiscard]] const Value& at(std::size_t i) const;

  /// Number of bits needed to store this value in a bounded register
  /// (0 for the u64 value 0). Throws UsageError for non-U64 values, which
  /// never fit in a bounded register.
  [[nodiscard]] int bit_width() const;

  friend bool operator==(const Value& a, const Value& b) noexcept;
  friend std::strong_ordering operator<=>(const Value& a, const Value& b) noexcept;

  /// Stable structural hash (suitable for unordered containers).
  [[nodiscard]] std::size_t hash() const noexcept;

  /// Human-readable rendering, e.g. `[⊥, 3, "ab", [0, 1]]`.
  [[nodiscard]] std::string str() const;

 private:
  struct Payload;
  struct BytesPayload;
  struct VecPayload;

  static void usage_nonnegative(int v);

  [[nodiscard]] bool shared() const noexcept { return kind_ >= Kind::Bytes; }
  void retain() const noexcept;
  void release() noexcept;
  /// Frees the payload after its last reference is dropped.
  void destroy() noexcept;
  void reset() noexcept {
    kind_ = Kind::Bottom;
    word_.u64 = 0;
  }
  void swap(Value& o) noexcept {
    std::swap(kind_, o.kind_);
    std::swap(word_, o.word_);
  }
  [[nodiscard]] const BytesPayload& bytes_payload() const noexcept;
  [[nodiscard]] const VecPayload& vec_payload() const noexcept;

  union Word {
    std::uint64_t u64;  ///< U64 (and 0 for ⊥)
    Payload* payload;   ///< Bytes and Vec: BytesPayload / VecPayload
  };

  Kind kind_;
  Word word_;
};

/// Refcount header of a shared payload (a BytesPayload or VecPayload,
/// defined in value.cpp). Its content is immutable once the owning Value's
/// constructor returns.
struct Value::Payload {
  std::atomic<std::size_t> refs{1};
};

inline void Value::retain() const noexcept {
  if (shared()) word_.payload->refs.fetch_add(1);
}

inline void Value::release() noexcept {
  if (shared() && word_.payload->refs.fetch_sub(1) == 1) destroy();
}

std::ostream& operator<<(std::ostream& os, const Value& v);

/// Builds a vector Value from the given elements without materializing an
/// initializer_list (whose backing array miscompiles inside coroutines on
/// GCC 12). Prefer this over `Value{...}` in any coroutine body.
template <class... Ts>
[[nodiscard]] Value make_vec(Ts&&... xs) {
  std::vector<Value> v;
  v.reserve(sizeof...(xs));
  (v.emplace_back(Value(std::forward<Ts>(xs))), ...);
  return Value(std::move(v));
}

struct ValueHash {
  std::size_t operator()(const Value& v) const noexcept { return v.hash(); }
};

}  // namespace bsr
