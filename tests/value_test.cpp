#include "util/value.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <numeric>
#include <set>
#include <thread>
#include <unordered_set>
#include <vector>

#include "sim/zobrist.h"
#include "util/errors.h"

namespace bsr {
namespace {

static_assert(sizeof(Value) <= 32, "Value must stay a compact handle");

// Fixed nested values: every kind, an empty Vec, ⊥ inside a Vec, Bytes
// inside a Vec, and three levels of nesting.
std::vector<Value> pinned_values() {
  const Value empty(std::vector<Value>{});
  return {
      Value(),
      Value(0),
      Value(42),
      Value(std::uint64_t{0xffffffffffffffffULL}),
      Value(""),
      Value("ab"),
      empty,
      Value{empty},
      Value{Value(), Value(1), Value("x")},
      Value{Value{Value(0), Value(1)}, Value{Value(), Value("ab")}, empty},
      Value{Value(3), Value(7),
            Value{Value(), Value{Value(1), Value(2)}, Value("p")}},
      Value{empty, Value{Value()}, Value{Value{Value(), Value("q")}}},
  };
}

TEST(Value, DefaultIsBottom) {
  const Value v;
  EXPECT_TRUE(v.is_bottom());
  EXPECT_EQ(v, Value::bottom());
  EXPECT_EQ(v.str(), "⊥");
}

TEST(Value, U64RoundTrip) {
  const Value v(std::uint64_t{42});
  EXPECT_TRUE(v.is_u64());
  EXPECT_EQ(v.as_u64(), 42u);
  EXPECT_EQ(v.str(), "42");
}

TEST(Value, IntConstructorRejectsNegative) {
  EXPECT_THROW(Value(-1), UsageError);
}

TEST(Value, BytesRoundTrip) {
  const Value v("hello");
  EXPECT_TRUE(v.is_bytes());
  EXPECT_EQ(v.as_bytes(), "hello");
  EXPECT_EQ(v.str(), "\"hello\"");
}

TEST(Value, VecRoundTrip) {
  const Value v{Value(1), Value(), Value("x")};
  ASSERT_TRUE(v.is_vec());
  EXPECT_EQ(v.as_vec().size(), 3u);
  EXPECT_EQ(v.at(0).as_u64(), 1u);
  EXPECT_TRUE(v.at(1).is_bottom());
  EXPECT_EQ(v.str(), "[1, ⊥, \"x\"]");
}

TEST(Value, VecOf) {
  const Value v = Value::vec_of(4);
  ASSERT_TRUE(v.is_vec());
  EXPECT_EQ(v.as_vec().size(), 4u);
  for (const Value& x : v.as_vec()) EXPECT_TRUE(x.is_bottom());
}

TEST(Value, AtOutOfRangeThrows) {
  Value v{Value(1)};
  EXPECT_THROW((void)v.at(1), UsageError);
  EXPECT_THROW((void)Value(3).at(0), UsageError);
}

TEST(Value, WrongKindAccessThrows) {
  EXPECT_THROW((void)Value("x").as_u64(), UsageError);
  EXPECT_THROW((void)Value(1).as_bytes(), UsageError);
  EXPECT_THROW((void)Value(1).as_vec(), UsageError);
}

TEST(Value, BitWidth) {
  EXPECT_EQ(Value(0).bit_width(), 0);
  EXPECT_EQ(Value(1).bit_width(), 1);
  EXPECT_EQ(Value(2).bit_width(), 2);
  EXPECT_EQ(Value(3).bit_width(), 2);
  EXPECT_EQ(Value(4).bit_width(), 3);
  EXPECT_EQ(Value(255).bit_width(), 8);
  EXPECT_EQ(Value(256).bit_width(), 9);
  EXPECT_THROW((void)Value().bit_width(), UsageError);
  EXPECT_THROW((void)Value("b").bit_width(), UsageError);
}

TEST(Value, EqualityAcrossKinds) {
  EXPECT_NE(Value(), Value(0));
  EXPECT_NE(Value(0), Value("0"));
  EXPECT_NE(Value{Value(0)}, Value(0));
  EXPECT_EQ(Value{Value(0)}, Value{Value(0)});
}

TEST(Value, OrderingIsTotalAndLexicographic) {
  const Value a{Value(1), Value(2)};
  const Value b{Value(1), Value(3)};
  const Value c{Value(1)};
  EXPECT_LT(a, b);
  EXPECT_LT(c, a);  // shorter prefix sorts first
  std::set<Value> s{b, a, c, Value(), Value(7)};
  EXPECT_EQ(s.size(), 5u);
}

TEST(Value, HashIsStructural) {
  const Value a{Value(1), Value("x"), Value{Value()}};
  const Value b{Value(1), Value("x"), Value{Value()}};
  EXPECT_EQ(a.hash(), b.hash());
  std::unordered_set<Value, ValueHash> s;
  s.insert(a);
  s.insert(b);
  EXPECT_EQ(s.size(), 1u);
}

TEST(Value, NestedDeepStructures) {
  Value v = Value(0);
  for (int i = 0; i < 50; ++i) v = Value{v, Value(i)};
  const Value w = v;  // shares v's payload
  EXPECT_EQ(v, w);
  EXPECT_EQ(v.hash(), w.hash());
}

TEST(Value, CopySharesPayload) {
  const Value a{Value(1), Value("x"), Value{Value()}};
  const Value b = a;
  EXPECT_EQ(&a.as_vec(), &b.as_vec());
  Value c;
  c = b;
  EXPECT_EQ(&a.as_vec(), &c.as_vec());
  // Elements are shared too: copying a nested view copies no level of it.
  const Value inner = a.at(2);
  EXPECT_EQ(&inner.as_vec(), &a.at(2).as_vec());
  const Value s("payload");
  const Value t = s;
  EXPECT_EQ(&s.as_bytes(), &t.as_bytes());
}

TEST(Value, MovedFromIsBottom) {
  Value v{Value(1), Value(2)};
  const std::vector<Value>* payload = &v.as_vec();
  Value w = std::move(v);
  EXPECT_TRUE(v.is_bottom());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(&w.as_vec(), payload);

  Value s("bytes");
  Value t;
  t = std::move(s);
  EXPECT_TRUE(s.is_bottom());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(t.as_bytes(), "bytes");

  Value n(7);
  const Value m = std::move(n);
  EXPECT_TRUE(n.is_bottom());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(m.as_u64(), 7u);
}

TEST(Value, AssignFromOwnElement) {
  // The element lives in the payload the assignment releases.
  Value v{Value{Value(1), Value("deep")}, Value(2)};
  v = v.at(0);
  EXPECT_EQ(v.str(), "[1, \"deep\"]");
  v = Value(v.at(1));
  EXPECT_EQ(v.as_bytes(), "deep");
}

TEST(Value, PinnedRenderingAndHashes) {
  // TT state hashes and printed views must not drift with Value's
  // representation. The Vec hashes were re-pinned when the element count
  // joined the structural combine (before that, [[]] hashed to 0).
  struct Pin {
    const char* str;
    std::size_t hash;
    std::uint64_t zobrist;
  };
  const Pin pins[] = {
      {R"(⊥)", 0xaf63bd4c8601b7dfULL, 0x25fc6dd36ce04b20ULL},
      {R"(0)", 0x082f2207b4e88cc4ULL, 0x096fb4607e99c43eULL},
      {R"(42)", 0x082efc07b4e84c32ULL, 0xb77b9e1b6a6ec3d5ULL},
      {R"(18446744073709551615)", 0xf7d0dcf84b177189ULL, 0xb4b5b4106b0ffeb3ULL},
      {R"("")", 0xb3e465d6c19bac11ULL, 0x9d31a65a687fc662ULL},
      {R"("ab")", 0xa51d955bb61b415aULL, 0x3e9d0ab832e8a060ULL},
      {R"([])", 0x0835ee07b4ee5316ULL, 0x2acde0d999705877ULL},
      {R"([[]])", 0x00099200000d5fedULL, 0xd784c25c129167c8ULL},
      {R"([⊥, 1, "x"])", 0x9f99cda100132d45ULL, 0xfaf358bded1819b1ULL},
      {R"([[0, 1], [⊥, "ab"], []])", 0x3dada75df904bbadULL, 0xf9f485ca0298526dULL},
      {R"([3, 7, [⊥, [1, 2], "p"]])", 0xa034129fe57b1df6ULL, 0x730892323b9d7db8ULL},
      {R"([[], [⊥], [[⊥, "q"]]])", 0xf4021eb95bb6a25dULL, 0xaaee745e7541223fULL},
  };
  const std::vector<Value> t = pinned_values();
  ASSERT_EQ(t.size(), std::size(pins));
  for (std::size_t i = 0; i < t.size(); ++i) {
    SCOPED_TRACE(pins[i].str);
    EXPECT_EQ(t[i].str(), pins[i].str);
    EXPECT_EQ(t[i].hash(), pins[i].hash);
    EXPECT_EQ(sim::zobrist::value_hash(t[i]), pins[i].zobrist);
  }
}

TEST(Value, PinnedComparisons) {
  const std::vector<Value> t = pinned_values();
  const std::vector<Value> u = pinned_values();  // equal, separate payloads
  for (std::size_t i = 0; i < t.size(); ++i) {
    for (std::size_t j = 0; j < t.size(); ++j) {
      EXPECT_EQ(t[i] == u[j], i == j) << i << " vs " << j;
    }
    EXPECT_TRUE((t[i] <=> u[i]) == std::strong_ordering::equal) << i;
    EXPECT_EQ(t[i].hash(), u[i].hash()) << i;
  }
  // The total order, as sorted before the representation change.
  std::vector<std::size_t> idx(t.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return t[a] < t[b]; });
  const std::vector<std::size_t> expected{0, 1, 2, 3, 4, 5, 6, 8, 10, 7, 11, 9};
  EXPECT_EQ(idx, expected);
}

TEST(Value, ConcurrentCopiesOfOneSharedValue) {
  Value shared = Value(0);
  for (int i = 0; i < 20; ++i) {
    shared = Value{shared, Value(i), Value("s" + std::to_string(i))};
  }
  const std::string expected = shared.str();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&shared] {
      for (int k = 0; k < 20000; ++k) {
        Value copy = shared;
        Value inner = copy.at(0);
        Value moved = std::move(copy);
        inner = moved.at(2);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(shared.str(), expected);
}

}  // namespace
}  // namespace bsr
