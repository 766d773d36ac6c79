// The repository's one JSON module: a value type with its reader, the one
// escaping routine, and the streaming writer every JSON producer uses (the
// lint JsonSink, the serve envelopes and payloads, `bsr explore --json`).
//
// The reader covers exactly the JSON this codebase exchanges (objects,
// arrays, strings, integer numbers, booleans, null); anything else is a
// UsageError carrying the byte offset.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace bsr {

/// Deepest array/object nesting Json::parse accepts. The deepest document
/// the repository emits (an interference lint report inside a serve
/// envelope) nests 7 levels. The reader recurses once per level, so the
/// limit keeps a hostile `[[[[…` line from exhausting a daemon worker's
/// stack.
inline constexpr int kMaxJsonDepth = 64;

/// One parsed JSON value. Numbers are longs: no document the repository
/// reads has a fractional field, and a "1.5" in a request is a contract
/// violation.
class Json {
 public:
  Json() = default;

  [[nodiscard]] bool is_object() const { return kind_ == Kind::Object; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::String; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::Number; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::Bool; }

  /// Typed accessors; UsageError on kind mismatch.
  [[nodiscard]] bool boolean() const;
  [[nodiscard]] long num() const;
  [[nodiscard]] const std::string& str() const;
  [[nodiscard]] const std::vector<Json>& array() const;
  [[nodiscard]] const std::map<std::string, Json>& object() const;

  /// Object field lookup; nullptr when absent (or not an object).
  [[nodiscard]] const Json* get(const std::string& key) const;

  /// Convenience typed lookups with defaults; UsageError when the field is
  /// present with the wrong type (a malformed request, not a missing one).
  [[nodiscard]] std::string str_or(const std::string& key,
                                   const std::string& def) const;
  [[nodiscard]] long num_or(const std::string& key, long def) const;
  [[nodiscard]] bool bool_or(const std::string& key, bool def) const;

  /// Parses one complete JSON document; UsageError on any syntax error,
  /// nesting deeper than kMaxJsonDepth, or trailing content.
  [[nodiscard]] static Json parse(const std::string& text);

 private:
  friend class JsonParser;
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  long num_ = 0;
  std::string str_;
  std::shared_ptr<std::vector<Json>> arr_;
  std::shared_ptr<std::map<std::string, Json>> obj_;
};

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters; non-ASCII bytes pass through, so UTF-8
/// register names such as ⊥ stay readable).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Streaming writer that appends one compact JSON document to a
/// caller-owned string. It places commas, quotes and escapes strings; the
/// caller keeps begin/end calls balanced and puts a key() before each value
/// inside an object.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(std::string_view k);
  JsonWriter& str(std::string_view s);
  JsonWriter& boolean(bool b);

  template <std::integral T>
  JsonWriter& num(T n) {
    char buf[24];
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, n);
    return raw(std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
  }

  /// Splices `json`, an already-serialized JSON value, in as the next value
  /// (the serve cache stores lint and explore payloads as finished JSON).
  JsonWriter& raw(std::string_view json);

 private:
  JsonWriter& open(char c);
  JsonWriter& close(char c);

  std::string& out_;
  bool comma_ = false;  ///< The next value or key needs a ',' first.
};

}  // namespace bsr
