#include "util/json.h"

#include <cctype>
#include <system_error>

#include "util/errors.h"

namespace bsr {

namespace {

[[noreturn]] void bad(const std::string& what, std::size_t pos) {
  throw UsageError("malformed request JSON: " + what + " at byte " +
                   std::to_string(pos));
}

/// The escaping routine behind json_escape and JsonWriter: appends `s` to
/// `out`, copying runs that need no escape in one go.
void escape_into(std::string& out, std::string_view s) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += "0123456789abcdef"[c >> 4];
        out += "0123456789abcdef"[c & 0xf];
    }
  }
  out.append(s, run, s.size() - run);
}

}  // namespace

bool Json::boolean() const {
  usage_check(kind_ == Kind::Bool, "JSON field is not a boolean");
  return bool_;
}

long Json::num() const {
  usage_check(kind_ == Kind::Number, "JSON field is not a number");
  return num_;
}

const std::string& Json::str() const {
  usage_check(kind_ == Kind::String, "JSON field is not a string");
  return str_;
}

const std::vector<Json>& Json::array() const {
  usage_check(kind_ == Kind::Array, "JSON field is not an array");
  return *arr_;
}

const std::map<std::string, Json>& Json::object() const {
  usage_check(kind_ == Kind::Object, "JSON field is not an object");
  return *obj_;
}

const Json* Json::get(const std::string& key) const {
  if (kind_ != Kind::Object) return nullptr;
  const auto it = obj_->find(key);
  return it == obj_->end() ? nullptr : &it->second;
}

std::string Json::str_or(const std::string& key,
                         const std::string& def) const {
  const Json* v = get(key);
  if (v == nullptr) return def;
  usage_check(v->is_string(), "field '" + key + "' must be a string");
  return v->str();
}

long Json::num_or(const std::string& key, long def) const {
  const Json* v = get(key);
  if (v == nullptr) return def;
  usage_check(v->is_number(), "field '" + key + "' must be a number");
  return v->num();
}

bool Json::bool_or(const std::string& key, bool def) const {
  const Json* v = get(key);
  if (v == nullptr) return def;
  usage_check(v->is_bool(), "field '" + key + "' must be a boolean");
  return v->boolean();
}

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) bad("trailing content", pos_);
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) bad("unexpected end of input", pos_);
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) bad(std::string("expected '") + c + "'", pos_);
    ++pos_;
  }
  bool consume(char c) {
    if (peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Json value() {
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ == kMaxJsonDepth) {
        bad("nesting deeper than " + std::to_string(kMaxJsonDepth), pos_);
      }
      ++depth_;
      Json v = c == '{' ? object() : array();
      --depth_;
      return v;
    }
    if (c == '"') {
      Json v;
      v.kind_ = Json::Kind::String;
      v.str_ = string();
      return v;
    }
    if (c == 't' || c == 'f' || c == 'n') return literal();
    return number();
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      const char c = s_[pos_++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) bad("dangling escape", pos_);
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) bad("truncated \\u escape", pos_);
          const char* const hex = s_.data() + pos_;
          unsigned code = 0;
          if (std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4) {
            bad("bad \\u escape", pos_);
          }
          pos_ += 4;
          // Producers only escape control bytes; reject the surrogate
          // range instead of silently mangling it.
          if (code > 0x7f) bad("non-ASCII \\u escape (send raw UTF-8)", pos_);
          out += static_cast<char>(code);
          break;
        }
        default: bad("unknown escape", pos_);
      }
    }
    expect('"');
    return out;
  }

  Json literal() {
    for (const std::string_view word : {"true", "false", "null"}) {
      if (s_.compare(pos_, word.size(), word) != 0) continue;
      pos_ += word.size();
      Json v;
      v.kind_ = word == "null" ? Json::Kind::Null : Json::Kind::Bool;
      v.bool_ = word == "true";
      return v;
    }
    bad("bad literal", pos_);
  }

  Json number() {
    Json v;
    v.kind_ = Json::Kind::Number;
    const char* const begin = s_.data() + pos_;
    const std::from_chars_result r =
        std::from_chars(begin, s_.data() + s_.size(), v.num_);
    if (r.ec == std::errc::invalid_argument) bad("bad number", pos_);
    if (r.ec != std::errc()) bad("number out of range", pos_);
    pos_ += static_cast<std::size_t>(r.ptr - begin);
    return v;
  }

  Json array() {
    expect('[');
    Json v;
    v.kind_ = Json::Kind::Array;
    v.arr_ = std::make_shared<std::vector<Json>>();
    if (!consume(']')) {
      do {
        v.arr_->push_back(value());
      } while (consume(','));
      expect(']');
    }
    return v;
  }

  Json object() {
    expect('{');
    Json v;
    v.kind_ = Json::Kind::Object;
    v.obj_ = std::make_shared<std::map<std::string, Json>>();
    if (!consume('}')) {
      do {
        const std::string key = string();
        expect(':');
        (*v.obj_)[key] = value();
      } while (consume(','));
      expect('}');
    }
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< Open arrays and objects around pos_.
};

Json Json::parse(const std::string& text) { return JsonParser(text).parse(); }

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  escape_into(out, s);
  return out;
}

JsonWriter& JsonWriter::open(char c) {
  if (comma_) out_ += ',';
  out_ += c;
  comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::close(char c) {
  out_ += c;
  comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  str(k);
  out_ += ':';
  comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::str(std::string_view s) {
  if (comma_) out_ += ',';
  out_ += '"';
  escape_into(out_, s);
  out_ += '"';
  comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::boolean(bool b) { return raw(b ? "true" : "false"); }

JsonWriter& JsonWriter::raw(std::string_view json) {
  if (comma_) out_ += ',';
  out_ += json;
  comma_ = true;
  return *this;
}

}  // namespace bsr
