// Minimal JSON support for confail's machine-readable outputs.
//
// Writer: a flat streaming builder (values appended in document order,
// commas/indentation handled by nesting depth).  This is the emitter behind
// every BENCH_*.json, metrics snapshot and Chrome trace file the project
// produces, so all of them share one escaping and formatting convention.
//
// Value/parse: a tiny recursive-descent reader for the same dialect, used
// by the self-checking ctest entries (validate that an emitted file parses
// and contains the required keys) and by tests.  Not a general-purpose
// parser: no \uXXXX escapes, numbers are doubles.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace confail::obs {

namespace detail {
/// The letter after the backslash for each byte a JSON string escapes
/// ('"' -> '"', '\n' -> 'n', ...); 0 for bytes copied as they are.
inline constexpr std::array<char, 256> kJsonEscapes = [] {
  std::array<char, 256> t{};
  t['"'] = '"';
  t['\\'] = '\\';
  t['\n'] = 'n';
  t['\t'] = 't';
  t['\r'] = 'r';
  return t;
}();
}  // namespace detail

/// Append `s` to `out` escaped as the body of a JSON string (no quotes):
/// JsonWriter's escaping, for writers that emit a long string value in
/// pieces.  `out` grows once, by the escaped size counted up front; event
/// lines escape a quote every few bytes, too often for run copies to pay.
inline void appendJsonEscaped(std::string& out, std::string_view s) {
  std::size_t escapes = 0;
  for (char c : s) {
    escapes += detail::kJsonEscapes[static_cast<unsigned char>(c)] != 0;
  }
  const std::size_t at = out.size();
  out.resize(at + s.size() + escapes);
  char* p = out.data() + at;
  for (char c : s) {
    const char e = detail::kJsonEscapes[static_cast<unsigned char>(c)];
    if (e == 0) {
      *p++ = c;
    } else {
      *p++ = '\\';
      *p++ = e;
    }
  }
}

class JsonWriter {
 public:
  void beginObject() { open('{'); }
  void endObject() { close('}'); }
  void beginArray() { open('['); }
  void endArray() { close(']'); }

  void key(const std::string& k) {
    comma();
    out_ += '"';
    escape(k);
    out_ += "\": ";
    pendingValue_ = true;
  }

  void value(const std::string& v) {
    comma();
    out_ += '"';
    escape(v);
    out_ += '"';
  }
  void value(const char* v) { value(std::string(v)); }
  void value(bool v) {
    comma();
    out_ += v ? "true" : "false";
  }
  void value(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    comma();
    out_ += buf;
  }
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  void value(T v) {
    comma();
    out_ += std::to_string(v);
  }

  template <typename T>
  void field(const std::string& k, T v) {
    key(k);
    value(v);
  }

  const std::string& str() const { return out_; }

  /// Write the document to `path`; returns false on I/O failure.
  bool writeFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs(out_.c_str(), f);
    std::fputc('\n', f);
    return std::fclose(f) == 0;
  }

 private:
  void open(char c) {
    comma();
    out_ += c;
    ++depth_;
    first_ = true;
  }
  void close(char c) {
    --depth_;
    newlineIndent();
    out_ += c;
    first_ = false;
  }
  void comma() {
    if (pendingValue_) {
      pendingValue_ = false;  // value directly follows its key
      return;
    }
    if (!first_ && depth_ > 0) out_ += ',';
    if (depth_ > 0) newlineIndent();
    first_ = false;
  }
  void newlineIndent() {
    out_ += '\n';
    out_.append(static_cast<std::size_t>(depth_) * 2, ' ');
  }
  void escape(const std::string& s) { appendJsonEscaped(out_, s); }

  std::string out_;
  int depth_ = 0;
  bool first_ = true;
  bool pendingValue_ = false;
};

/// Parsed JSON value (tree form).  Lookup helpers return nullptr / defaults
/// instead of throwing so validation code can accumulate what is missing.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool isObject() const { return kind == Kind::Object; }
  bool isArray() const { return kind == Kind::Array; }
  bool isNumber() const { return kind == Kind::Number; }

  /// Member access; nullptr when absent or not an object.
  const JsonValue* get(const std::string& k) const {
    if (kind != Kind::Object) return nullptr;
    auto it = object.find(k);
    return it == object.end() ? nullptr : &it->second;
  }

  /// Dotted-path access: get("a.b.c").
  const JsonValue* at(const std::string& path) const;
};

/// Parse a JSON document.  Throws confail::UsageError on malformed input.
JsonValue parseJson(const std::string& text);

}  // namespace confail::obs
