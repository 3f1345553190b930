#include "confail/obs/json.hpp"

#include <cctype>

#include "confail/support/assert.hpp"

namespace confail::obs {

const JsonValue* JsonValue::at(const std::string& path) const {
  const JsonValue* cur = this;
  std::size_t start = 0;
  while (start <= path.size()) {
    std::size_t dot = path.find('.', start);
    std::string part = path.substr(
        start, dot == std::string::npos ? std::string::npos : dot - start);
    cur = cur->get(part);
    if (cur == nullptr) return nullptr;
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  return cur;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  JsonValue document() {
    JsonValue v = value();
    skipWs();
    CONFAIL_CHECK(pos_ == s_.size(), UsageError,
                  "json: trailing content at offset " + std::to_string(pos_));
    return v;
  }

 private:
  void skipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    skipWs();
    CONFAIL_CHECK(pos_ < s_.size(), UsageError, "json: unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    CONFAIL_CHECK(peek() == c, UsageError,
                  std::string("json: expected '") + c + "' at offset " +
                      std::to_string(pos_));
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < s_.size() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        v.string = string();
        return v;
      }
      case 't':
      case 'f': return boolean();
      case 'n': {
        literal("null");
        return JsonValue{};
      }
      default: return number();
    }
  }

  void literal(const char* word) {
    skipWs();
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      CONFAIL_CHECK(pos_ < s_.size() && s_[pos_] == *p, UsageError,
                    std::string("json: bad literal, expected ") + word);
    }
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::Bool;
    if (peek() == 't') {
      literal("true");
      v.boolean = true;
    } else {
      literal("false");
      v.boolean = false;
    }
    return v;
  }

  JsonValue number() {
    skipWs();
    std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    CONFAIL_CHECK(pos_ > start, UsageError,
                  "json: expected a value at offset " + std::to_string(start));
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    try {
      v.number = std::stod(s_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      throw UsageError("json: bad number at offset " + std::to_string(start));
    }
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      // Copy the run up to the next quote or escape in one append.
      std::size_t end = pos_;
      while (end < s_.size() && s_[end] != '"' && s_[end] != '\\') ++end;
      out.append(s_, pos_, end - pos_);
      pos_ = end;
      CONFAIL_CHECK(pos_ < s_.size(), UsageError,
                    "json: unterminated string");
      if (s_[pos_++] == '"') break;
      CONFAIL_CHECK(pos_ < s_.size(), UsageError,
                    "json: dangling escape at end of input");
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        default:
          throw UsageError(std::string("json: unsupported escape \\") + esc);
      }
    }
    return out;
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    if (consume('}')) return v;
    while (true) {
      std::string k = string();
      expect(':');
      v.object.emplace(std::move(k), value());
      if (consume('}')) break;
      expect(',');
    }
    return v;
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    if (consume(']')) return v;
    while (true) {
      v.array.push_back(value());
      if (consume(']')) break;
      expect(',');
    }
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parseJson(const std::string& text) { return Parser(text).document(); }

}  // namespace confail::obs
