#include "confail/ingest/line_scan.hpp"

namespace confail::ingest {

namespace {

/// Digits the scanner reads as one number: 10^15 < 2^53, so the DOM's
/// double holds every such value exactly and both paths agree.
constexpr std::size_t kMaxDigits = 15;

bool pick(TextView name, TextView spelled, LineKey key, LineKey& out) {
  if (name != spelled) return false;
  out = key;
  return true;
}

/// A position in the line being scanned.
struct Cursor {
  const char* p;
  const char* end;

  void skipSpaces() {
    while (p != end && *p == ' ') ++p;
  }
  bool eat(char c) {
    if (p == end || *p != c) return false;
    ++p;
    return true;
  }
  bool eatWord(TextView word) {
    if (static_cast<std::size_t>(end - p) < word.size() ||
        TextView(p, word.size()) != word) {
      return false;
    }
    p += word.size();
    return true;
  }
};

/// The body of a string whose opening quote is consumed; false on an
/// escape or a missing closing quote.
bool scanString(Cursor& c, TextView& out) {
  const char* q = c.p;
  while (q != c.end && *q != '"') {
    if (*q == '\\') return false;
    ++q;
  }
  if (q == c.end) return false;
  out = TextView(c.p, static_cast<std::size_t>(q - c.p));
  c.p = q + 1;
  return true;
}

bool scanValue(Cursor& c, LineFields::Field& f) {
  if (c.p == c.end) return false;
  if (c.eat('"')) {
    f.type = LineFields::Type::String;
    return scanString(c, f.string);
  }
  if (*c.p >= '0' && *c.p <= '9') {
    const char* start = c.p;
    std::uint64_t n = 0;
    while (c.p != c.end && *c.p >= '0' && *c.p <= '9') {
      if (static_cast<std::size_t>(c.p - start) == kMaxDigits) return false;
      n = n * 10 + static_cast<std::uint64_t>(*c.p - '0');
      ++c.p;
    }
    f.type = LineFields::Type::Number;
    f.number = n;
    return true;
  }
  f.type = LineFields::Type::Bool;
  f.boolean = c.eatWord("true");
  return f.boolean || c.eatWord("false");
}

}  // namespace

bool lineKeyFromName(TextView n, LineKey& out) {
  using K = LineKey;
  switch (n.size()) {
    case 1: return pick(n, "t", K::T, out);
    case 3:
      return pick(n, "seq", K::Seq, out) || pick(n, "var", K::Var, out) ||
             pick(n, "aux", K::Aux, out);
    case 4: return pick(n, "kind", K::Kind, out);
    case 5:
      return pick(n, "child", K::Child, out) || pick(n, "value", K::Value, out);
    case 6:
      return pick(n, "thread", K::Thread, out) ||
             pick(n, "method", K::Method, out) ||
             pick(n, "var_id", K::VarId, out);
    case 7:
      return pick(n, "monitor", K::Monitor, out) ||
             pick(n, "waiters", K::Waiters, out);
    case 8: return pick(n, "child_id", K::ChildId, out);
    case 9: return pick(n, "method_id", K::MethodId, out);
    case 10: return pick(n, "method_ctx", K::MethodCtx, out);
    case 11: return pick(n, "thread_name", K::ThreadName, out);
    case 12:
      return pick(n, "monitor_name", K::MonitorName, out) ||
             pick(n, "guard_method", K::GuardMethod, out);
    case 15: return pick(n, "guard_method_id", K::GuardMethodId, out);
    default: return false;
  }
}

bool scanLine(TextView line, LineFields& out) {
  out.clear();
  Cursor c{line.data(), line.data() + line.size()};
  c.skipSpaces();
  if (!c.eat('{')) return false;
  c.skipSpaces();
  LineFields::Field ignored;  // the value of a key decoding does not use
  for (;;) {
    TextView name;
    if (!c.eat('"') || !scanString(c, name)) return false;
    c.skipSpaces();
    if (!c.eat(':')) return false;
    c.skipSpaces();
    LineKey key = LineKey::Seq;
    LineFields::Field* f = &ignored;
    if (lineKeyFromName(name, key) && (f = out.add(key)) == nullptr) {
      return false;  // a repeated key: the DOM decides which one wins
    }
    if (!scanValue(c, *f)) return false;
    c.skipSpaces();
    if (c.eat('}')) break;
    if (!c.eat(',')) return false;
    c.skipSpaces();
  }
  c.skipSpaces();
  return c.p == c.end;
}

}  // namespace confail::ingest
