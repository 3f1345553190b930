// The JSONL decode fast path: a strict single-pass scanner for flat v2
// event lines, and the LineFields record both decode paths fill.
//
// scanLine() accepts exactly the lines obs::toJsonl writes today:
//
//   { "key": value, "key": value, ... }
//
// where the only whitespace is ' ', every value is an unsigned integer of
// at most 15 digits (exact in the DOM's doubles too), a string with no
// escapes, or true/false, and no known key repeats.  It walks the line
// once, records string values as views into it and allocates nothing (the
// build-time allocation audit covers its TU).  Anything else — escapes,
// floats, exponents, signs, longer numbers, null, nested values, tabs or
// other whitespace, a repeated key, an empty object, a torn line — makes
// it answer "not mine" (false), and the decoder hands the line to the
// obs::parseJson DOM, which remains the reference semantics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace confail::ingest {

/// The scanner's text type.  Its TU spells only this alias: the allocation
/// audit's `std::string` pattern cannot tell a view from an owning string.
using TextView = std::string_view;

/// The keys of a JSONL event line (schemas v1 and v2; see decode.hpp).
enum class LineKey : std::uint8_t {
  Seq,
  Kind,
  Thread,
  ThreadName,
  Monitor,
  MonitorName,
  MethodCtx,
  Method,
  VarId,
  Var,
  Waiters,
  ChildId,
  Child,
  GuardMethodId,
  GuardMethod,
  Value,
  MethodId,
  T,
  Aux,
};
inline constexpr std::size_t kLineKeys = 19;

/// The key spelled `name` on the wire; false for a key decoding ignores.
bool lineKeyFromName(TextView name, LineKey& out);

/// One event line, flattened: the typed value of each known key present.
/// String values are views into the line (or into the DOM that parsed it),
/// valid while that text lives.
class LineFields {
 public:
  enum class Type : std::uint8_t { Number, String, Bool, Other };
  struct Field {
    Type type = Type::Other;
    bool boolean = false;
    std::uint64_t number = 0;
    TextView string;
  };

  void clear() { present_ = 0; }

  /// The slot for `k`, marked present; null when `k` is already present.
  Field* add(LineKey k) {
    const std::uint32_t bit = 1u << static_cast<unsigned>(k);
    if ((present_ & bit) != 0) return nullptr;
    present_ |= bit;
    return &fields_[static_cast<std::size_t>(k)];
  }

  /// The value of `k` when present with that type, else null.
  const std::uint64_t* number(LineKey k) const {
    const Field* f = get(k, Type::Number);
    return f != nullptr ? &f->number : nullptr;
  }
  const TextView* string(LineKey k) const {
    const Field* f = get(k, Type::String);
    return f != nullptr ? &f->string : nullptr;
  }
  const bool* boolean(LineKey k) const {
    const Field* f = get(k, Type::Bool);
    return f != nullptr ? &f->boolean : nullptr;
  }

 private:
  const Field* get(LineKey k, Type t) const {
    const Field& f = fields_[static_cast<std::size_t>(k)];
    return (present_ >> static_cast<unsigned>(k) & 1u) != 0 && f.type == t
               ? &f
               : nullptr;
  }

  std::uint32_t present_ = 0;
  Field fields_[kLineKeys];
};

/// Scan one line (no trailing newline) into `out`.  True when the line is
/// in the scanner's subset; false ("not mine") leaves `out` unspecified
/// and the line to the DOM path.
bool scanLine(TextView line, LineFields& out);

}  // namespace confail::ingest
