// Test-only seeded mutations of one-line JSON objects in the `{ "k": v, ...
// }` layout the JSONL exporter writes: the catalogue a parser of outside
// input must survive.  Shared by the JSONL decoder tests and the job-spec
// parser test.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "confail/support/rng.hpp"

namespace confail::json_mutation {

/// Offsets just past each `": ` that starts a value of the given first
/// character class.
inline std::vector<std::size_t> valueStarts(const std::string& line,
                                            bool digits) {
  std::vector<std::size_t> at;
  for (std::size_t p = line.find("\": "); p != std::string::npos;
       p = line.find("\": ", p + 1)) {
    const std::size_t v = p + 3;
    if (v >= line.size()) continue;
    const bool isDigit = line[v] >= '0' && line[v] <= '9';
    if (isDigit == digits && (digits || line[v] == '"')) at.push_back(v);
  }
  return at;
}

/// One seeded mutation of `line` from the catalogue the decoder must
/// survive: truncation, a flipped byte, a repeated key, escapes, numbers
/// outside the scanner's subset, tabs, unknown nested values.
inline std::string mutate(const std::string& line, SplitMix64& rng) {
  std::string m = line;
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next() % n);
  };
  switch (rng.next() % 7) {
    case 0:  // truncate
      m.resize(pick(m.size()));
      break;
    case 1:  // flip one byte
      m[pick(m.size())] ^= static_cast<char>(1u << pick(8));
      break;
    case 2: {  // duplicate a key: first with another value, or a copy last
      const std::size_t open = m.find('"');
      if (open == std::string::npos) break;
      const std::string member = m.substr(open, m.find(", \"") - open);
      const std::string key = member.substr(0, member.find(": "));
      if (rng.next() % 2 == 0) {
        m.insert(open, key + ": " + std::to_string(pick(9)) + ", ");
      } else if (const std::size_t close = m.rfind(" }");
                 close != std::string::npos) {
        m.insert(close, ", " + member);
      }
      break;
    }
    case 3: {  // an escape inside a string value
      const std::vector<std::size_t> at = valueStarts(m, false);
      if (at.empty()) break;
      m.insert(at[pick(at.size())] + 1, rng.next() % 2 == 0 ? "\\\"" : "\\\\");
      break;
    }
    case 4: {  // a number the scanner must not claim (or must narrow alike)
      const std::vector<std::size_t> at = valueStarts(m, true);
      if (at.empty()) break;
      const std::size_t v = at[pick(at.size())];
      std::size_t e = v;
      while (e < m.size() && m[e] >= '0' && m[e] <= '9') ++e;
      static const char* const kNumbers[] = {"1e3", "-1", "4294967296",
                                             "12345678901234567890"};
      m.replace(v, e - v, kNumbers[pick(4)]);
      break;
    }
    case 5:  // tabs for spaces
      std::replace(m.begin(), m.end(), ' ', '\t');
      break;
    default: {  // an unknown key with a nested value
      const char* nested = rng.next() % 2 == 0 ? "{ \"a\": [1, 2] }"
                                                : "[ { \"b\": true }, 3 ]";
      const std::size_t open = m.find('"');
      if (open == std::string::npos) break;
      m.insert(open, std::string("\"extra\": ") + nested + ", ");
      break;
    }
  }
  return m;
}

}  // namespace confail::json_mutation
