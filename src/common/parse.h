// Strict text-to-value parsing shared by every grammar and CLI flag.

#ifndef HOTSTUFF1_COMMON_PARSE_H_
#define HOTSTUFF1_COMMON_PARSE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hotstuff1 {

/// Strict non-negative integer parse of the whole string: plain digits only.
/// strtoll would silently accept leading whitespace and sign characters
/// ("+5", " 5", "\t5"), widening the grammar beyond what Format ever emits
/// and breaking the Parse/Format round-trip contract.
inline bool ParseNumber(std::string_view s, int64_t* out) {
  if (s.empty() || s.size() > 18) return false;  // 18 digits always fit int64
  int64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + (c - '0');
  }
  *out = v;
  return true;
}

/// Strict switch value: "true"/"1" or "false"/"0" (a bare `--flag` on the
/// command line arrives as "true").
inline bool ParseBool(std::string_view s, bool* out) {
  if (s == "true" || s == "1") {
    *out = true;
  } else if (s == "false" || s == "0") {
    *out = false;
  } else {
    return false;
  }
  return true;
}

/// Splits on every `sep`, keeping empty fields ("a;;b" -> {"a", "", "b"}).
inline std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      parts.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

}  // namespace hotstuff1

#endif  // HOTSTUFF1_COMMON_PARSE_H_
