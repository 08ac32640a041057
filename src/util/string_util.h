// String helpers shared across the storage, hash, and workload layers.
// NormalizeValue defines the canonical cell-value form used both at indexing
// time and at query time, so equi-join semantics are consistent everywhere.

#ifndef MATE_UTIL_STRING_UTIL_H_
#define MATE_UTIL_STRING_UTIL_H_

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace mate {

/// True for the six ASCII whitespace bytes (space, \t, \n, \v, \f, \r) —
/// std::isspace in the C locale, without the libc call.
inline bool IsAsciiSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Folds 'A'..'Z' to 'a'..'z' and leaves every other byte alone —
/// std::tolower in the C locale, without the libc call. The one case fold
/// of index-time normalization and query-time verification.
inline char AsciiToLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// ASCII-lowercases a copy of `s`.
std::string ToLower(std::string_view s);

/// Strips leading/trailing ASCII whitespace.
inline std::string_view Trim(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && IsAsciiSpace(s[begin])) ++begin;
  while (end > begin && IsAsciiSpace(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

/// Canonical form of a cell value for indexing and joining: trimmed and
/// ASCII-lowercased (the paper's corpora are case-folded the same way).
std::string NormalizeValue(std::string_view raw);

/// NormalizeValue for bulk scans, copying only when it must: `raw` itself
/// when it is already canonical (no leading or trailing whitespace, no
/// upper-case byte), else the canonical form written to `*buffer`. The
/// view lives while `raw`'s bytes and `*buffer`'s contents do.
inline std::string_view NormalizedView(std::string_view raw,
                                       std::string* buffer) {
  const bool padded = !raw.empty() && (IsAsciiSpace(raw.front()) ||
                                       IsAsciiSpace(raw.back()));
  if (!padded && std::none_of(raw.begin(), raw.end(), [](char c) {
        return c >= 'A' && c <= 'Z';
      })) {
    return raw;
  }
  buffer->assign(Trim(raw));
  for (char& c : *buffer) c = AsciiToLower(c);
  return *buffer;
}

/// Splits on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` consists only of ASCII digits (and is non-empty).
bool IsAllDigits(std::string_view s);

/// Strict parse of a small non-negative integer flag: digits only, no sign,
/// value <= `max`. Returns false (leaving *out untouched) on garbage,
/// overflow, or out-of-range input — never throws. Shared by the CLI and
/// bench flag parsers so validation policy cannot drift between them.
bool ParseSmallUint(std::string_view s, unsigned max, unsigned* out);

/// ParseSmallUint for the value `text` of command-line flag `--flag`:
/// InvalidArgument naming the flag, the accepted range and `text` on
/// failure. The one flag parser of mate_cli and mate_server.
Result<unsigned> ParseUintFlag(const std::string& flag,
                               const std::string& text, unsigned max);

/// True iff NormalizeValue(raw) == normalized, computed without allocating.
/// `normalized` must already be in canonical form. This is the exact-match
/// predicate of the joinability verification hot path.
inline bool NormalizedEquals(std::string_view normalized,
                             std::string_view raw) {
  const std::string_view trimmed = Trim(raw);
  if (trimmed.size() != normalized.size()) return false;
  for (size_t i = 0; i < trimmed.size(); ++i) {
    if (AsciiToLower(trimmed[i]) != normalized[i]) return false;
  }
  return true;
}

/// Printable "a|b|c" rendering of a composite key, used in examples/benches.
std::string FormatKeyCombo(const std::vector<std::string>& values);

}  // namespace mate

#endif  // MATE_UTIL_STRING_UTIL_H_
