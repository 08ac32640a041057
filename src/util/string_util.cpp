#include "util/string_util.h"

#include <cctype>
#include <cstdint>

namespace mate {

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = AsciiToLower(c);
  return out;
}

std::string NormalizeValue(std::string_view raw) {
  std::string out(Trim(raw));
  for (char& c : out) c = AsciiToLower(c);
  return out;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(s.substr(start));
      break;
    }
    parts.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool IsAllDigits(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

bool ParseSmallUint(std::string_view s, unsigned max, unsigned* out) {
  // Digit-count bound keeps the accumulator below 10^10 < 2^34, so the
  // uint64 arithmetic cannot wrap before the range check.
  if (!IsAllDigits(s) || s.size() > 10) return false;
  uint64_t value = 0;
  for (char c : s) value = value * 10 + static_cast<uint64_t>(c - '0');
  if (value > max) return false;
  *out = static_cast<unsigned>(value);
  return true;
}

Result<unsigned> ParseUintFlag(const std::string& flag,
                               const std::string& text, unsigned max) {
  unsigned value = 0;
  if (!ParseSmallUint(text, max, &value)) {
    return Status::InvalidArgument("--" + flag + " must be an integer in [0, " +
                                   std::to_string(max) + "], got '" + text +
                                   "'");
  }
  return value;
}

std::string FormatKeyCombo(const std::vector<std::string>& values) {
  return Join(values, "|");
}

}  // namespace mate
