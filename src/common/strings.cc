#include "common/strings.h"

#include <cstdarg>
#include <cstdio>

namespace mmm {

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> Split(std::string_view input, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == sep) {
      out.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool StartsWith(std::string_view input, std::string_view prefix) {
  return input.size() >= prefix.size() && input.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view input, std::string_view suffix) {
  return input.size() >= suffix.size() &&
         input.substr(input.size() - suffix.size()) == suffix;
}

std::string HexEncode(std::span<const uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(bytes.size() * 2, '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    out[2 * i] = kDigits[bytes[i] >> 4];
    out[2 * i + 1] = kDigits[bytes[i] & 0xf];
  }
  return out;
}

namespace {
int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

bool HexDecode(std::string_view hex, std::vector<uint8_t>* out) {
  if (hex.size() % 2 != 0) return false;
  out->clear();
  out->reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexNibble(hex[i]);
    int lo = HexNibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return true;
}

std::string HumanBytes(uint64_t bytes) {
  static constexpr const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double value = static_cast<double>(bytes);
  size_t unit = 0;
  while (value >= 1024.0 && unit + 1 < std::size(kUnits)) {
    value /= 1024.0;
    ++unit;
  }
  if (unit == 0) return StringFormat("%llu B", static_cast<unsigned long long>(bytes));
  return StringFormat("%.2f %s", value, kUnits[unit]);
}

std::string HumanSeconds(double seconds) {
  if (seconds >= 1.0) return StringFormat("%.3f s", seconds);
  if (seconds >= 1e-3) return StringFormat("%.3f ms", seconds * 1e3);
  return StringFormat("%.3f us", seconds * 1e6);
}

std::string StringFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace mmm
