#include "common/env.h"

#include <cstdlib>
#include <string>

#include "common/errors.h"

namespace bcclb {

std::optional<std::uint64_t> parse_env_u64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (~0ULL - digit) / 10) return std::nullopt;  // would overflow
    value = value * 10 + digit;
  }
  return value;
}

std::optional<std::uint64_t> parse_mem_bytes(const char* text) {
  if (text == nullptr) return std::nullopt;
  std::string_view digits(text);
  std::uint64_t multiplier = 1;
  if (!digits.empty()) {
    const char suffix = digits.back();
    if (suffix == 'K' || suffix == 'M' || suffix == 'G') {
      multiplier = suffix == 'K' ? (1ULL << 10) : suffix == 'M' ? (1ULL << 20) : (1ULL << 30);
      digits.remove_suffix(1);
    }
  }
  const auto value = parse_env_u64(digits);
  if (!value || *value > UINT64_MAX / multiplier) return std::nullopt;
  return *value * multiplier;
}

std::optional<std::uint64_t> env_u64(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return std::nullopt;
  return parse_env_u64(raw);
}

std::optional<std::uint64_t> env_u64_required_valid(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return std::nullopt;
  const auto parsed = parse_env_u64(raw);
  if (!parsed) {
    throw BcclbError(std::string(name) + "=\"" + raw +
                     "\" is not a plain unsigned decimal (strict parse)");
  }
  return parsed;
}

std::optional<std::string_view> env_string(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return std::nullopt;
  return std::string_view(raw);
}

}  // namespace bcclb
