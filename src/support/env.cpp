#include "support/env.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "support/error.hpp"

namespace parsvd::env {
namespace {

std::optional<std::int64_t> parse_int(const std::string& text) {
  char* end = nullptr;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') return std::nullopt;
  return static_cast<std::int64_t>(parsed);
}

}  // namespace

std::optional<std::string> get(const std::string& name) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr) return std::nullopt;
  return std::string(v);
}

std::int64_t get_int(const std::string& name, std::int64_t fallback) {
  const auto v = get(name);
  if (!v) return fallback;
  return parse_int(*v).value_or(fallback);
}

std::int64_t parse_count(const std::string& name,
                         const std::optional<std::string>& value,
                         std::int64_t fallback, std::int64_t cap) {
  if (!value) return fallback;
  const std::optional<std::int64_t> parsed = parse_int(*value);
  if (!parsed || *parsed < 1) return fallback;
  if (*parsed > cap) {
    throw ConfigError(name + "=" + *value + " exceeds the limit of " +
                      std::to_string(cap));
  }
  return *parsed;
}

std::int64_t get_count(const std::string& name, std::int64_t fallback,
                       std::int64_t cap) {
  return parse_count(name, get(name), fallback, cap);
}

double get_double(const std::string& name, double fallback) {
  const auto v = get(name);
  if (!v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0') return fallback;
  return parsed;
}

bool get_bool(const std::string& name, bool fallback) {
  const auto v = get(name);
  if (!v) return fallback;
  std::string lower = *v;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "1" || lower == "true" || lower == "yes" || lower == "on") return true;
  if (lower == "0" || lower == "false" || lower == "no" || lower == "off") return false;
  return fallback;
}

std::string get_string(const std::string& name, const std::string& fallback) {
  const auto v = get(name);
  return v ? *v : fallback;
}

}  // namespace parsvd::env
