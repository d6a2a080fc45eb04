// Typed environment-variable lookup used by benches and examples so runs
// can be parameterized without recompiling (e.g. PARSVD_RANKS=8).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace parsvd::env {

/// Raw lookup; nullopt when unset.
std::optional<std::string> get(const std::string& name);

/// Parse as int64; returns fallback when unset or malformed.
std::int64_t get_int(const std::string& name, std::int64_t fallback);

/// Parse `value`, the text of variable `name` (nullopt when unset), as a
/// count in [1, cap]. Returns fallback when unset, malformed or below 1;
/// throws ConfigError naming `name` when the count exceeds `cap`, so a
/// typo cannot ask for a million threads or buffer slots.
std::int64_t parse_count(const std::string& name,
                         const std::optional<std::string>& value,
                         std::int64_t fallback, std::int64_t cap);

/// parse_count on the environment variable `name`.
std::int64_t get_count(const std::string& name, std::int64_t fallback,
                       std::int64_t cap);

/// Parse as double; returns fallback when unset or malformed.
double get_double(const std::string& name, double fallback);

/// Returns fallback when unset; "1/true/yes/on" → true (case-insensitive).
bool get_bool(const std::string& name, bool fallback);

/// String with fallback.
std::string get_string(const std::string& name, const std::string& fallback);

}  // namespace parsvd::env
