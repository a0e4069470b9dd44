// Small string helpers shared by the profile-store parser and the reporters.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace versa {

/// Split on a delimiter; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char delim);

/// Strip ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// "1.50 GB", "8.00 MB", "512 B" — used by the transfer reports.
std::string format_bytes(double bytes);

/// "12.3 ms", "1.20 s", "45.0 us" — used by the profile dumps.
std::string format_duration(double seconds);

/// Fixed-precision double ("%.*f").
std::string format_double(double value, int precision);

}  // namespace versa
