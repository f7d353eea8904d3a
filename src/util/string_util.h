#ifndef CHRONOLOG_UTIL_STRING_UTIL_H_
#define CHRONOLOG_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace chronolog {

/// Joins `parts` with `sep` ("a", "b" -> "a,b").
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` consists solely of ASCII decimal digits (and is non-empty).
bool IsAllDigits(std::string_view s);

/// Parses a non-negative decimal integer; returns false on overflow or
/// malformed input.
bool ParseUint64(std::string_view s, uint64_t* out);

/// Escapes `s` for embedding in a JSON string literal (quotes, backslashes,
/// control characters). Does not add the surrounding quotes.
std::string JsonEscape(std::string_view s);

/// Renders `v` in shortest round-trip decimal form with `.` as the decimal
/// separator regardless of the process locale — safe to splice into JSON,
/// unlike std::to_string/printf, which honor LC_NUMERIC (a German locale
/// renders `0.5` as `0,5` and corrupts the document). Non-finite values
/// (which JSON cannot carry) render as "0".
std::string FormatDouble(double v);

/// Renders `v` with six significant digits, byte-identical to
/// `printf("%.6g")` in the C locale but independent of the process locale.
/// Non-finite values render as "0". The metrics, statement-statistics and
/// log exporters format their numbers with it.
std::string FormatSignificant(double v);

}  // namespace chronolog

#endif  // CHRONOLOG_UTIL_STRING_UTIL_H_
