#ifndef HRDM_UTIL_FORMAT_H_
#define HRDM_UTIL_FORMAT_H_

/// \file format.h
/// \brief Small string-building helpers used across HRDM.
///
/// The library deliberately avoids iostream in hot paths; these helpers
/// append into std::string buffers instead.

#include <cstdint>
#include <string>
#include <string_view>

namespace hrdm {

/// \brief Appends the decimal rendering of `v` to `out`.
void AppendInt(std::string* out, int64_t v);

/// \brief Appends the shortest round-trippable rendering of `v` to `out`.
void AppendDouble(std::string* out, double v);

/// \brief Quotes a string for HRQL / debug output: wraps in double quotes
/// and backslash-escapes `"` and `\`.
std::string QuoteString(std::string_view s);

/// \brief printf-style formatting into a std::string (bounded to 4 KiB).
std::string StrPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// \brief True if `s` consists only of ASCII letters, digits and '_' and
/// starts with a letter or '_': the lexical class of HRQL identifiers.
bool IsIdentifier(std::string_view s);

}  // namespace hrdm

#endif  // HRDM_UTIL_FORMAT_H_
