#include "util/format.h"

#include <cctype>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace hrdm {

void AppendInt(std::string* out, int64_t v) {
  char buf[32];
  int n = std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out->append(buf, static_cast<size_t>(n));
}

void AppendDouble(std::string* out, double v) {
  char buf[64];
  int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Trim to the shortest representation that round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char probe[64];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
    double back = 0;
    std::sscanf(probe, "%lf", &back);
    if (back == v) {
      out->append(probe);
      return;
    }
  }
  out->append(buf, static_cast<size_t>(n));
}

std::string QuoteString(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string StrPrintf(const char* fmt, ...) {
  char buf[4096];
  va_list ap;
  va_start(ap, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n < 0) return {};
  return std::string(buf, std::min(static_cast<size_t>(n), sizeof(buf) - 1));
}

bool IsIdentifier(std::string_view s) {
  if (s.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_') {
    return false;
  }
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
}

}  // namespace hrdm
