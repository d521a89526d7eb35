#include "sim/json_text.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace scidmz::sim {

namespace {

// printf into `out` for the fixed schema formats. The simulator never
// changes the C locale, so the decimal point is always '.'.
void appendFormatted(std::string& out, const char* fmt, double v) {
  char buf[352];  // "%.6f" of DBL_MAX needs 316 characters
  std::snprintf(buf, sizeof buf, fmt, v);
  out += buf;
}

}  // namespace

void appendJsonString(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void appendJsonNumber(std::string& out, double v) {
  if (v == 0.0) {
    out += "0";
    return;
  }
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.2233720368547758e18) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<std::int64_t>(v));
    out += buf;
    return;
  }
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  out += buf;
}

void appendJsonFixed6(std::string& out, double v) { appendFormatted(out, "%.6f", v); }

void appendJsonFixed3(std::string& out, double v) { appendFormatted(out, "%.3f", v); }

void appendJsonPrec10(std::string& out, double v) { appendFormatted(out, "%.10g", v); }

void appendJsonPrec17(std::string& out, double v) { appendFormatted(out, "%.17g", v); }

void appendJsonUint(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

}  // namespace scidmz::sim
