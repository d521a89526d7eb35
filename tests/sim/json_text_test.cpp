// Tests for the shared JSON text writers: every control byte's escape, the
// two characters that always need a backslash, UTF-8 passthrough, and each
// schema-pinned number format at zero, a negative value, an integer above
// 2^53, and a value that needs 17 significant digits.
#include "sim/json_text.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

namespace scidmz::sim {
namespace {

std::string escaped(std::string_view s) {
  std::string out;
  appendJsonString(out, s);
  return out;
}

TEST(JsonText, EveryControlByteIsEscaped) {
  const char* expected[0x20] = {
      "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
      "\\b",     "\\t",     "\\n",     "\\u000b", "\\f",     "\\r",     "\\u000e", "\\u000f",
      "\\u0010", "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017",
      "\\u0018", "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f"};
  for (int byte = 0; byte < 0x20; ++byte) {
    const std::string in(1, static_cast<char>(byte));
    EXPECT_EQ(escaped(in), std::string("\"") + expected[byte] + "\"") << "byte " << byte;
  }
}

TEST(JsonText, QuoteAndBackslashGetABackslash) {
  EXPECT_EQ(escaped("\""), "\"\\\"\"");
  EXPECT_EQ(escaped("\\"), "\"\\\\\"");
  EXPECT_EQ(escaped("a\"b\\c"), "\"a\\\"b\\\\c\"");
}

TEST(JsonText, PrintableAndHighBytesPassThrough) {
  EXPECT_EQ(escaped(""), "\"\"");
  EXPECT_EQ(escaped(" ~/lbl-pt1/if0"), "\" ~/lbl-pt1/if0\"");
  std::string high;
  for (int byte = 0x80; byte <= 0xff; ++byte) high.push_back(static_cast<char>(byte));
  EXPECT_EQ(escaped(high), "\"" + high + "\"");
  EXPECT_EQ(escaped("caf\xc3\xa9"), "\"caf\xc3\xa9\"");
  EXPECT_EQ(escaped(std::string_view("a\0b", 3)), "\"a\\u0000b\"");
}

struct NumberCase {
  const char* label;
  void (*append)(std::string&, double);
  double value;
  const char* expected;
};

constexpr double kZero = 0.0;
constexpr double kNegative = -2.5;
constexpr double kAbove2To53 = 9007199254740994.0;  // 2^53 + 2, exactly representable
constexpr double kSeventeenDigits = 0.1 + 0.2;      // 0.30000000000000004

TEST(JsonText, EachNumberFormatIsPinned) {
  const NumberCase cases[] = {
      {"shortest", appendJsonNumber, kZero, "0"},
      {"shortest", appendJsonNumber, kNegative, "-2.5"},
      {"shortest", appendJsonNumber, kAbove2To53, "9007199254740994"},
      {"shortest", appendJsonNumber, kSeventeenDigits, "0.30000000000000004"},
      {"fixed6", appendJsonFixed6, kZero, "0.000000"},
      {"fixed6", appendJsonFixed6, kNegative, "-2.500000"},
      {"fixed6", appendJsonFixed6, kAbove2To53, "9007199254740994.000000"},
      {"fixed6", appendJsonFixed6, kSeventeenDigits, "0.300000"},
      {"fixed3", appendJsonFixed3, kZero, "0.000"},
      {"fixed3", appendJsonFixed3, kNegative, "-2.500"},
      {"fixed3", appendJsonFixed3, kAbove2To53, "9007199254740994.000"},
      {"fixed3", appendJsonFixed3, kSeventeenDigits, "0.300"},
      {"prec10", appendJsonPrec10, kZero, "0"},
      {"prec10", appendJsonPrec10, kNegative, "-2.5"},
      {"prec10", appendJsonPrec10, kAbove2To53, "9.007199255e+15"},
      {"prec10", appendJsonPrec10, kSeventeenDigits, "0.3"},
      {"prec17", appendJsonPrec17, kZero, "0"},
      {"prec17", appendJsonPrec17, kNegative, "-2.5"},
      {"prec17", appendJsonPrec17, kAbove2To53, "9007199254740994"},
      {"prec17", appendJsonPrec17, kSeventeenDigits, "0.30000000000000004"},
  };
  for (const auto& c : cases) {
    std::string out = "x";  // appends, never overwrites
    c.append(out, c.value);
    EXPECT_EQ(out, std::string("x") + c.expected) << c.label << " of " << c.value;
  }
}

TEST(JsonText, UnsignedIntegersAreExact) {
  // No negative case: the writer takes std::uint64_t.
  const std::pair<std::uint64_t, const char*> cases[] = {
      {0, "0"},
      {9007199254740993ULL, "9007199254740993"},  // 2^53 + 1: not a double
      {std::numeric_limits<std::uint64_t>::max(), "18446744073709551615"},
  };
  for (const auto& [value, expected] : cases) {
    std::string out;
    appendJsonUint(out, value);
    EXPECT_EQ(out, expected);
  }
}

TEST(JsonText, ShortestFormRoundTripsThroughStrtod) {
  for (const double v : {1e-300, 123456.789, -1.0 / 3.0, 6.02214076e23, 1e300}) {
    std::string out;
    appendJsonNumber(out, v);
    EXPECT_EQ(std::strtod(out.c_str(), nullptr), v) << out;
  }
}

}  // namespace
}  // namespace scidmz::sim
