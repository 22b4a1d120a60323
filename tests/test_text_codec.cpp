// core::TextWriter / core::TextReader: the codec every snapshot and WAL
// payload goes through. Doubles must print exactly as the iostream codec
// they replaced did (`ostream << setprecision(17)`), so files written before
// and after the switch are the same bytes, and must read back bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/text_codec.hpp"

namespace {

using prm::core::TextReader;
using prm::core::TextWriter;

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

double from_bits(std::uint64_t b) {
  double v = 0.0;
  std::memcpy(&v, &b, sizeof v);
  return v;
}

std::string via_ostream(double v) {
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

std::string via_writer(double v) {
  std::string out;
  TextWriter(out) << v;
  return out;
}

std::vector<double> edge_values() {
  using limits = std::numeric_limits<double>;
  return {0.0,
          -0.0,
          limits::denorm_min(),
          -limits::denorm_min(),
          from_bits(0x000fffffffffffffull),  // largest subnormal
          limits::min(),
          limits::max(),
          -limits::max(),
          limits::infinity(),
          -limits::infinity(),
          limits::quiet_NaN(),
          -limits::quiet_NaN(),
          1e16,
          1e17,
          -1e17,
          9007199254740993.0,
          123456789012345678.0,
          0.1,
          1.0 / 3.0,
          0.85,
          1e-5,
          1e-4,
          2.5e-300};
}

TEST(TextCodec, DoublesPrintAsTheOstreamAtPrecision17) {
  for (const double v : edge_values()) {
    EXPECT_EQ(via_writer(v), via_ostream(v)) << "bits " << std::hex << bits_of(v);
  }
  std::uint64_t x = 0x9e3779b97f4a7c15ull;  // splitmix64 over raw bit patterns
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    const double v = from_bits(z);
    ASSERT_EQ(via_writer(v), via_ostream(v)) << "bits " << std::hex << z;
  }
}

TEST(TextCodec, SpellsTheNonFiniteValuesAndSignedZero) {
  using limits = std::numeric_limits<double>;
  EXPECT_EQ(via_writer(limits::infinity()), "inf");
  EXPECT_EQ(via_writer(-limits::infinity()), "-inf");
  EXPECT_EQ(via_writer(limits::quiet_NaN()), "nan");
  EXPECT_EQ(via_writer(-limits::quiet_NaN()), "-nan");
  EXPECT_EQ(via_writer(-0.0), "-0");
  EXPECT_EQ(via_writer(1e17), "1e+17");
  EXPECT_EQ(via_writer(limits::denorm_min()), "4.9406564584124654e-324");
}

TEST(TextCodec, NumbersRoundTripBitForBit) {
  std::string text;
  TextWriter w(text);
  const std::vector<double> values = edge_values();
  for (const double v : values) w << v << ' ';
  TextReader in(text, "test");
  for (const double v : values) {
    const double back = in.number("value");
    if (std::isnan(v)) {
      EXPECT_TRUE(std::isnan(back));
      EXPECT_EQ(std::signbit(back), std::signbit(v));
    } else {
      EXPECT_EQ(bits_of(back), bits_of(v)) << via_ostream(v);
    }
  }
  EXPECT_EQ(in.remaining(), 1u);  // the trailing separator
}

TEST(TextCodec, IntegersAndListsRoundTrip) {
  std::string text;
  TextWriter w(text);
  w << "counts " << std::uint64_t{18446744073709551615ull} << ' ' << 2 << ' ' << 0u
    << '\n';
  w << "xs ";
  w.list(std::vector<double>{1.5, -0.0, 3.0});
  EXPECT_EQ(text, "counts 18446744073709551615 2 0\nxs 3 1.5 -0 3\n");

  TextReader in(text, "test");
  in.expect("counts");
  EXPECT_EQ(in.count("a"), 18446744073709551615ull);
  EXPECT_EQ(in.count("b"), 2u);
  EXPECT_EQ(in.count("c"), 0u);
  in.expect("xs");
  const std::vector<double> xs = in.list("xs");
  ASSERT_EQ(xs.size(), 3u);
  EXPECT_TRUE(std::signbit(xs[1]));
  EXPECT_EQ(in.remaining(), 1u);
}

TEST(TextCodec, RestOfLineKeepsInnerSpacesAndConsumesTheBreak) {
  TextReader in("rule  low water mark \nnext", "test");
  in.expect("rule");
  EXPECT_EQ(in.rest_of_line(), "low water mark ");
  EXPECT_EQ(in.token("key"), "next");
  EXPECT_EQ(in.rest_of_line(), "");
}

TEST(TextCodec, ReaderRefusesWhatTheWriterNeverWrites) {
  const auto refuses_number = [](const char* text) {
    TextReader in(text, "test");
    EXPECT_THROW(in.number("x"), std::runtime_error) << text;
  };
  refuses_number("");
  refuses_number("1.5x");
  refuses_number("+1");
  refuses_number("0x10");
  refuses_number("1e400");  // out of range
  refuses_number("--1");

  const auto refuses_count = [](const char* text) {
    TextReader in(text, "test");
    EXPECT_THROW(in.count("n"), std::runtime_error) << text;
  };
  refuses_count("-1");
  refuses_count("1.0");
  refuses_count("18446744073709551616");  // 2^64

  TextReader key("prm-fit 1", "test");
  EXPECT_THROW(key.expect("prm-live"), std::runtime_error);

  // A list may not claim more entries than the bytes left could hold, so a
  // corrupted count cannot make the loader allocate without bound.
  TextReader huge("1000000000 1 2", "test");
  EXPECT_THROW(huge.list("xs"), std::runtime_error);
}

TEST(TextCodec, ErrorsNameTheLoader) {
  TextReader in("prm-live x", "Monitor::load");
  in.expect("prm-live");
  try {
    in.count("format version");
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("Monitor::load: ", 0), 0u) << e.what();
  }
}

}  // namespace
