// Tests for util::BigInt — the arbitrary-precision substrate everything
// exact in this library rests on.
#include "util/bigint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <sstream>

namespace ddm::util {
namespace {

TEST(BigInt, DefaultConstructedIsZero) {
  const BigInt zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_FALSE(zero.is_negative());
  EXPECT_EQ(zero.signum(), 0);
  EXPECT_EQ(zero.to_string(), "0");
  EXPECT_EQ(zero.bit_length(), 0u);
}

TEST(BigInt, ConstructFromInt64) {
  EXPECT_EQ(BigInt{42}.to_string(), "42");
  EXPECT_EQ(BigInt{-42}.to_string(), "-42");
  EXPECT_EQ(BigInt{0}.to_string(), "0");
  EXPECT_EQ(BigInt{std::numeric_limits<std::int64_t>::max()}.to_string(),
            "9223372036854775807");
  EXPECT_EQ(BigInt{std::numeric_limits<std::int64_t>::min()}.to_string(),
            "-9223372036854775808");
}

TEST(BigInt, Int64RoundTrip) {
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1}, std::int64_t{123456789},
        std::int64_t{-987654321012345678}, std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min()}) {
    EXPECT_TRUE(BigInt{v}.fits_int64());
    EXPECT_EQ(BigInt{v}.to_int64(), v);
  }
}

TEST(BigInt, ToInt64ThrowsWhenTooLarge) {
  const BigInt huge{"9223372036854775808"};  // INT64_MAX + 1
  EXPECT_FALSE(huge.fits_int64());
  EXPECT_THROW((void)huge.to_int64(), std::overflow_error);
  // But INT64_MIN itself fits.
  EXPECT_EQ(BigInt{"-9223372036854775808"}.to_int64(),
            std::numeric_limits<std::int64_t>::min());
}

TEST(BigInt, DecimalStringRoundTrip) {
  const char* cases[] = {"0",
                         "7",
                         "-7",
                         "4294967295",
                         "4294967296",
                         "18446744073709551615",
                         "18446744073709551616",
                         "340282366920938463463374607431768211456",
                         "-99999999999999999999999999999999999999999999"};
  for (const char* s : cases) {
    EXPECT_EQ(BigInt{s}.to_string(), s) << s;
  }
}

TEST(BigInt, ParseAcceptsLeadingPlusAndZeros) {
  EXPECT_EQ(BigInt{"+17"}.to_string(), "17");
  EXPECT_EQ(BigInt{"00017"}.to_string(), "17");
  EXPECT_EQ(BigInt{"-000"}.to_string(), "0");
  EXPECT_FALSE(BigInt{"-0"}.is_negative());
}

TEST(BigInt, ParseRejectsMalformedInput) {
  EXPECT_THROW(BigInt{""}, std::invalid_argument);
  EXPECT_THROW(BigInt{"-"}, std::invalid_argument);
  EXPECT_THROW(BigInt{"12a3"}, std::invalid_argument);
  EXPECT_THROW(BigInt{" 12"}, std::invalid_argument);
  EXPECT_THROW(BigInt{"1 2"}, std::invalid_argument);
}

TEST(BigInt, AdditionBasic) {
  EXPECT_EQ((BigInt{2} + BigInt{3}).to_string(), "5");
  EXPECT_EQ((BigInt{-2} + BigInt{3}).to_string(), "1");
  EXPECT_EQ((BigInt{2} + BigInt{-3}).to_string(), "-1");
  EXPECT_EQ((BigInt{-2} + BigInt{-3}).to_string(), "-5");
  EXPECT_EQ((BigInt{5} + BigInt{-5}).to_string(), "0");
}

TEST(BigInt, AdditionCarryAcrossLimbs) {
  const BigInt a{"4294967295"};  // 2^32 - 1
  EXPECT_EQ((a + BigInt{1}).to_string(), "4294967296");
  const BigInt b{"18446744073709551615"};  // 2^64 - 1
  EXPECT_EQ((b + BigInt{1}).to_string(), "18446744073709551616");
}

TEST(BigInt, SubtractionBasic) {
  EXPECT_EQ((BigInt{10} - BigInt{3}).to_string(), "7");
  EXPECT_EQ((BigInt{3} - BigInt{10}).to_string(), "-7");
  EXPECT_EQ((BigInt{-3} - BigInt{-10}).to_string(), "7");
  EXPECT_EQ((BigInt{3} - BigInt{3}).to_string(), "0");
}

TEST(BigInt, SubtractionBorrowAcrossLimbs) {
  const BigInt a{"18446744073709551616"};  // 2^64
  EXPECT_EQ((a - BigInt{1}).to_string(), "18446744073709551615");
}

TEST(BigInt, MultiplicationBasic) {
  EXPECT_EQ((BigInt{6} * BigInt{7}).to_string(), "42");
  EXPECT_EQ((BigInt{-6} * BigInt{7}).to_string(), "-42");
  EXPECT_EQ((BigInt{-6} * BigInt{-7}).to_string(), "42");
  EXPECT_EQ((BigInt{0} * BigInt{12345}).to_string(), "0");
}

TEST(BigInt, MultiplicationLarge) {
  // (2^64 - 1)^2 = 2^128 - 2^65 + 1
  const BigInt a{"18446744073709551615"};
  EXPECT_EQ((a * a).to_string(), "340282366920938463426481119284349108225");
}

TEST(BigInt, DivisionBasic) {
  EXPECT_EQ((BigInt{42} / BigInt{7}).to_string(), "6");
  EXPECT_EQ((BigInt{43} / BigInt{7}).to_string(), "6");
  EXPECT_EQ((BigInt{43} % BigInt{7}).to_string(), "1");
  EXPECT_EQ((BigInt{-43} / BigInt{7}).to_string(), "-6");   // truncation toward zero
  EXPECT_EQ((BigInt{-43} % BigInt{7}).to_string(), "-1");   // sign follows dividend
  EXPECT_EQ((BigInt{43} / BigInt{-7}).to_string(), "-6");
  EXPECT_EQ((BigInt{43} % BigInt{-7}).to_string(), "1");
}

TEST(BigInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt{1} / BigInt{0}, std::domain_error);
  EXPECT_THROW(BigInt{1} % BigInt{0}, std::domain_error);
}

TEST(BigInt, DivisionMultiLimbKnuth) {
  const BigInt dividend{"340282366920938463463374607431768211456"};  // 2^128
  const BigInt divisor{"18446744073709551616"};                      // 2^64
  auto [q, r] = BigInt::div_mod(dividend, divisor);
  EXPECT_EQ(q.to_string(), "18446744073709551616");
  EXPECT_TRUE(r.is_zero());
}

TEST(BigInt, DivisionIdentityRandomized) {
  // a == (a / b) * b + (a % b) for random multi-limb operands.
  std::mt19937_64 gen{12345};
  for (int iter = 0; iter < 300; ++iter) {
    std::string a_digits;
    std::string b_digits;
    const int a_len = 1 + static_cast<int>(gen() % 40);
    const int b_len = 1 + static_cast<int>(gen() % 20);
    for (int i = 0; i < a_len; ++i) a_digits.push_back(static_cast<char>('0' + gen() % 10));
    for (int i = 0; i < b_len; ++i) b_digits.push_back(static_cast<char>('0' + gen() % 10));
    BigInt a{a_digits};
    BigInt b{b_digits};
    if (b.is_zero()) b = BigInt{1};
    if (gen() % 2) a = -a;
    if (gen() % 2) b = -b;
    const auto [q, r] = BigInt::div_mod(a, b);
    EXPECT_EQ(q * b + r, a) << a << " / " << b;
    EXPECT_TRUE(r.abs() < b.abs());
    // Remainder sign follows the dividend.
    if (!r.is_zero()) {
      EXPECT_EQ(r.signum(), a.signum());
    }
  }
}

TEST(BigInt, ArithmeticMatchesInt128Oracle) {
  std::mt19937_64 gen{777};
  const auto to_string_128 = [](__int128 v) {
    if (v == 0) return std::string{"0"};
    const bool neg = v < 0;
    unsigned __int128 mag = neg ? -static_cast<unsigned __int128>(v) : v;
    std::string s;
    while (mag != 0) {
      s.push_back(static_cast<char>('0' + static_cast<int>(mag % 10)));
      mag /= 10;
    }
    if (neg) s.push_back('-');
    std::reverse(s.begin(), s.end());
    return s;
  };
  for (int iter = 0; iter < 500; ++iter) {
    const std::int64_t x = static_cast<std::int64_t>(gen());
    const std::int64_t y = static_cast<std::int64_t>(gen());
    const BigInt bx{x};
    const BigInt by{y};
    EXPECT_EQ((bx + by).to_string(),
              to_string_128(static_cast<__int128>(x) + static_cast<__int128>(y)));
    EXPECT_EQ((bx - by).to_string(),
              to_string_128(static_cast<__int128>(x) - static_cast<__int128>(y)));
    EXPECT_EQ((bx * by).to_string(),
              to_string_128(static_cast<__int128>(x) * static_cast<__int128>(y)));
    if (y != 0) {
      EXPECT_EQ((bx / by).to_string(),
                to_string_128(static_cast<__int128>(x) / static_cast<__int128>(y)));
      EXPECT_EQ((bx % by).to_string(),
                to_string_128(static_cast<__int128>(x) % static_cast<__int128>(y)));
    }
  }
}

TEST(BigInt, KaratsubaMatchesSchoolbookOnLargeOperands) {
  // Operands above the Karatsuba threshold (32 limbs = 1024 bits) exercise
  // the recursive path; verify via the division identity and a squared
  // binomial: (a+b)^2 == a^2 + 2ab + b^2.
  std::mt19937_64 gen{2024};
  for (int iter = 0; iter < 20; ++iter) {
    std::string a_digits(400, '0');
    std::string b_digits(380, '0');
    for (char& c : a_digits) c = static_cast<char>('0' + gen() % 10);
    for (char& c : b_digits) c = static_cast<char>('0' + gen() % 10);
    a_digits[0] = '1';
    b_digits[0] = '1';
    const BigInt a{a_digits};
    const BigInt b{b_digits};
    const BigInt lhs = (a + b) * (a + b);
    const BigInt rhs = a * a + BigInt{2} * a * b + b * b;
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(BigInt, Comparison) {
  EXPECT_LT(BigInt{-5}, BigInt{-4});
  EXPECT_LT(BigInt{-1}, BigInt{0});
  EXPECT_LT(BigInt{0}, BigInt{1});
  EXPECT_LT(BigInt{"99999999999999999998"}, BigInt{"99999999999999999999"});
  EXPECT_LT(BigInt{"-99999999999999999999"}, BigInt{"-99999999999999999998"});
  EXPECT_LT(BigInt{"999"}, BigInt{"1000"});
  EXPECT_EQ(BigInt{"123"}, BigInt{123});
}

TEST(BigInt, Negation) {
  EXPECT_EQ((-BigInt{5}).to_string(), "-5");
  EXPECT_EQ((-BigInt{-5}).to_string(), "5");
  EXPECT_EQ((-BigInt{0}).to_string(), "0");
  EXPECT_FALSE((-BigInt{0}).is_negative());
}

TEST(BigInt, Abs) {
  EXPECT_EQ(BigInt{-123}.abs().to_string(), "123");
  EXPECT_EQ(BigInt{123}.abs().to_string(), "123");
}

TEST(BigInt, ShiftLeftMatchesMultiplicationByPowersOfTwo) {
  BigInt x{"12345678901234567890"};
  for (std::size_t s : {std::size_t{1}, std::size_t{31}, std::size_t{32}, std::size_t{33},
                        std::size_t{100}}) {
    EXPECT_EQ(x << s, x * BigInt::pow(BigInt{2}, s)) << s;
  }
}

TEST(BigInt, ShiftRightTruncatesMagnitude) {
  EXPECT_EQ((BigInt{5} >> 1).to_string(), "2");
  EXPECT_EQ((BigInt{-5} >> 1).to_string(), "-2");  // magnitude shift
  EXPECT_EQ((BigInt{"18446744073709551616"} >> 64).to_string(), "1");
  EXPECT_EQ((BigInt{1} >> 100).to_string(), "0");
}

TEST(BigInt, BitLength) {
  EXPECT_EQ(BigInt{1}.bit_length(), 1u);
  EXPECT_EQ(BigInt{2}.bit_length(), 2u);
  EXPECT_EQ(BigInt{255}.bit_length(), 8u);
  EXPECT_EQ(BigInt{256}.bit_length(), 9u);
  EXPECT_EQ(BigInt{"4294967296"}.bit_length(), 33u);
}

TEST(BigInt, Gcd) {
  EXPECT_EQ(BigInt::gcd(BigInt{12}, BigInt{18}).to_string(), "6");
  EXPECT_EQ(BigInt::gcd(BigInt{-12}, BigInt{18}).to_string(), "6");
  EXPECT_EQ(BigInt::gcd(BigInt{0}, BigInt{5}).to_string(), "5");
  EXPECT_EQ(BigInt::gcd(BigInt{0}, BigInt{0}).to_string(), "0");
  EXPECT_EQ(BigInt::gcd(BigInt{"600851475143"}, BigInt{"6857"}).to_string(), "6857");
}

TEST(BigInt, Pow) {
  EXPECT_EQ(BigInt::pow(BigInt{2}, 10).to_string(), "1024");
  EXPECT_EQ(BigInt::pow(BigInt{10}, 0).to_string(), "1");
  EXPECT_EQ(BigInt::pow(BigInt{0}, 0).to_string(), "1");  // convention used by Rational::pow
  EXPECT_EQ(BigInt::pow(BigInt{0}, 5).to_string(), "0");
  EXPECT_EQ(BigInt::pow(BigInt{-3}, 3).to_string(), "-27");
  EXPECT_EQ(BigInt::pow(BigInt{2}, 128).to_string(),
            "340282366920938463463374607431768211456");
}

TEST(BigInt, Factorial) {
  EXPECT_EQ(BigInt::factorial(0).to_string(), "1");
  EXPECT_EQ(BigInt::factorial(1).to_string(), "1");
  EXPECT_EQ(BigInt::factorial(5).to_string(), "120");
  EXPECT_EQ(BigInt::factorial(20).to_string(), "2432902008176640000");
  EXPECT_EQ(BigInt::factorial(30).to_string(), "265252859812191058636308480000000");
}

TEST(BigInt, ToDouble) {
  EXPECT_DOUBLE_EQ(BigInt{42}.to_double(), 42.0);
  EXPECT_DOUBLE_EQ(BigInt{-42}.to_double(), -42.0);
  EXPECT_NEAR(BigInt{"1000000000000000000000"}.to_double(), 1e21, 1e6);
}

TEST(BigInt, StreamOutput) {
  std::ostringstream oss;
  oss << BigInt{"-12345678901234567890"};
  EXPECT_EQ(oss.str(), "-12345678901234567890");
}

TEST(BigInt, EvenOdd) {
  EXPECT_TRUE(BigInt{0}.is_even());
  EXPECT_TRUE(BigInt{2}.is_even());
  EXPECT_FALSE(BigInt{3}.is_even());
  EXPECT_FALSE(BigInt{"-99999999999999999999"}.is_even());
}

TEST(BigInt, SelfAliasingOperations) {
  BigInt a{"123456789123456789"};
  a += a;
  EXPECT_EQ(a.to_string(), "246913578246913578");
  BigInt b{"1000"};
  b *= b;
  EXPECT_EQ(b.to_string(), "1000000");
  BigInt c{"777"};
  c -= c;
  EXPECT_TRUE(c.is_zero());
}

}  // namespace
}  // namespace ddm::util
