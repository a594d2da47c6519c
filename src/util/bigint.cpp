#include "util/bigint.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cctype>
#include <cmath>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace ddm::util {

namespace {

constexpr std::uint64_t kLimbBase = std::uint64_t{1} << 32;
// Below this limb count Karatsuba overhead dominates.
constexpr std::size_t kKaratsubaThreshold = 32;

}  // namespace

BigInt::BigInt(std::int64_t value) {
  if (value == 0) return;
  negative_ = value < 0;
  // Careful with INT64_MIN: negate in unsigned space.
  std::uint64_t magnitude =
      negative_ ? ~static_cast<std::uint64_t>(value) + 1 : static_cast<std::uint64_t>(value);
  limbs_.push_back(static_cast<Limb>(magnitude & 0xffffffffu));
  if (magnitude >> 32) limbs_.push_back(static_cast<Limb>(magnitude >> 32));
}

BigInt::BigInt(std::string_view decimal) {
  std::size_t pos = 0;
  bool neg = false;
  if (pos < decimal.size() && (decimal[pos] == '-' || decimal[pos] == '+')) {
    neg = decimal[pos] == '-';
    ++pos;
  }
  if (pos == decimal.size()) throw std::invalid_argument("BigInt: empty decimal string");
  for (; pos < decimal.size(); ++pos) {
    const char c = decimal[pos];
    if (c < '0' || c > '9') throw std::invalid_argument("BigInt: non-digit in decimal string");
    // *this = *this * 10 + digit, done in-place on limbs.
    DoubleLimb carry = static_cast<DoubleLimb>(c - '0');
    for (Limb& limb : limbs_) {
      const DoubleLimb v = static_cast<DoubleLimb>(limb) * 10 + carry;
      limb = static_cast<Limb>(v & 0xffffffffu);
      carry = v >> 32;
    }
    if (carry != 0) limbs_.push_back(static_cast<Limb>(carry));
  }
  negative_ = neg;
  trim();
}

void BigInt::trim() noexcept {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

std::size_t BigInt::bit_length() const noexcept {
  if (limbs_.empty()) return 0;
  const Limb top = limbs_.back();
  const std::size_t top_bits = 32u - static_cast<std::size_t>(std::countl_zero(top));
  return (limbs_.size() - 1) * 32 + top_bits;
}

bool BigInt::fits_int64() const noexcept {
  const std::size_t bits = bit_length();
  if (bits < 64) return true;
  if (bits > 64) return false;
  // Exactly 64 bits of magnitude only fits for INT64_MIN.
  return negative_ && limbs_[0] == 0 && limbs_[1] == 0x80000000u;
}

std::int64_t BigInt::to_int64() const {
  if (!fits_int64()) throw std::overflow_error("BigInt::to_int64: value out of range");
  std::uint64_t magnitude = 0;
  if (limbs_.size() > 0) magnitude = limbs_[0];
  if (limbs_.size() > 1) magnitude |= static_cast<std::uint64_t>(limbs_[1]) << 32;
  if (negative_) return static_cast<std::int64_t>(~magnitude + 1);
  return static_cast<std::int64_t>(magnitude);
}

double BigInt::to_double() const noexcept {
  double result = 0.0;
  for (auto it = limbs_.rbegin(); it != limbs_.rend(); ++it) {
    result = result * static_cast<double>(kLimbBase) + static_cast<double>(*it);
  }
  return negative_ ? -result : result;
}

std::string BigInt::to_string() const {
  if (is_zero()) return "0";
  // Repeatedly divide the magnitude by 10^9 and emit 9-digit chunks.
  std::vector<Limb> work = limbs_;
  std::string digits;
  constexpr Limb kChunk = 1000000000u;
  while (!work.empty()) {
    DoubleLimb remainder = 0;
    for (std::size_t i = work.size(); i-- > 0;) {
      const DoubleLimb cur = (remainder << 32) | work[i];
      work[i] = static_cast<Limb>(cur / kChunk);
      remainder = cur % kChunk;
    }
    while (!work.empty() && work.back() == 0) work.pop_back();
    for (int d = 0; d < 9; ++d) {
      digits.push_back(static_cast<char>('0' + remainder % 10));
      remainder /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

int BigInt::compare_magnitude(const std::vector<Limb>& a, const std::vector<Limb>& b) noexcept {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) noexcept {
  if (a.negative_ != b.negative_) {
    return a.negative_ ? std::strong_ordering::less : std::strong_ordering::greater;
  }
  const int mag = BigInt::compare_magnitude(a.limbs_, b.limbs_);
  const int sign_adjusted = a.negative_ ? -mag : mag;
  if (sign_adjusted < 0) return std::strong_ordering::less;
  if (sign_adjusted > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

std::vector<BigInt::Limb> BigInt::add_magnitude(const std::vector<Limb>& a,
                                                const std::vector<Limb>& b) {
  const std::vector<Limb>& longer = a.size() >= b.size() ? a : b;
  const std::vector<Limb>& shorter = a.size() >= b.size() ? b : a;
  std::vector<Limb> result;
  result.reserve(longer.size() + 1);
  DoubleLimb carry = 0;
  for (std::size_t i = 0; i < longer.size(); ++i) {
    DoubleLimb sum = static_cast<DoubleLimb>(longer[i]) + carry;
    if (i < shorter.size()) sum += shorter[i];
    result.push_back(static_cast<Limb>(sum & 0xffffffffu));
    carry = sum >> 32;
  }
  if (carry != 0) result.push_back(static_cast<Limb>(carry));
  return result;
}

std::vector<BigInt::Limb> BigInt::sub_magnitude(const std::vector<Limb>& a,
                                                const std::vector<Limb>& b) {
  assert(compare_magnitude(a, b) >= 0 && "sub_magnitude requires |a| >= |b|");
  std::vector<Limb> result;
  result.reserve(a.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a[i]) - borrow;
    if (i < b.size()) diff -= static_cast<std::int64_t>(b[i]);
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kLimbBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    result.push_back(static_cast<Limb>(diff));
  }
  while (!result.empty() && result.back() == 0) result.pop_back();
  return result;
}

std::vector<BigInt::Limb> BigInt::mul_schoolbook(const std::vector<Limb>& a,
                                                 const std::vector<Limb>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<Limb> result(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    DoubleLimb carry = 0;
    const DoubleLimb ai = a[i];
    for (std::size_t j = 0; j < b.size(); ++j) {
      const DoubleLimb cur = static_cast<DoubleLimb>(result[i + j]) + ai * b[j] + carry;
      result[i + j] = static_cast<Limb>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    result[i + b.size()] = static_cast<Limb>(carry);
  }
  while (!result.empty() && result.back() == 0) result.pop_back();
  return result;
}

std::vector<BigInt::Limb> BigInt::mul_magnitude(const std::vector<Limb>& a,
                                                const std::vector<Limb>& b) {
  if (a.size() < kKaratsubaThreshold || b.size() < kKaratsubaThreshold) {
    return mul_schoolbook(a, b);
  }
  // Karatsuba: split at half the longer operand.
  const std::size_t half = std::max(a.size(), b.size()) / 2;
  const auto split = [half](const std::vector<Limb>& v) {
    std::vector<Limb> lo(v.begin(), v.begin() + std::min(half, v.size()));
    std::vector<Limb> hi;
    if (v.size() > half) hi.assign(v.begin() + half, v.end());
    while (!lo.empty() && lo.back() == 0) lo.pop_back();
    return std::pair{std::move(lo), std::move(hi)};
  };
  auto [a_lo, a_hi] = split(a);
  auto [b_lo, b_hi] = split(b);

  std::vector<Limb> z0 = mul_magnitude(a_lo, b_lo);
  std::vector<Limb> z2 = mul_magnitude(a_hi, b_hi);
  std::vector<Limb> z1 = mul_magnitude(add_magnitude(a_lo, a_hi), add_magnitude(b_lo, b_hi));
  z1 = sub_magnitude(z1, z0);
  z1 = sub_magnitude(z1, z2);

  // result = z0 + (z1 << 32*half) + (z2 << 64*half)
  std::vector<Limb> result(std::max({z0.size(), z1.size() + half, z2.size() + 2 * half}) + 1, 0);
  const auto accumulate = [&result](const std::vector<Limb>& source, std::size_t offset) {
    DoubleLimb carry = 0;
    std::size_t i = 0;
    for (; i < source.size(); ++i) {
      const DoubleLimb cur = static_cast<DoubleLimb>(result[offset + i]) + source[i] + carry;
      result[offset + i] = static_cast<Limb>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    while (carry != 0) {
      const DoubleLimb cur = static_cast<DoubleLimb>(result[offset + i]) + carry;
      result[offset + i] = static_cast<Limb>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++i;
    }
  };
  accumulate(z0, 0);
  accumulate(z1, half);
  accumulate(z2, 2 * half);
  while (!result.empty() && result.back() == 0) result.pop_back();
  return result;
}

std::pair<std::vector<BigInt::Limb>, std::vector<BigInt::Limb>> BigInt::divmod_magnitude(
    const std::vector<Limb>& dividend, const std::vector<Limb>& divisor) {
  assert(!divisor.empty() && "division by zero magnitude");
  if (compare_magnitude(dividend, divisor) < 0) return {{}, dividend};

  // Single-limb divisor: simple long division.
  if (divisor.size() == 1) {
    const DoubleLimb d = divisor[0];
    std::vector<Limb> quotient(dividend.size(), 0);
    DoubleLimb remainder = 0;
    for (std::size_t i = dividend.size(); i-- > 0;) {
      const DoubleLimb cur = (remainder << 32) | dividend[i];
      quotient[i] = static_cast<Limb>(cur / d);
      remainder = cur % d;
    }
    while (!quotient.empty() && quotient.back() == 0) quotient.pop_back();
    std::vector<Limb> rem;
    if (remainder != 0) rem.push_back(static_cast<Limb>(remainder));
    return {std::move(quotient), std::move(rem)};
  }

  // Knuth TAOCP Vol.2 Algorithm D.
  // D1: normalize so the top divisor limb has its high bit set.
  const int shift = std::countl_zero(divisor.back());
  const auto shift_left = [](const std::vector<Limb>& v, int s) {
    std::vector<Limb> out(v.size() + 1, 0);
    for (std::size_t i = 0; i < v.size(); ++i) {
      out[i] |= static_cast<Limb>(static_cast<DoubleLimb>(v[i]) << s);
      out[i + 1] = s == 0 ? 0 : static_cast<Limb>(static_cast<DoubleLimb>(v[i]) >> (32 - s));
    }
    return out;
  };
  std::vector<Limb> u = shift_left(dividend, shift);  // size n+m+1 with top slack
  std::vector<Limb> v = shift_left(divisor, shift);
  while (!v.empty() && v.back() == 0) v.pop_back();
  const std::size_t n = v.size();
  const std::size_t m = u.size() - n - (u.back() == 0 ? 1 : 0);
  if (u.back() != 0) u.push_back(0);  // ensure u has n+m+1 limbs addressable

  std::vector<Limb> quotient(m + 1, 0);
  const DoubleLimb v_top = v[n - 1];
  const DoubleLimb v_second = n >= 2 ? v[n - 2] : 0;

  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: estimate q_hat from the top two limbs of the current window.
    const DoubleLimb numerator =
        (static_cast<DoubleLimb>(u[j + n]) << 32) | u[j + n - 1];
    DoubleLimb q_hat = numerator / v_top;
    DoubleLimb r_hat = numerator % v_top;
    while (q_hat >= kLimbBase ||
           q_hat * v_second > ((r_hat << 32) | (n >= 2 ? u[j + n - 2] : 0))) {
      --q_hat;
      r_hat += v_top;
      if (r_hat >= kLimbBase) break;
    }
    // D4: multiply-and-subtract q_hat * v from the window u[j .. j+n].
    std::int64_t borrow = 0;
    DoubleLimb carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const DoubleLimb product = q_hat * v[i] + carry;
      carry = product >> 32;
      const std::int64_t diff = static_cast<std::int64_t>(u[j + i]) -
                                static_cast<std::int64_t>(product & 0xffffffffu) - borrow;
      u[j + i] = static_cast<Limb>(diff & 0xffffffff);
      borrow = diff < 0 ? 1 : 0;
    }
    const std::int64_t top_diff = static_cast<std::int64_t>(u[j + n]) -
                                  static_cast<std::int64_t>(carry) - borrow;
    u[j + n] = static_cast<Limb>(top_diff & 0xffffffff);

    if (top_diff < 0) {
      // D6: q_hat was one too large; add v back.
      --q_hat;
      DoubleLimb add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const DoubleLimb sum = static_cast<DoubleLimb>(u[j + i]) + v[i] + add_carry;
        u[j + i] = static_cast<Limb>(sum & 0xffffffffu);
        add_carry = sum >> 32;
      }
      u[j + n] = static_cast<Limb>(u[j + n] + add_carry);
    }
    quotient[j] = static_cast<Limb>(q_hat);
  }

  while (!quotient.empty() && quotient.back() == 0) quotient.pop_back();
  // D8: denormalize the remainder.
  std::vector<Limb> remainder(u.begin(), u.begin() + n);
  if (shift != 0) {
    for (std::size_t i = 0; i + 1 < remainder.size(); ++i) {
      remainder[i] = static_cast<Limb>((remainder[i] >> shift) |
                                       (static_cast<DoubleLimb>(remainder[i + 1]) << (32 - shift)));
    }
    remainder.back() >>= shift;
  }
  while (!remainder.empty() && remainder.back() == 0) remainder.pop_back();
  return {std::move(quotient), std::move(remainder)};
}

BigInt& BigInt::operator+=(const BigInt& rhs) {
  if (negative_ == rhs.negative_) {
    limbs_ = add_magnitude(limbs_, rhs.limbs_);
  } else if (compare_magnitude(limbs_, rhs.limbs_) >= 0) {
    limbs_ = sub_magnitude(limbs_, rhs.limbs_);
  } else {
    limbs_ = sub_magnitude(rhs.limbs_, limbs_);
    negative_ = rhs.negative_;
  }
  trim();
  return *this;
}

BigInt& BigInt::operator-=(const BigInt& rhs) {
  if (negative_ != rhs.negative_) {
    limbs_ = add_magnitude(limbs_, rhs.limbs_);
  } else if (compare_magnitude(limbs_, rhs.limbs_) >= 0) {
    limbs_ = sub_magnitude(limbs_, rhs.limbs_);
  } else {
    limbs_ = sub_magnitude(rhs.limbs_, limbs_);
    negative_ = !negative_;
  }
  trim();
  return *this;
}

BigInt& BigInt::operator*=(const BigInt& rhs) {
  negative_ = negative_ != rhs.negative_;
  limbs_ = mul_magnitude(limbs_, rhs.limbs_);
  trim();
  return *this;
}

std::pair<BigInt, BigInt> BigInt::div_mod(const BigInt& dividend, const BigInt& divisor) {
  if (divisor.is_zero()) throw std::domain_error("BigInt: division by zero");
  auto [q_mag, r_mag] = divmod_magnitude(dividend.limbs_, divisor.limbs_);
  BigInt quotient;
  quotient.limbs_ = std::move(q_mag);
  quotient.negative_ = dividend.negative_ != divisor.negative_;
  quotient.trim();
  BigInt remainder;
  remainder.limbs_ = std::move(r_mag);
  remainder.negative_ = dividend.negative_;
  remainder.trim();
  return {std::move(quotient), std::move(remainder)};
}

BigInt& BigInt::operator/=(const BigInt& rhs) {
  *this = div_mod(*this, rhs).first;
  return *this;
}

BigInt& BigInt::operator%=(const BigInt& rhs) {
  *this = div_mod(*this, rhs).second;
  return *this;
}

BigInt BigInt::operator-() const {
  BigInt result = *this;
  if (!result.is_zero()) result.negative_ = !result.negative_;
  return result;
}

BigInt BigInt::abs() const {
  BigInt result = *this;
  result.negative_ = false;
  return result;
}

BigInt& BigInt::operator<<=(std::size_t bits) {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  std::vector<Limb> result(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    result[i + limb_shift] |=
        static_cast<Limb>(static_cast<DoubleLimb>(limbs_[i]) << bit_shift);
    if (bit_shift != 0) {
      result[i + limb_shift + 1] =
          static_cast<Limb>(static_cast<DoubleLimb>(limbs_[i]) >> (32 - bit_shift));
    }
  }
  limbs_ = std::move(result);
  trim();
  return *this;
}

BigInt& BigInt::operator>>=(std::size_t bits) {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) {
    limbs_.clear();
    negative_ = false;
    return *this;
  }
  std::vector<Limb> result(limbs_.begin() + limb_shift, limbs_.end());
  if (bit_shift != 0) {
    for (std::size_t i = 0; i + 1 < result.size(); ++i) {
      result[i] = static_cast<Limb>((result[i] >> bit_shift) |
                                    (static_cast<DoubleLimb>(result[i + 1]) << (32 - bit_shift)));
    }
    result.back() >>= bit_shift;
  }
  limbs_ = std::move(result);
  trim();
  return *this;
}

std::size_t BigInt::trailing_zero_bits() const noexcept {
  std::size_t zeros = 0;
  for (const Limb limb : limbs_) {
    if (limb != 0) return zeros + static_cast<std::size_t>(std::countr_zero(limb));
    zeros += 32;
  }
  return 0;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  a.negative_ = false;
  b.negative_ = false;
  if (a.is_zero()) return b;
  if (b.is_zero()) return a;
  // Factor out the common power of two before Euclid: dyadic rationals (the
  // certified ladder's enclosures, exact images of doubles) then normalize
  // in one division instead of one per bit of the denominator.
  const std::size_t a_twos = a.trailing_zero_bits();
  const std::size_t b_twos = b.trailing_zero_bits();
  a >>= a_twos;
  b >>= b_twos;
  while (!b.is_zero()) {
    BigInt r = div_mod(a, b).second;
    a = std::move(b);
    b = std::move(r);
  }
  return a <<= std::min(a_twos, b_twos);
}

BigInt BigInt::pow(const BigInt& base, std::uint64_t exponent) {
  BigInt result{1};
  BigInt acc = base;
  while (exponent != 0) {
    if (exponent & 1) result *= acc;
    exponent >>= 1;
    if (exponent != 0) acc *= acc;
  }
  return result;
}

BigInt BigInt::factorial(std::uint32_t n) {
  BigInt result{1};
  for (std::uint32_t i = 2; i <= n; ++i) result *= BigInt{static_cast<std::int64_t>(i)};
  return result;
}

std::ostream& operator<<(std::ostream& os, const BigInt& value) {
  return os << value.to_string();
}

}  // namespace ddm::util
