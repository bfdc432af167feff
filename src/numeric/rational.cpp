#include "numeric/rational.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "support/check.hpp"

namespace aurv::numeric {

namespace {

using i128 = __int128;
using u128 = unsigned __int128;

u128 magnitude(i128 value) { return value < 0 ? -static_cast<u128>(value) : static_cast<u128>(value); }

std::int64_t bit_length_u128(u128 value) {
  const auto high = static_cast<std::uint64_t>(value >> 64);
  if (high != 0) return 128 - std::countl_zero(high);
  return 64 - std::countl_zero(static_cast<std::uint64_t>(value));
}

BigInt bigint_from_i128(i128 value) {
  if (value >= INT64_MIN && value <= INT64_MAX) return BigInt(static_cast<long long>(value));
  const bool negative = value < 0;
  const u128 mag = magnitude(value);
  BigInt result = (BigInt(static_cast<unsigned long long>(mag >> 64)) << 64) +
                  BigInt(static_cast<unsigned long long>(mag));
  return negative ? -result : result;
}

}  // namespace

Rational::Rational(BigInt value) { assign_dyadic(std::move(value), 0); }

Rational::Rational(BigInt numerator, BigInt denominator) {
  assign_fraction(std::move(numerator), std::move(denominator));
}

Rational::Big& Rational::make_big() {
  if (!is_big()) {
    lo_ = reinterpret_cast<std::uintptr_t>(new Big{BigInt(), BigInt(1), 0});
    hi_ = 0;
    exp_ = kBigTier;
  }
  return *big();
}

void Rational::copy_from(const Rational& other) {
  if (other.is_big()) {
    make_big() = *other.big();  // reuses the limb buffers of a big *this
    return;
  }
  drop_big();
  lo_ = other.lo_;
  hi_ = other.hi_;
  exp_ = other.exp_;
}

void Rational::assign_fraction(BigInt numerator, BigInt denominator) {
  AURV_CHECK_MSG(!denominator.is_zero(), "Rational with zero denominator");
  if (!numerator.is_zero() && !denominator.is_pow2()) {
    const BigInt g = BigInt::gcd(numerator, denominator);
    if (g != BigInt(1)) {
      numerator = numerator / g;
      denominator = denominator / g;
    }
  }
  assign_reduced(std::move(numerator), std::move(denominator));
}

void Rational::assign_reduced(BigInt numerator, BigInt denominator) {
  if (denominator.is_negative()) {
    numerator.negate();
    denominator.negate();
  }
  if (numerator.is_zero() || denominator.is_pow2()) {
    // Dyadic: normalize by trailing zeros, no gcd.
    const auto den_exp = numerator.is_zero() ? 0 : denominator.trailing_zero_bits();
    assign_dyadic(std::move(numerator), -static_cast<std::int64_t>(den_exp));
    return;
  }
  Big& payload = make_big();
  payload.num = std::move(numerator);
  payload.den = std::move(denominator);
  payload.den_exp = -1;
}

void Rational::assign_dyadic(BigInt numerator, std::int64_t exponent) {
  if (numerator.is_zero()) {
    drop_big();
    set_inline(0, 0);
    return;
  }
  const std::uint64_t zeros = numerator.trailing_zero_bits();
  if (numerator.bit_length() - zeros <= 127) {
    // The odd part fits the inline mantissa.
    const auto mag = static_cast<i128>(*numerator.magnitude_shifted(zeros));
    drop_big();
    set_inline(numerator.is_negative() ? -mag : mag, exponent + static_cast<std::int64_t>(zeros));
    return;
  }
  // Big tier, canonical numerator / 2^den_exp.
  std::uint64_t den_exp = 0;
  if (exponent >= 0) {
    numerator <<= static_cast<std::uint64_t>(exponent);
  } else {
    const auto want = static_cast<std::uint64_t>(-exponent);
    const std::uint64_t take = std::min(zeros, want);
    if (take > 0) numerator >>= take;
    den_exp = want - take;
  }
  // Reuse the allocation; the denominator too when the exponent is
  // unchanged (the common case for event-time accumulation).
  const auto tag = static_cast<std::int64_t>(den_exp);
  Big& payload = make_big();
  payload.num = std::move(numerator);
  if (payload.den_exp != tag) {
    payload.den = BigInt::pow2(den_exp);
    payload.den_exp = tag;
  }
}

const BigInt& Rational::dyadic_num(BigInt& store, std::int64_t& exponent) const {
  if (is_big()) {
    exponent = -big()->den_exp;
    return big()->num;
  }
  exponent = exp_;
  store = bigint_from_i128(mant());
  return store;
}

const BigInt& Rational::num_ref(BigInt& store) const {
  if (is_big()) return big()->num;
  store = bigint_from_i128(mant());
  if (exp_ > 0) store <<= static_cast<std::uint64_t>(exp_);
  return store;
}

const BigInt& Rational::den_ref(BigInt& store) const {
  if (is_big()) return big()->den;
  store = exp_ < 0 ? BigInt::pow2(static_cast<std::uint64_t>(-exp_)) : BigInt(1);
  return store;
}

Rational Rational::dyadic(long long numerator, std::uint64_t pow2_exponent) {
  Rational result;
  result.set_inline(numerator, -static_cast<std::int64_t>(pow2_exponent));
  return result;
}

Rational Rational::pow2(std::uint64_t exponent) {
  Rational result;
  result.set_inline(1, static_cast<std::int64_t>(exponent));
  return result;
}

Rational Rational::from_string(std::string_view text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) return Rational(BigInt::from_string(text));
  return from_bigints(BigInt::from_string(text.substr(0, slash)),
                      BigInt::from_string(text.substr(slash + 1)));
}

Rational Rational::from_double(double value) {
  if (!std::isfinite(value)) throw std::invalid_argument("Rational::from_double: non-finite");
  Rational result;
  if (value == 0.0) return result;
  int exponent = 0;
  const double mantissa = std::frexp(value, &exponent);  // value = mantissa * 2^exponent
  // Scale the mantissa to a 53-bit integer: mantissa * 2^53 is integral.
  result.set_inline(static_cast<long long>(std::ldexp(mantissa, 53)), exponent - 53);
  return result;
}

BigInt Rational::numerator() const {
  BigInt store;
  return num_ref(store);
}

BigInt Rational::denominator() const {
  BigInt store;
  return den_ref(store);
}

Rational Rational::operator-() const {
  Rational result;
  if (!is_big()) {
    result.set_inline(-mant(), exp_);
    return result;
  }
  Big& payload = result.make_big();
  payload = *big();
  payload.num.negate();
  return result;
}

Rational Rational::abs() const { return is_negative() ? -*this : *this; }

Rational Rational::reciprocal() const {
  AURV_CHECK_MSG(!is_zero(), "reciprocal of zero");
  Rational result;
  if (!is_big()) {
    if (mant() == 1 || mant() == -1) {
      result.set_inline(mant(), -exp_);
      return result;
    }
    // 1 / (m * 2^e) with m odd: 2^-e and m share no factor.
    BigInt store;
    result.assign_reduced(exp_ < 0 ? BigInt::pow2(static_cast<std::uint64_t>(-exp_)) : BigInt(1),
                          num_ref(store));
    return result;
  }
  result.assign_reduced(big()->den, big()->num);
  return result;
}

void Rational::add_big(const Rational& rhs, int sign_mult) {
  if (&rhs == this) {
    // Self-aliasing would read a moved-from numerator below.
    const Rational copy(rhs);
    add_big(copy, sign_mult);
    return;
  }
  BigInt rhs_store;
  if (is_dyadic() && rhs.is_dyadic()) {
    // Dyadic path: shift-align the numerators and integer-add. No gcd, no
    // cross multiplication.
    std::int64_t eb = 0;
    const BigInt& rhs_num = rhs.dyadic_num(rhs_store, eb);
    const std::int64_t ea = is_big() ? -big()->den_exp : exp_;
    BigInt num = is_big() ? std::move(big()->num) : bigint_from_i128(mant());
    const std::int64_t low = std::min(ea, eb);
    if (ea > low) num <<= static_cast<std::uint64_t>(ea - low);
    num.add_shifted(rhs_num, static_cast<std::uint64_t>(eb - low), sign_mult);
    assign_dyadic(std::move(num), low);
    return;
  }
  BigInt num_store, den_store, rhs_den_store;
  const BigInt& a_num = num_ref(num_store);
  const BigInt& a_den = den_ref(den_store);
  const BigInt& b_num = rhs.num_ref(rhs_store);
  const BigInt& b_den = rhs.den_ref(rhs_den_store);
  BigInt num = a_num * b_den;
  BigInt cross = b_num * a_den;
  if (sign_mult < 0) cross.negate();
  num += cross;
  BigInt den = a_den * b_den;
  assign_fraction(std::move(num), std::move(den));
}

void Rational::multiply_big(const Rational& rhs) {
  BigInt a_store, b_store;
  if (is_dyadic() && rhs.is_dyadic()) {
    // Dyadic path: one integer multiply, trailing-zero normalize.
    std::int64_t ea = 0;
    std::int64_t eb = 0;
    BigInt num = dyadic_num(a_store, ea) * rhs.dyadic_num(b_store, eb);
    assign_dyadic(std::move(num), ea + eb);
    return;
  }
  BigInt a_den_store, b_den_store;
  const BigInt& a_num = num_ref(a_store);
  const BigInt& a_den = den_ref(a_den_store);
  const BigInt& b_num = rhs.num_ref(b_store);
  const BigInt& b_den = rhs.den_ref(b_den_store);
  BigInt num = a_num * b_num;
  BigInt den = a_den * b_den;
  assign_fraction(std::move(num), std::move(den));
}

Rational& Rational::operator/=(const Rational& rhs) {
  AURV_CHECK_MSG(!rhs.is_zero(), "Rational division by zero");
  BigInt a_num_store, a_den_store, b_num_store, b_den_store;
  const BigInt& a_num = num_ref(a_num_store);
  const BigInt& a_den = den_ref(a_den_store);
  const BigInt& b_num = rhs.num_ref(b_num_store);
  const BigInt& b_den = rhs.den_ref(b_den_store);
  // assign_fraction re-detects a dyadic denominator (e.g. dividing by an
  // integer power of two), so the gcd skip still applies when possible.
  BigInt num = a_num * b_den;
  BigInt den = a_den * b_num;
  assign_fraction(std::move(num), std::move(den));
  return *this;
}

bool operator==(const Rational& lhs, const Rational& rhs) noexcept {
  // Canonical forms are unique and every value that fits the inline tier is
  // stored inline, so cross-tier values are never equal.
  if (lhs.is_big() != rhs.is_big()) return false;
  if (!lhs.is_big()) return lhs.lo_ == rhs.lo_ && lhs.hi_ == rhs.hi_ && lhs.exp_ == rhs.exp_;
  return lhs.big()->num == rhs.big()->num && lhs.big()->den == rhs.big()->den;
}

std::strong_ordering operator<=>(const Rational& lhs, const Rational& rhs) noexcept {
  const int sign_a = lhs.sign();
  const int sign_b = rhs.sign();
  if (sign_a != sign_b) return sign_a <=> sign_b;
  if (sign_a == 0) return std::strong_ordering::equal;
  const auto by_sign = [sign_a](std::strong_ordering magnitude_order) {
    return sign_a > 0 ? magnitude_order : 0 <=> magnitude_order;
  };
  if (!lhs.is_big() && !rhs.is_big()) {
    // Leading-bit positions first; on a tie the exponent gap equals the
    // width gap, so aligning the mantissas cannot overflow 128 bits.
    const u128 mag_a = magnitude(lhs.mant());
    const u128 mag_b = magnitude(rhs.mant());
    const std::int64_t lead_a = bit_length_u128(mag_a) + lhs.exp_;
    const std::int64_t lead_b = bit_length_u128(mag_b) + rhs.exp_;
    if (lead_a != lead_b) return by_sign(lead_a <=> lead_b);
    if (lhs.exp_ >= rhs.exp_) return by_sign(mag_a << (lhs.exp_ - rhs.exp_) <=> mag_b);
    return by_sign(mag_a <=> mag_b << (rhs.exp_ - lhs.exp_));
  }
  BigInt a_store, b_store;
  if (lhs.is_dyadic() && rhs.is_dyadic()) {
    // Dyadic path. First compare the positions of the leading bits
    // (floor(log2 |v|) = bit_length(num) - 1 + e): distinct positions
    // decide the order without touching the limbs.
    std::int64_t ea = 0;
    std::int64_t eb = 0;
    const BigInt& a_num = lhs.dyadic_num(a_store, ea);
    const BigInt& b_num = rhs.dyadic_num(b_store, eb);
    const std::int64_t lead_a = static_cast<std::int64_t>(a_num.bit_length()) + ea;
    const std::int64_t lead_b = static_cast<std::int64_t>(b_num.bit_length()) + eb;
    if (lead_a != lead_b) return by_sign(lead_a <=> lead_b);
    // Leading bits tie: align the numerators with one shift and compare.
    if (ea >= eb) return a_num << static_cast<std::uint64_t>(ea - eb) <=> b_num;
    return a_num <=> b_num << static_cast<std::uint64_t>(eb - ea);
  }
  BigInt a_den_store, b_den_store;
  const BigInt& a_num = lhs.num_ref(a_store);
  const BigInt& b_num = rhs.num_ref(b_store);
  const BigInt& a_den = lhs.den_ref(a_den_store);
  const BigInt& b_den = rhs.den_ref(b_den_store);
  return a_num * b_den <=> b_num * a_den;
}

BigInt Rational::floor() const {
  if (!is_big()) {
    if (exp_ >= 0) return numerator();
    // m is odd, so the value is never integral; the arithmetic shift
    // rounds toward -inf (and saturates at 0 / -1 past the width).
    return bigint_from_i128(mant() >> std::min<std::int64_t>(-exp_, 127));
  }
  const Big& b = *big();
  if (b.den_exp == 0) return b.num;  // integer stored big
  if (b.den_exp > 0) {
    // Canonical dyadic with e > 0 has an odd numerator, so the value is
    // never integral: shift truncates toward zero, adjust negatives.
    BigInt quotient = b.num >> static_cast<std::uint64_t>(b.den_exp);
    if (b.num.is_negative()) quotient -= BigInt(1);
    return quotient;
  }
  const BigInt::DivModResult dm = BigInt::divmod(b.num, b.den);
  if (b.num.is_negative() && !dm.remainder.is_zero()) return dm.quotient - BigInt(1);
  return dm.quotient;
}

BigInt Rational::ceil() const {
  if (!is_big()) {
    if (exp_ >= 0) return numerator();
    return floor() + BigInt(1);
  }
  const Big& b = *big();
  if (b.den_exp == 0) return b.num;  // integer stored big
  if (b.den_exp > 0) {
    BigInt quotient = b.num >> static_cast<std::uint64_t>(b.den_exp);
    if (!b.num.is_negative()) quotient += BigInt(1);
    return quotient;
  }
  const BigInt::DivModResult dm = BigInt::divmod(b.num, b.den);
  if (!b.num.is_negative() && !dm.remainder.is_zero()) return dm.quotient + BigInt(1);
  return dm.quotient;
}

double Rational::to_double() const noexcept {
  if (!is_big()) {
    const i128 mantissa = mant();
    if (mantissa == 0) return 0.0;
    const u128 mag = magnitude(mantissa);
    const bool negative = mantissa < 0;
    // Saturate exponents before narrowing: ldexp of a factor in
    // [2^-62, 2^62] flushes to 0 / inf well inside +/-5000.
    const auto scale = [](std::int64_t exponent) {
      return static_cast<int>(std::clamp<std::int64_t>(exponent, -5000, 5000));
    };
    if (mag < (static_cast<u128>(1) << 53)) {
      // The rule below performs one correctly rounded operation on an
      // exactly held mantissa here, which is what ldexp does directly.
      const double result = std::ldexp(static_cast<double>(static_cast<std::uint64_t>(mag)),
                                       scale(exp_));
      return negative ? -result : result;
    }
    // The big tier's rule on numerator mag * 2^max(e, 0) and denominator
    // 2^max(-e, 0): each truncated to its top 62 bits (a no-op when both
    // fit, leaving one rounded division), the quotient scaled back.
    const std::int64_t num_shift = std::max<std::int64_t>(exp_, 0);
    const std::int64_t den_exp = std::max<std::int64_t>(-exp_, 0);
    const std::int64_t num_drop = std::max<std::int64_t>(bit_length_u128(mag) + num_shift - 62, 0);
    const std::int64_t den_drop = std::max<std::int64_t>(den_exp + 1 - 62, 0);
    const std::int64_t shift = num_shift - num_drop;  // mag's bits kept: > -128, < 62
    const u128 top = shift >= 0 ? mag << shift : mag >> -shift;
    const double quotient = static_cast<double>(static_cast<std::uint64_t>(top)) /
                            static_cast<double>(std::uint64_t{1} << (den_exp - den_drop));
    const double result = std::ldexp(quotient, scale(num_drop - den_drop));
    return negative ? -result : result;
  }
  const BigInt& num = big()->num;
  const BigInt& den = big()->den;
  // Align both operands so the division happens on ~62 significant bits,
  // then restore the binary exponent with ldexp. Avoids overflow/underflow
  // of the separate to_double() conversions for huge operands.
  const std::int64_t nbits = static_cast<std::int64_t>(num.bit_length());
  const std::int64_t dbits = static_cast<std::int64_t>(den.bit_length());
  constexpr std::int64_t kTarget = 62;
  BigInt n = num.abs();
  BigInt d = den;
  std::int64_t exponent = 0;
  if (nbits > kTarget) {
    n >>= static_cast<std::uint64_t>(nbits - kTarget);
    exponent += nbits - kTarget;
  }
  if (dbits > kTarget) {
    d >>= static_cast<std::uint64_t>(dbits - kTarget);
    exponent -= dbits - kTarget;
  }
  const double quotient = n.to_double() / d.to_double();
  const double result = std::ldexp(quotient, static_cast<int>(exponent));
  return num.is_negative() ? -result : result;
}

std::string Rational::to_string() const {
  if (!is_big() && exp_ >= 0 && exp_ < 64 && bit_length_u128(magnitude(mant())) + exp_ <= 63) {
    return std::to_string(static_cast<long long>(mant() << exp_));
  }
  BigInt num_store, den_store;
  const BigInt& num = num_ref(num_store);
  if (is_integer()) return num.to_string();
  return num.to_string() + "/" + den_ref(den_store).to_string();
}

}  // namespace aurv::numeric
