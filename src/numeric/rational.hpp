// Exact rational arithmetic — the library's *time* type.
//
// Every duration in the paper's algorithms is a rational number of local
// time units (in fact a dyadic one, k/2^i), every agent clock rate tau,
// speed v and delay t accepted by the simulator is rational, so every event
// time is rational and event ordering is decided exactly — even when the
// integer part has hundreds of bits (phase-i waits of 2^(15 i^2) units) and
// the fractional part is 2^-i.
//
// Representation: a two-tier value.
//   - Inline tier: a dyadic m * 2^e with a 128-bit two's-complement
//     mantissa m and an int64 exponent e. Phase waits are single bits far
//     up and the fractional parts a few bits far down, so nearly every
//     simulation value lives here, and +=, -=, *= and <=> are a shift-align
//     plus one 128-bit integer operation with an overflow check: no BigInt,
//     no heap. An overflowing result takes the big path below and comes
//     back inline whenever it fits.
//   - Big tier: everything else — non-dyadic values, and dyadics with more
//     than 127 significant bits — as a heap-allocated BigInt fraction. It
//     carries a *dyadic tag*: when the denominator is 2^e its exponent is
//     cached, and +=, -=, *, <=> reduce to shift-align + integer
//     add/compare, skipping BigInt::gcd and the cross multiplications.
//
// Invariants: a value is inline iff it is dyadic with at most 127
// significant bits, so the representation is canonical (equal values have
// equal representations). Inline: m is odd, or m == 0 and e == 0, and
// |m| < 2^127. Big: denominator > 0, gcd(|num|, den) == 1, and
// den_exp == e iff den == 2^e, else -1.
//
// Layout: three 8-byte words (the mantissa's two halves and the exponent;
// in the big tier the first word holds the owned Big pointer and the
// exponent a tag), so a Rational packs into instruction streams and event
// records as tightly as a pair of int64s.
#pragma once

#include <bit>
#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "numeric/bigint.hpp"

namespace aurv::numeric {

class Rational {
 public:
  // NOLINTBEGIN(google-explicit-constructor) — integers convert implicitly
  // by design; Rational is a drop-in number type.
  Rational() = default;
  Rational(int value) : Rational(static_cast<long long>(value)) {}
  Rational(long value) : Rational(static_cast<long long>(value)) {}
  Rational(long long value) { set_inline(value, 0); }
  Rational(BigInt value);
  // NOLINTEND(google-explicit-constructor)
  /// numerator/denominator; denominator must be nonzero.
  Rational(BigInt numerator, BigInt denominator);

  Rational(const Rational& other) { copy_from(other); }
  Rational(Rational&& other) noexcept
      : lo_(std::exchange(other.lo_, 0)),
        hi_(std::exchange(other.hi_, 0)),
        exp_(std::exchange(other.exp_, 0)) {}
  Rational& operator=(const Rational& other) {
    if (this != &other) copy_from(other);
    return *this;
  }
  Rational& operator=(Rational&& other) noexcept {
    if (this != &other) {
      drop_big();
      lo_ = std::exchange(other.lo_, 0);
      hi_ = std::exchange(other.hi_, 0);
      exp_ = std::exchange(other.exp_, 0);
    }
    return *this;
  }
  ~Rational() { drop_big(); }

  /// k / 2^i — the dyadic quantities the paper's algorithms are built from.
  static Rational dyadic(long long numerator, std::uint64_t pow2_exponent);

  /// 2^i as a rational.
  static Rational pow2(std::uint64_t exponent);

  /// Parses "a/b" or "a" (decimal integers). Throws on malformed input.
  static Rational from_string(std::string_view text);

  /// Exact conversion of a finite double (every finite double is a dyadic
  /// rational m * 2^e). Throws std::invalid_argument for NaN/inf.
  static Rational from_double(double value);

  /// Numerator/denominator as BigInt (by value: the inline tier stores a
  /// mantissa and an exponent, not BigInts).
  [[nodiscard]] BigInt numerator() const;
  [[nodiscard]] BigInt denominator() const;

  [[nodiscard]] bool is_zero() const noexcept { return !is_big() && mant() == 0; }
  [[nodiscard]] bool is_negative() const noexcept {
    return is_big() ? big()->num.is_negative() : mant() < 0;
  }
  [[nodiscard]] bool is_integer() const noexcept {
    return is_big() ? big()->den_exp == 0 : exp_ >= 0;
  }
  [[nodiscard]] int sign() const noexcept {
    if (is_big()) return big()->num.sign();
    const __int128 m = mant();
    return m == 0 ? 0 : (m < 0 ? -1 : 1);
  }

  /// True when stored in the inline dyadic tier (observability for tests
  /// and the filtered kernel's tier counters; semantics never depend on
  /// the tier).
  [[nodiscard]] bool is_inline() const noexcept { return !is_big(); }

  /// True when the denominator is a power of two (k / 2^e), i.e. the value
  /// is eligible for the shift-align fast paths. Observability, like
  /// is_inline(): semantics never depend on it.
  [[nodiscard]] bool is_dyadic() const noexcept { return !is_big() || big()->den_exp >= 0; }

  [[nodiscard]] Rational operator-() const;
  [[nodiscard]] Rational abs() const;
  /// Multiplicative inverse; *this must be nonzero.
  [[nodiscard]] Rational reciprocal() const;

  // The inline-tier fast paths live here so the engine's hot arithmetic
  // inlines; anything else (big operands, 128-bit overflow) goes out of line.
  Rational& operator+=(const Rational& rhs) {
    if (is_big() || rhs.is_big() || !add_inline(rhs.mant(), rhs.exp_)) add_big(rhs, 1);
    return *this;
  }
  Rational& operator-=(const Rational& rhs) {
    if (is_big() || rhs.is_big() || !add_inline(-rhs.mant(), rhs.exp_)) add_big(rhs, -1);
    return *this;
  }
  Rational& operator*=(const Rational& rhs) {
    __int128 product = 0;
    if (is_big() || rhs.is_big() || __builtin_mul_overflow(mant(), rhs.mant(), &product)) {
      multiply_big(rhs);
    } else {
      set_inline(product, exp_ + rhs.exp_);
    }
    return *this;
  }
  Rational& operator/=(const Rational& rhs);

  friend Rational operator+(Rational lhs, const Rational& rhs) { return lhs += rhs; }
  friend Rational operator-(Rational lhs, const Rational& rhs) { return lhs -= rhs; }
  friend Rational operator*(Rational lhs, const Rational& rhs) { return lhs *= rhs; }
  friend Rational operator/(Rational lhs, const Rational& rhs) { return lhs /= rhs; }

  friend bool operator==(const Rational& lhs, const Rational& rhs) noexcept;
  friend std::strong_ordering operator<=>(const Rational& lhs, const Rational& rhs) noexcept;

  /// Largest integer <= *this.
  [[nodiscard]] BigInt floor() const;
  /// Smallest integer >= *this.
  [[nodiscard]] BigInt ceil() const;

  /// Nearest double by a fixed rule that artifact bytes depend on: when
  /// numerator and denominator both have at most 62 bits, one rounded
  /// division; otherwise each is first truncated to its top 62 bits, the
  /// quotient of the two doubles is taken and the binary exponent restored
  /// with ldexp (so no part overflows, however huge). Within 2 ulps of the
  /// true value; pinned bit for bit by tests/numeric_filter_test.cpp.
  [[nodiscard]] double to_double() const noexcept;

  /// The value as a double when it is exactly representable as one (then
  /// equal to to_double()); nullopt otherwise. Never rounds.
  [[nodiscard]] std::optional<double> exact_double() const noexcept {
    if (is_big()) return std::nullopt;  // non-dyadic, or > 127 significant bits
    const __int128 m = mant();
    if (m >= (__int128{1} << 53) || m <= -(__int128{1} << 53)) return std::nullopt;
    // m is odd: its lowest bit sits at 2^e, its highest below 2^(e + width).
    const auto small = static_cast<std::int64_t>(m);
    const int width = std::bit_width(static_cast<std::uint64_t>(small < 0 ? -small : small));
    if (exp_ < -1074 || exp_ > 1024 - width) return std::nullopt;
    return std::ldexp(static_cast<double>(small), static_cast<int>(exp_));
  }

  [[nodiscard]] std::string to_string() const;

  friend Rational min(const Rational& a, const Rational& b) { return a <= b ? a : b; }
  friend Rational max(const Rational& a, const Rational& b) { return a >= b ? a : b; }

 private:
  struct Big {
    BigInt num;
    BigInt den;            // > 0, coprime with num
    std::int64_t den_exp;  // e iff den == 2^e (the dyadic tag), else -1
  };

  /// exp_ value marking the big tier (no inline exponent gets near it).
  static constexpr std::int64_t kBigTier = std::numeric_limits<std::int64_t>::min();

  [[nodiscard]] bool is_big() const noexcept { return exp_ == kBigTier; }
  [[nodiscard]] Big* big() const noexcept {
    return reinterpret_cast<Big*>(static_cast<std::uintptr_t>(lo_));
  }
  /// Inline tier: the mantissa from its two words.
  [[nodiscard]] __int128 mant() const noexcept {
    return static_cast<__int128>((static_cast<unsigned __int128>(hi_) << 64) | lo_);
  }
  /// Frees the big payload, if any; the caller then sets every field.
  void drop_big() noexcept {
    if (is_big()) delete big();
  }
  /// The Big payload: the existing one, or a fresh one when *this is inline.
  Big& make_big();

  static Rational from_bigints(BigInt numerator, BigInt denominator) {
    Rational result;
    result.assign_fraction(std::move(numerator), std::move(denominator));
    return result;
  }
  /// Deep copy; reuses an existing Big allocation.
  void copy_from(const Rational& other);

  /// *this = numerator / denominator (nonzero, any sign), canonical;
  /// reuses an existing Big allocation.
  void assign_fraction(BigInt numerator, BigInt denominator);
  /// assign_fraction for operands already known to be coprime, or with a
  /// power-of-two denominator: skips the gcd.
  void assign_reduced(BigInt numerator, BigInt denominator);

  /// Inline tier: *this = mantissa * 2^exponent, trailing zeros stripped.
  /// *this must not hold a Big; |mantissa| <= 2^127.
  void set_inline(__int128 mantissa, std::int64_t exponent) noexcept {
    if (mantissa == 0) {
      lo_ = 0;
      hi_ = 0;
      exp_ = 0;
      return;
    }
    const auto low = static_cast<std::uint64_t>(mantissa);
    const int zeros = low != 0 ? std::countr_zero(low)
                               : 64 + std::countr_zero(static_cast<std::uint64_t>(mantissa >> 64));
    const __int128 odd = mantissa >> zeros;  // exact: 2^zeros divides it
    lo_ = static_cast<std::uint64_t>(odd);
    hi_ = static_cast<std::uint64_t>(static_cast<unsigned __int128>(odd) >> 64);
    exp_ = exponent + zeros;
  }
  /// *this = numerator * 2^exponent, canonical in whichever tier fits;
  /// reuses an existing Big allocation.
  void assign_dyadic(BigInt numerator, std::int64_t exponent);

  /// *this += b * 2^eb for an inline *this; false (and *this untouched)
  /// when the aligned 128-bit sum would overflow.
  bool add_inline(__int128 b, std::int64_t eb) noexcept {
    __int128 a = mant();
    std::int64_t ea = exp_;
    if (b == 0) return true;
    if (a == 0) {
      set_inline(b, eb);
      return true;
    }
    if (ea < eb) {
      std::swap(a, b);
      std::swap(ea, eb);
    }
    // Align the operand with the larger exponent down to the smaller one.
    const std::int64_t gap = ea - eb;
    if (gap > 0) {
      const auto raw = static_cast<unsigned __int128>(a);
      const unsigned __int128 mag = a < 0 ? -raw : raw;
      const auto high = static_cast<std::uint64_t>(mag >> 64);
      const int width = high != 0 ? 128 - std::countl_zero(high)
                                  : 64 - std::countl_zero(static_cast<std::uint64_t>(mag));
      if (gap > 126 || width + gap > 127) return false;
      a <<= gap;  // exact: headroom checked above
    }
    __int128 sum = 0;
    if (__builtin_add_overflow(a, b, &sum)) return false;
    set_inline(sum, eb);
    return true;
  }
  /// The out-of-line rest of += / -=: *this += sign_mult * rhs.
  void add_big(const Rational& rhs, int sign_mult);
  /// The out-of-line rest of *=.
  void multiply_big(const Rational& rhs);

  /// Dyadic operand access: returns num with value == num * 2^exponent,
  /// referencing the stored BigInt or filling `store` (at most 128 bits: no
  /// heap) for inline values. Requires is_dyadic().
  [[nodiscard]] const BigInt& dyadic_num(BigInt& store, std::int64_t& exponent) const;
  /// General operand access without materializing copies of big values.
  [[nodiscard]] const BigInt& num_ref(BigInt& store) const;
  [[nodiscard]] const BigInt& den_ref(BigInt& store) const;

  // Inline tier: the value is mant() * 2^exp_. Big tier: exp_ == kBigTier
  // and lo_ holds the owned Big*.
  std::uint64_t lo_ = 0;
  std::uint64_t hi_ = 0;
  std::int64_t exp_ = 0;
};

}  // namespace aurv::numeric
