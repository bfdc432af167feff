// Randomized differential tests: the numeric layer's fast paths (SBO
// BigInt in-place ops, dyadic-tagged Rational shift-align arithmetic) must
// be bit-exact against the slow/general paths over mixed small / huge /
// dyadic / non-dyadic operands, including the tier-transition boundaries
// (127 significant bits for the Rational inline tier, 2-limb -> 3-limb
// spill for the BigInt small buffer).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "numeric/bigint.hpp"
#include "numeric/rational.hpp"

namespace aurv::numeric {
namespace {

using u64 = std::uint64_t;

// ---------------------------------------------------------------- BigInt --

/// Reference addition via the public string round-trip is overkill; instead
/// cross-check the in-place ops against the expression forms, which share
/// only the primitive magnitude helpers, and against algebraic identities.
BigInt random_bigint(std::mt19937_64& rng, int max_limbs) {
  std::uniform_int_distribution<int> limb_count(0, max_limbs);
  std::uniform_int_distribution<u64> limb;
  const int limbs = limb_count(rng);
  BigInt value;
  for (int i = 0; i < limbs; ++i) {
    value <<= 64;
    value += BigInt(limb(rng));
  }
  // Bias toward boundary shapes: exact powers of two, all-ones, tiny.
  switch (rng() % 8) {
    case 0: value = BigInt::pow2(static_cast<u64>(rng() % 200)); break;
    case 1: value = BigInt::pow2(static_cast<u64>(rng() % 200)) - BigInt(1); break;
    case 2: value = BigInt(static_cast<long long>(rng() % 5)); break;
    default: break;
  }
  if (rng() % 2 == 0) value = -value;
  return value;
}

TEST(FastPathBigInt, AddSubRoundTrip) {
  std::mt19937_64 rng(20260729);
  for (int round = 0; round < 4000; ++round) {
    const BigInt a = random_bigint(rng, 5);
    const BigInt b = random_bigint(rng, 5);
    BigInt acc = a;
    acc += b;                       // in-place (capacity-reusing) path
    EXPECT_EQ(acc, a + b);          // expression path
    EXPECT_EQ(acc - b, a);          // subtraction inverts addition
    EXPECT_EQ(acc - a, b);
    BigInt neg = a;
    neg -= b;
    EXPECT_EQ(neg, a - b);
    EXPECT_EQ(neg + b, a);
  }
}

TEST(FastPathBigInt, AddShiftedMatchesShiftThenAdd) {
  std::mt19937_64 rng(42);
  for (int round = 0; round < 4000; ++round) {
    const BigInt a = random_bigint(rng, 5);
    const BigInt b = random_bigint(rng, 5);
    const u64 shift = rng() % 200;
    const int sign_mult = rng() % 2 == 0 ? 1 : -1;
    BigInt fast = a;
    fast.add_shifted(b, shift, sign_mult);
    const BigInt slow = sign_mult > 0 ? a + (b << shift) : a - (b << shift);
    EXPECT_EQ(fast, slow) << "a=" << a.to_string() << " b=" << b.to_string()
                          << " shift=" << shift << " sign=" << sign_mult;
  }
}

TEST(FastPathBigInt, SpillBoundaryTwoToThreeLimbs) {
  // 2^128 is the first value that cannot live in the 2-limb inline buffer.
  const BigInt below = BigInt::pow2(128) - BigInt(1);
  EXPECT_TRUE(below.is_inline());
  BigInt spilled = below;
  spilled += BigInt(1);
  EXPECT_FALSE(spilled.is_inline());
  EXPECT_EQ(spilled, BigInt::pow2(128));
  // Arithmetic across the spill stays exact both directions.
  spilled -= BigInt(1);
  EXPECT_EQ(spilled, below);
  EXPECT_EQ(spilled.to_string(), below.to_string());
  // Shift across the boundary and back.
  BigInt shifted = BigInt::pow2(127);
  EXPECT_TRUE(shifted.is_inline());
  shifted <<= 1;
  EXPECT_EQ(shifted, BigInt::pow2(128));
  shifted >>= 1;
  EXPECT_EQ(shifted, BigInt::pow2(127));
}

TEST(FastPathBigInt, MulSmallFastPathMatchesSchoolbook) {
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<u64> limb;
  for (int round = 0; round < 2000; ++round) {
    // One-limb operands take the 64x64 fast path; cross-check against the
    // same product computed through multi-limb operands.
    const u64 raw_a = limb(rng);
    const u64 raw_b = limb(rng);
    const BigInt a(raw_a);
    const BigInt b(raw_b);
    const BigInt fast = a * b;
    BigInt slow = a << 64;  // two-limb shape of the same magnitude, scaled
    slow *= b;
    EXPECT_EQ(fast << 64, slow);
    const unsigned __int128 expect =
        static_cast<unsigned __int128>(raw_a) * raw_b;
    EXPECT_EQ(fast, (BigInt(static_cast<unsigned long long>(expect >> 64)) << 64) +
                        BigInt(static_cast<unsigned long long>(expect)));
  }
}

// -------------------------------------------------------------- Rational --

/// General-path reference: combine through BigInt cross multiplication and
/// gcd-canonicalize explicitly, bypassing every dyadic shortcut.
Rational ref_add(const Rational& a, const Rational& b, int sign_mult) {
  const BigInt an = a.numerator(), ad = a.denominator();
  const BigInt bn = b.numerator(), bd = b.denominator();
  BigInt num = an * bd;
  if (sign_mult > 0) {
    num += bn * ad;
  } else {
    num -= bn * ad;
  }
  BigInt den = ad * bd;
  if (num.is_zero()) return Rational(0);
  const BigInt g = BigInt::gcd(num, den);
  return Rational(num / g, den / g);
}

Rational ref_mul(const Rational& a, const Rational& b) {
  return Rational(a.numerator() * b.numerator(), a.denominator() * b.denominator());
}

int ref_compare(const Rational& a, const Rational& b) {
  const BigInt left = a.numerator() * b.denominator();
  const BigInt right = b.numerator() * a.denominator();
  if (left < right) return -1;
  if (left > right) return 1;
  return 0;
}

/// Mixed operand pool: inline/big x dyadic/non-dyadic, clustered around the
/// inline tier's 127-bit mantissa limit, 62-bit parts and the paper's huge
/// phase waits.
Rational random_rational(std::mt19937_64& rng) {
  const auto small = [&]() -> long long {
    return static_cast<long long>(rng() % 2048) - 1024;
  };
  switch (rng() % 9) {
    case 0:  // small non-dyadic
      return Rational(BigInt(small()), BigInt(small() * 2 + 1));
    case 1:  // small dyadic
      return Rational::dyadic(small(), rng() % 10);
    case 2:  // non-dyadic with numerators straddling 2^62
      return Rational(BigInt::pow2(62) + BigInt(small()), BigInt(small() * 2 + 1));
    case 3:  // dyadic with den straddling 2^61..2^63
      return Rational::dyadic(small() * 2 + 1, 60 + rng() % 4);
    case 4:  // huge dyadic (phase-wait shape)
      return Rational::pow2(100 + rng() % 300) + Rational::dyadic(small(), 1 + rng() % 12);
    case 5:  // huge non-dyadic
      return Rational(BigInt::pow2(100 + rng() % 200) + BigInt(small()),
                      BigInt::pow2(50) + BigInt(3));
    case 6:  // negative huge dyadic
      return -(Rational::pow2(100 + rng() % 300) + Rational::dyadic(small(), 1 + rng() % 12));
    case 7: {  // inline tier's wide end: 63..127-bit mantissa, large exponent
      const unsigned width = 63 + static_cast<unsigned>(rng() % 65);
      BigInt mantissa = BigInt::pow2(width - 1) + (BigInt(rng() >> 2) << (width - 63)) + BigInt(1);
      if (rng() % 2 == 0) mantissa.negate();
      const long long exponent = static_cast<long long>(rng() % 2001) - 1000;
      if (exponent >= 0) return Rational(mantissa << static_cast<std::uint64_t>(exponent));
      return Rational(mantissa, BigInt::pow2(static_cast<std::uint64_t>(-exponent)));
    }
    default:  // zero and integers
      return Rational(small());
  }
}

/// The inline tier's rule, computed without the tier code: a dyadic with at
/// most 127 significant bits.
bool fits_inline_tier(const Rational& value) {
  if (!value.denominator().is_pow2()) return false;
  const BigInt num = value.numerator();
  return num.is_zero() || num.bit_length() - num.trailing_zero_bits() <= 127;
}

void expect_same(const Rational& fast, const Rational& reference, const char* what,
                 const Rational& a, const Rational& b) {
  EXPECT_EQ(fast, reference) << what << "\n  a = " << a.to_string()
                             << "\n  b = " << b.to_string()
                             << "\n  fast = " << fast.to_string()
                             << "\n  ref  = " << reference.to_string();
  // Representation must be canonical and tier-correct, not just equal.
  EXPECT_EQ(fast.numerator(), reference.numerator()) << what;
  EXPECT_EQ(fast.denominator(), reference.denominator()) << what;
  EXPECT_EQ(fast.is_inline(), fits_inline_tier(reference)) << what;
}

TEST(FastPathRational, AddSubDifferential) {
  std::mt19937_64 rng(20260729);
  for (int round = 0; round < 3000; ++round) {
    const Rational a = random_rational(rng);
    const Rational b = random_rational(rng);
    Rational sum = a;
    sum += b;
    expect_same(sum, ref_add(a, b, 1), "a += b", a, b);
    Rational diff = a;
    diff -= b;
    expect_same(diff, ref_add(a, b, -1), "a -= b", a, b);
    // Round trip restores the original representation exactly.
    Rational back = sum;
    back -= b;
    expect_same(back, a, "(a + b) - b", a, b);
  }
}

TEST(FastPathRational, MulDivDifferential) {
  std::mt19937_64 rng(99);
  for (int round = 0; round < 3000; ++round) {
    const Rational a = random_rational(rng);
    const Rational b = random_rational(rng);
    Rational product = a;
    product *= b;
    expect_same(product, ref_mul(a, b), "a *= b", a, b);
    if (!b.is_zero()) {
      Rational quotient = a;
      quotient /= b;
      expect_same(quotient, ref_mul(a, b.reciprocal()), "a /= b", a, b);
    }
  }
}

TEST(FastPathRational, CompareDifferential) {
  std::mt19937_64 rng(123);
  for (int round = 0; round < 5000; ++round) {
    const Rational a = random_rational(rng);
    const Rational b = random_rational(rng);
    const int reference = ref_compare(a, b);
    const std::strong_ordering fast = a <=> b;
    const int got = fast < 0 ? -1 : (fast > 0 ? 1 : 0);
    EXPECT_EQ(got, reference) << "a = " << a.to_string() << "\nb = " << b.to_string();
    EXPECT_EQ(a == b, reference == 0);
  }
}

TEST(FastPathRational, SelfAliasingOps) {
  std::mt19937_64 rng(5);
  for (int round = 0; round < 500; ++round) {
    const Rational a = random_rational(rng);
    Rational doubled = a;
    doubled += doubled;
    expect_same(doubled, ref_add(a, a, 1), "x += x", a, a);
    Rational zero = a;
    zero -= zero;
    EXPECT_TRUE(zero.is_zero()) << a.to_string();
    EXPECT_TRUE(zero.is_inline());
    Rational squared = a;
    squared *= squared;
    expect_same(squared, ref_mul(a, a), "x *= x", a, a);
  }
}

TEST(FastPathRational, InlineTierBoundaryExact) {
  // 2^127 - 1 is the widest inline mantissa; one more significant bit
  // promotes.
  const Rational max_inline(BigInt::pow2(127) - BigInt(1));
  EXPECT_TRUE(max_inline.is_inline());
  Rational promoted = max_inline;
  promoted += Rational(2);
  EXPECT_FALSE(promoted.is_inline());
  EXPECT_EQ(promoted.numerator(), BigInt::pow2(127) + BigInt(1));
  // And the demotion on the way back down is exact.
  promoted -= Rational(2);
  EXPECT_TRUE(promoted.is_inline());
  EXPECT_EQ(promoted, max_inline);
  // Only significant bits count, not magnitude: exponents are free.
  EXPECT_TRUE(Rational::dyadic(1, 61).is_inline());
  EXPECT_TRUE(Rational::dyadic(1, 62).is_inline());
  EXPECT_EQ(Rational::dyadic(1, 61) * Rational::dyadic(1, 1), Rational::dyadic(1, 62));
  EXPECT_TRUE((max_inline * Rational::pow2(5000)).is_inline());
  EXPECT_TRUE((max_inline * Rational::dyadic(1, 5000)).is_inline());
  EXPECT_FALSE(((Rational::pow2(127) + Rational(1)) * Rational::dyadic(1, 3000)).is_inline());
  // A mantissa product past 127 bits promotes; a shift-align sum whose
  // aligned operand overflows comes back inline when the result fits.
  const Rational wide = Rational::pow2(64) + Rational(1);
  EXPECT_FALSE((wide * wide).is_inline());
  const Rational sum = (Rational::pow2(300) + Rational(1)) - Rational::pow2(300);
  EXPECT_TRUE(sum.is_inline());
  EXPECT_EQ(sum, Rational(1));
  // Non-dyadic values are big however small.
  EXPECT_FALSE(Rational(BigInt(1), BigInt(3)).is_inline());
}

TEST(FastPathRational, DyadicObservability) {
  EXPECT_TRUE(Rational(0).is_dyadic());
  EXPECT_TRUE(Rational(7).is_dyadic());
  EXPECT_TRUE(Rational::dyadic(3, 5).is_dyadic());
  EXPECT_TRUE((Rational::pow2(375) + Rational::dyadic(3, 7)).is_dyadic());
  EXPECT_FALSE(Rational(BigInt(1), BigInt(3)).is_dyadic());
  EXPECT_FALSE(Rational(BigInt(1), BigInt::pow2(100) + BigInt(1)).is_dyadic());
  // Dyadic-ness is a property of the value, surviving arithmetic that
  // cancels the odd parts: (1/3) * 3 = 1 is dyadic again.
  EXPECT_TRUE((Rational(BigInt(1), BigInt(3)) * Rational(3)).is_dyadic());
}

TEST(FastPathRational, FloorCeilDifferential) {
  std::mt19937_64 rng(17);
  for (int round = 0; round < 2000; ++round) {
    const Rational a = random_rational(rng);
    const BigInt::DivModResult dm = BigInt::divmod(a.numerator(), a.denominator());
    BigInt floor_ref = dm.quotient;
    if (a.is_negative() && !dm.remainder.is_zero()) floor_ref -= BigInt(1);
    BigInt ceil_ref = dm.quotient;
    if (!a.is_negative() && !dm.remainder.is_zero()) ceil_ref += BigInt(1);
    EXPECT_EQ(a.floor(), floor_ref) << a.to_string();
    EXPECT_EQ(a.ceil(), ceil_ref) << a.to_string();
  }
}

}  // namespace
}  // namespace aurv::numeric
