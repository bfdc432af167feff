// Unit and property tests for numeric::Rational — the exact time type.
#include "numeric/rational.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace aurv::numeric {
namespace {

TEST(Rational, DefaultIsZero) {
  const Rational zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_TRUE(zero.is_integer());
  EXPECT_EQ(zero.to_string(), "0");
}

TEST(Rational, NormalizationInvariants) {
  const Rational r(BigInt(6), BigInt(-4));
  EXPECT_EQ(r.numerator(), BigInt(-3));
  EXPECT_EQ(r.denominator(), BigInt(2));
  const Rational z(BigInt(0), BigInt(-7));
  EXPECT_EQ(z.denominator(), BigInt(1));
  EXPECT_THROW(Rational(BigInt(1), BigInt(0)), std::logic_error);
}

TEST(Rational, DyadicConstruction) {
  EXPECT_EQ(Rational::dyadic(1, 3), Rational(BigInt(1), BigInt(8)));
  EXPECT_EQ(Rational::dyadic(4, 2), Rational(1));
  EXPECT_EQ(Rational::dyadic(-3, 1), Rational(BigInt(-3), BigInt(2)));
  EXPECT_EQ(Rational::pow2(15), Rational(32768));
}

TEST(Rational, FromStringFormats) {
  EXPECT_EQ(Rational::from_string("5"), Rational(5));
  EXPECT_EQ(Rational::from_string("-3/6"), Rational(BigInt(-1), BigInt(2)));
  EXPECT_EQ(Rational::from_string("10/4").to_string(), "5/2");
  EXPECT_THROW((void)Rational::from_string("1/"), std::invalid_argument);
}

TEST(Rational, FromDoubleIsExact) {
  EXPECT_EQ(Rational::from_double(0.0), Rational(0));
  EXPECT_EQ(Rational::from_double(1.0), Rational(1));
  EXPECT_EQ(Rational::from_double(0.5), Rational::dyadic(1, 1));
  EXPECT_EQ(Rational::from_double(-0.75), Rational::dyadic(-3, 2));
  EXPECT_EQ(Rational::from_double(std::ldexp(1.0, 100)), Rational::pow2(100));
  // 0.1 is not exactly 1/10 in binary; the conversion must reproduce the
  // double's exact dyadic value, which converts back bit-identically.
  const Rational tenth = Rational::from_double(0.1);
  EXPECT_NE(tenth, Rational(BigInt(1), BigInt(10)));
  EXPECT_EQ(tenth.to_double(), 0.1);
  EXPECT_THROW((void)Rational::from_double(std::nan("")), std::invalid_argument);
  EXPECT_THROW((void)Rational::from_double(INFINITY), std::invalid_argument);
}

TEST(Rational, ArithmeticKnownValues) {
  const Rational half = Rational::dyadic(1, 1);
  const Rational third(BigInt(1), BigInt(3));
  EXPECT_EQ(half + third, Rational(BigInt(5), BigInt(6)));
  EXPECT_EQ(half - third, Rational(BigInt(1), BigInt(6)));
  EXPECT_EQ(half * third, Rational(BigInt(1), BigInt(6)));
  EXPECT_EQ(half / third, Rational(BigInt(3), BigInt(2)));
  EXPECT_EQ(-half, Rational(BigInt(-1), BigInt(2)));
  EXPECT_EQ((-half).abs(), half);
  EXPECT_EQ(third.reciprocal(), Rational(3));
  EXPECT_THROW((void)Rational(0).reciprocal(), std::logic_error);
  EXPECT_THROW((void)(half / Rational(0)), std::logic_error);
}

TEST(Rational, ComparisonCrossMultiplies) {
  EXPECT_LT(Rational(BigInt(1), BigInt(3)), Rational(BigInt(1), BigInt(2)));
  EXPECT_LT(Rational(BigInt(-1), BigInt(2)), Rational(BigInt(-1), BigInt(3)));
  EXPECT_EQ(Rational(BigInt(2), BigInt(4)), Rational(BigInt(1), BigInt(2)));
  EXPECT_EQ(min(Rational(1), Rational(2)), Rational(1));
  EXPECT_EQ(max(Rational(1), Rational(2)), Rational(2));
}

TEST(Rational, HugeTimesWithTinyOffsetsStayExact) {
  // The scenario that forced exact time: a phase-4 wait of 2^240 followed
  // by a sub-unit move. Double would collapse the offset entirely.
  const Rational huge = Rational::pow2(240);
  const Rational offset = Rational::dyadic(3, 5);  // 3/32
  const Rational sum = huge + offset;
  EXPECT_GT(sum, huge);
  EXPECT_EQ(sum - huge, offset);
  EXPECT_LT(huge, sum);
  // Double view saturates (cannot see the offset) but stays finite/ordered.
  EXPECT_EQ(sum.to_double(), huge.to_double());
}

TEST(Rational, FloorCeil) {
  EXPECT_EQ(Rational(BigInt(7), BigInt(2)).floor(), BigInt(3));
  EXPECT_EQ(Rational(BigInt(7), BigInt(2)).ceil(), BigInt(4));
  EXPECT_EQ(Rational(BigInt(-7), BigInt(2)).floor(), BigInt(-4));
  EXPECT_EQ(Rational(BigInt(-7), BigInt(2)).ceil(), BigInt(-3));
  EXPECT_EQ(Rational(5).floor(), BigInt(5));
  EXPECT_EQ(Rational(5).ceil(), BigInt(5));
}

TEST(Rational, ToDoubleAccuracy) {
  EXPECT_DOUBLE_EQ(Rational(BigInt(1), BigInt(3)).to_double(), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(Rational(BigInt(-2), BigInt(7)).to_double(), -2.0 / 7.0);
  // Huge numerator and denominator that individually overflow double.
  const Rational ratio(BigInt::pow2(1100) * BigInt(3), BigInt::pow2(1100));
  EXPECT_DOUBLE_EQ(ratio.to_double(), 3.0);
  const Rational tiny(BigInt(3), BigInt::pow2(80));
  EXPECT_DOUBLE_EQ(tiny.to_double(), 3.0 * std::ldexp(1.0, -80));
}

TEST(Rational, ToStringFormats) {
  EXPECT_EQ(Rational(BigInt(4), BigInt(2)).to_string(), "2");
  EXPECT_EQ(Rational(BigInt(-3), BigInt(9)).to_string(), "-1/3");
}


TEST(Rational, TierInvariants) {
  // Any dyadic with at most 127 significant bits is stored in the inline
  // tier, whatever its magnitude; wider dyadics and every non-dyadic are
  // big, and values promote and demote transparently.
  EXPECT_TRUE(Rational(0).is_inline());
  EXPECT_TRUE(Rational::dyadic(3, 40).is_inline());
  EXPECT_TRUE(Rational::pow2(61).is_inline());
  EXPECT_TRUE(Rational::pow2(70).is_inline());
  EXPECT_TRUE(Rational::pow2(5000).is_inline());
  EXPECT_FALSE((Rational::pow2(127) + Rational(1)).is_inline());
  EXPECT_FALSE(Rational(BigInt(2), BigInt(3)).is_inline());
  // Arithmetic that cancels the huge parts demotes back to inline.
  const Rational huge = Rational::pow2(200) + Rational::dyadic(3, 5);
  EXPECT_FALSE(huge.is_inline());
  const Rational small_again = huge - Rational::pow2(200);
  EXPECT_TRUE(small_again.is_inline());
  EXPECT_EQ(small_again, Rational::dyadic(3, 5));
  // Inline overflow promotes: (2^64 + 1)^2 has 129 significant bits.
  const Rational wide = Rational::pow2(64) + Rational(1);
  const Rational squared = wide * wide;
  EXPECT_FALSE(squared.is_inline());
  EXPECT_EQ(squared, Rational::pow2(128) + Rational::pow2(65) + Rational(1));
}

TEST(Rational, CrossTierArithmeticAndOrdering) {
  const Rational small = Rational::dyadic(7, 3);
  const Rational big = Rational(BigInt::pow2(200) + BigInt(1), BigInt::pow2(80));
  EXPECT_TRUE(small.is_inline());
  EXPECT_FALSE(big.is_inline());
  // A small non-dyadic is big-tier too, and mixes with both.
  const Rational third = Rational(BigInt(7), BigInt(3));
  EXPECT_FALSE(third.is_inline());
  EXPECT_LT(small, third);
  EXPECT_EQ((third + small) - small, third);
  EXPECT_EQ((third * small) / small, third);
  EXPECT_LT(small, big);
  EXPECT_GT(big, small);
  EXPECT_NE(small, big);
  const Rational sum = small + big;
  EXPECT_EQ(sum - big, small);
  EXPECT_EQ(sum - small, big);
  const Rational product = small * big;
  EXPECT_EQ(product / big, small);
  // Copy semantics across tiers (deep copy of the big payload).
  Rational copy = big;
  copy += Rational(1);
  EXPECT_NE(copy, big);
  EXPECT_EQ(copy - Rational(1), big);
}

TEST(Rational, InlineBoundaryPromotion) {
  // Values straddling the 127-significant-bit inline bound: arithmetic
  // stays exact.
  const Rational just_under = Rational(BigInt::pow2(127) - BigInt(1));
  const Rational just_over = just_under + Rational(2);
  EXPECT_TRUE(just_under.is_inline());
  EXPECT_FALSE(just_over.is_inline());
  EXPECT_EQ(just_over - just_under, Rational(2));
  EXPECT_EQ(just_over.numerator(), BigInt::pow2(127) + BigInt(1));
  // Long long constructor beyond the bound promotes.
  const Rational max_ll(std::numeric_limits<long long>::max());
  EXPECT_EQ(max_ll.numerator(), BigInt(std::numeric_limits<long long>::max()));
}

class RationalRandomProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RationalRandomProperty, FieldAxiomsAndOrdering) {
  std::mt19937_64 rng(GetParam() * 1337 + 7);
  std::uniform_int_distribution<long long> num(-1000000, 1000000);
  std::uniform_int_distribution<long long> den(1, 1000);
  const auto random_rational = [&] { return Rational(BigInt(num(rng)), BigInt(den(rng))); };
  for (int iteration = 0; iteration < 300; ++iteration) {
    const Rational a = random_rational();
    const Rational b = random_rational();
    const Rational c = random_rational();
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a - b + b, a);
    if (!b.is_zero()) {
      EXPECT_EQ(a / b * b, a);
    }
    // Ordering is consistent with subtraction sign.
    EXPECT_EQ(a < b, (a - b).is_negative());
    // Double view is monotone-consistent for values this small.
    if (a != b) {
      EXPECT_EQ(a < b, a.to_double() < b.to_double());
    }
    // gcd-normalized: numerator and denominator coprime.
    EXPECT_EQ(BigInt::gcd(a.numerator(), a.denominator()), BigInt(1));
  }
}

TEST_P(RationalRandomProperty, FromDoubleRoundTripsExactly) {
  std::mt19937_64 rng(GetParam() * 31 + 5);
  std::uniform_real_distribution<double> dist(-1e9, 1e9);
  for (int iteration = 0; iteration < 300; ++iteration) {
    const double value = dist(rng);
    EXPECT_EQ(Rational::from_double(value).to_double(), value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RationalRandomProperty, ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace aurv::numeric
