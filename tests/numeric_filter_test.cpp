// Differential tests for the filtered numeric kernel: every tier of the
// ladder (double interval, Rational's inline dyadic tier, Rational's big
// tier) must return the same answer the Rational authority would, the
// interval tier must always enclose the true value, and Rational::to_double
// must reproduce a pinned table of bit patterns, since artifact bytes are
// printed from those doubles. Includes constructed near-ties whose
// intervals overlap, forcing the deeper tiers to settle the comparison.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <compare>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "agents/instance.hpp"
#include "core/almost_universal.hpp"
#include "numeric/filter.hpp"
#include "numeric/rational.hpp"
#include "sim/engine.hpp"

namespace aurv::numeric {
namespace {

/// RAII toggle for the global exact-only mode: restores the previous mode
/// so tests never leak the flag into each other (the suite also runs with
/// AURV_EXACT_ONLY=1 in CI, where the ambient mode is on).
class ExactOnlyGuard {
 public:
  explicit ExactOnlyGuard(bool exact_only) : previous_(filter_exact_only()) {
    set_filter_exact_only(exact_only);
  }
  ~ExactOnlyGuard() { set_filter_exact_only(previous_); }

 private:
  bool previous_;
};

bool same_double_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Random rationals spanning every tier: small dyadics (interval points),
/// dyadics wider than a double (inline tier), and wide dyadics and
/// non-dyadics (big tier).
Rational random_rational(std::mt19937_64& rng) {
  const auto small = [&](std::uint64_t bound) {
    return static_cast<long long>(rng() % bound) - static_cast<long long>(bound / 2);
  };
  switch (rng() % 6) {
    case 0:  // small integer
      return Rational(small(1000));
    case 1:  // small dyadic: exactly representable as a double
      return Rational::dyadic(small(1 << 20), rng() % 30);
    case 2:  // inline-tier dyadic beyond double's mantissa
      return Rational::pow2(40 + rng() % 40) + Rational::dyadic(small(1 << 20), rng() % 50);
    case 3:  // wide dyadic: > 127 significant bits, big tier
      return Rational::pow2(150 + rng() % 100) + Rational::dyadic(1 + small(64) % 7, 30 + rng() % 30);
    case 4:  // non-dyadic: always big tier
      return Rational(BigInt(small(10000)), BigInt(1 + rng() % 97));
    default:  // huge magnitude integer
      return Rational::pow2(300 + rng() % 80) - Rational(small(50));
  }
}

TEST(FilteredKernel, ComparisonMatchesRationalAcrossAllTiers) {
  std::mt19937_64 rng(20260807);
  for (int round = 0; round < 4000; ++round) {
    const Rational ra = random_rational(rng);
    const Rational rb = rng() % 8 == 0 ? ra : random_rational(rng);
    const Filtered a(ra);
    const Filtered b(rb);
    EXPECT_EQ(a <=> b, ra <=> rb) << ra.to_string() << " vs " << rb.to_string();
    EXPECT_EQ(a == b, ra == rb);
  }
}

TEST(FilteredKernel, NearTiesInsideIntervalOverlapEscalateCorrectly) {
  // Pairs whose 2-ulp double intervals overlap; the interval tier must
  // refuse and the deeper tier named in the comment must settle them.
  struct Case {
    Rational lhs;
    Rational rhs;
  };
  const std::vector<Case> cases = {
      // Inline tier: identical leading 60 bits, tail differs.
      {Rational::pow2(60) + Rational::dyadic(3, 60), Rational::pow2(60) + Rational::dyadic(5, 61)},
      // Inline tier: exact tie spelled two ways.
      {Rational::pow2(60) + Rational::dyadic(2, 60), Rational::pow2(60) + Rational::dyadic(1, 59)},
      // Big tier (> 127 significant bits): tail below double visibility.
      {Rational::pow2(200) + Rational::dyadic(1, 100),
       Rational::pow2(200) + Rational::dyadic(1, 101)},
      // Non-dyadic equality spelled two ways.
      {Rational(BigInt(1), BigInt(3)), Rational(BigInt(2), BigInt(6))},
      // Non-dyadic near-tie.
      {Rational(BigInt(1), BigInt(3)), Rational(BigInt(333333333), BigInt(1000000000))},
  };
  for (const Case& c : cases) {
    const Filtered a(c.lhs);
    const Filtered b(c.rhs);
    EXPECT_EQ(a <=> b, c.lhs <=> c.rhs) << c.lhs.to_string() << " vs " << c.rhs.to_string();
    EXPECT_EQ(b <=> a, c.rhs <=> c.lhs);
  }
}

TEST(FilteredKernel, ComparisonCountsExactlyOneTierPerDecision) {
  // Tier attribution is only meaningful with the ladder live; under the
  // ambient exact-only mode every decision is (correctly) an exact escape.
  ExactOnlyGuard guard(false);
  FilterStats& stats = filter_stats();
  const auto total = [&] { return stats.fast_hits + stats.limb2_hits + stats.exact_escapes; };

  const Filtered small_a(Rational::dyadic(3, 7));
  const Filtered small_b(Rational::dyadic(5, 9));
  std::uint64_t before = total();
  const std::uint64_t fast_before = stats.fast_hits;
  (void)(small_a < small_b);
  EXPECT_EQ(total(), before + 1);
  EXPECT_EQ(stats.fast_hits, fast_before + 1);

  const Filtered tie_a(Rational::pow2(60) + Rational::dyadic(3, 60));
  const Filtered tie_b(Rational::pow2(60) + Rational::dyadic(5, 61));
  before = total();
  const std::uint64_t limb2_before = stats.limb2_hits;
  (void)(tie_a < tie_b);
  EXPECT_EQ(total(), before + 1);
  EXPECT_EQ(stats.limb2_hits, limb2_before + 1);

  const Filtered deep_a(Rational(BigInt(1), BigInt(3)));
  const Filtered deep_b(Rational(BigInt(2), BigInt(6)));
  before = total();
  const std::uint64_t exact_before = stats.exact_escapes;
  (void)(deep_a == deep_b);
  EXPECT_EQ(total(), before + 1);
  EXPECT_EQ(stats.exact_escapes, exact_before + 1);
}

TEST(FilteredKernel, ArithmeticMatchesRationalAcrossTierTransitions) {
  std::mt19937_64 rng(424242);
  for (int round = 0; round < 2000; ++round) {
    const Rational ra = random_rational(rng);
    const Rational rb = random_rational(rng);
    Filtered sum(ra);
    sum += Filtered(rb);
    EXPECT_EQ(sum.to_rational(), ra + rb);
    Filtered diff(ra);
    diff -= Filtered(rb);
    EXPECT_EQ(diff.to_rational(), ra - rb);
    Filtered prod(ra);
    prod *= Filtered(rb);
    EXPECT_EQ(prod.to_rational(), ra * rb);
  }
}

TEST(FilteredKernel, IntervalAlwaysEnclosesAndPointsAreExact) {
  std::mt19937_64 rng(777);
  for (int round = 0; round < 2000; ++round) {
    const Rational value = random_rational(rng);
    const Filtered filtered(value);
    const FInterval interval = filtered.interval();
    EXPECT_LE(Rational::from_double(interval.lo), value) << value.to_string();
    EXPECT_GE(Rational::from_double(interval.hi), value) << value.to_string();
    if (interval.is_point()) {
      EXPECT_EQ(Rational::from_double(interval.lo), value)
          << "point interval must mean exactly representable: " << value.to_string();
    }
  }
}

/// Parses one side of a pinned-table value: a sum of signed terms, each a
/// product of decimal integers and powers 2^k ("2^100+2^47+1", "3*2^300+1").
BigInt parse_side(std::string_view text) {
  BigInt total;
  while (!text.empty()) {
    const std::size_t end = std::min(text.find_first_of("+-", 1), text.size());
    std::string_view term = text.substr(0, end);
    text.remove_prefix(end);
    const bool negative = term.front() == '-';
    if (term.front() == '-' || term.front() == '+') term.remove_prefix(1);
    BigInt product(1);
    while (!term.empty()) {
      const std::size_t star = std::min(term.find('*'), term.size());
      const std::string_view factor = term.substr(0, star);
      product *= factor.starts_with("2^") ? BigInt::pow2(std::stoull(std::string(factor.substr(2))))
                                          : BigInt::from_string(factor);
      term.remove_prefix(std::min(star + 1, term.size()));
    }
    total += negative ? -product : product;
  }
  return total;
}

/// "N" or "N/D", each side in parse_side's syntax.
Rational parse_pinned(std::string_view text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) return Rational(parse_side(text));
  return Rational(parse_side(text.substr(0, slash)), parse_side(text.substr(slash + 1)));
}

TEST(FilteredKernel, ToDoubleMatchesPinnedTable) {
  // Bit patterns produced by Rational::to_double when small values were an
  // int64 pair and 63..127-bit dyadics lived in a separate filter tier. The
  // rule is truncate-to-62-bits-then-round, not correct rounding (see the
  // truncation ties), so every representation must keep reproducing it.
  struct Pinned {
    const char* value;
    std::uint64_t bits;
    const char* shape;
  };
  const std::vector<Pinned> table = {
      {"1/3", 0x3fd5555555555555, "non-dyadic"},  // 0.33333333333333331
      {"-2/7", 0xbfd2492492492492, "non-dyadic, negative"},  // -0.2857142857142857
      {"3/2^10", 0x3f68000000000000, "dyadic, exact double"},  // 0.0029296875
      {"2^62-1", 0x43d0000000000000, "largest old int64-tier integer"},  // 4.6116860184273879e+18
      {"-2^62+1/2^61", 0xc000000000000000, "62-bit numerator over 2^61"},  // -2
      {"2^53+1", 0x4340000000000000, "54-bit integer, half-even tie"},  // 9007199254740992
      {"2^61+2^8+1/2^30", 0x41e0000000000001, "62-bit numerator over 2^30"},  // 2147483648.0000005
      {"2^62-1/3", 0x43b5555555555555, "62-bit non-dyadic"},  // 1.5372286728091292e+18
      {"2^61-1/2^62-1", 0x3fe0000000000000, "non-dyadic, 61- and 62-bit parts"},  // 0.5
      {"2^62", 0x43d0000000000000, "first integer past the old int64 tier"},  // 4.6116860184273879e+18
      {"2^62+1", 0x43d0000000000000, "63-bit odd integer"},  // 4.6116860184273879e+18
      {"2^100+2^47+1", 0x4630000000000000, "101 bits: 62-bit truncation makes a tie"},  // 1.2676506002282294e+30
      {"-2^100-2^47-1", 0xc630000000000000, "negative truncation tie"},  // -1.2676506002282294e+30
      {"2^100+2^47", 0x4630000000000000, "101 bits: exact tie"},  // 1.2676506002282294e+30
      {"2^100+1/2^40", 0x43b0000000000000, "101-bit numerator over 2^40"},  // 1.152921504606847e+18
      {"2^126+2^70+1/2^3", 0x47a0000000000000, "127-bit numerator over 2^3"},  // 1.0633823966279327e+37
      {"2^126+2^73+1/2^120", 0x4050000000000000, "127-bit numerator over 2^120"},  // 64
      {"2^60+3/2^62", 0x3fd0000000000000, "61-bit numerator over 2^62"},  // 0.25
      {"1/2^120", 0x3870000000000000, "1/2^120"},  // 7.5231638452626401e-37
      {"2^62-3/2^120", 0x3c50000000000000, "62-bit numerator over 2^120"},  // 3.4694469519536142e-18
      {"2^125+1/2^5", 0x4770000000000000, "126-bit numerator over 2^5"},  // 1.3292279957849159e+36
      {"2^70+1/2^1100", 0x0000100000000000, "71-bit numerator, subnormal"},  // 8.6916947597937554e-311
      {"2^60+1/2^1080", 0x0030000000000000, "61-bit numerator, subnormal"},  // 8.9002954340288055e-308
      {"3/2^1075", 0x0000000000000002, "subnormal half-way"},  // 9.8813129168249309e-324
      {"1/2^1074", 0x0000000000000001, "smallest subnormal"},  // 4.9406564584124654e-324
      {"1/2^1100", 0x0000000000000000, "underflows to zero"},  // 0
      {"2^1023", 0x7fe0000000000000, "2^1023"},  // 8.9884656743115795e+307
      {"2^1026+2^900", 0x7ff0000000000000, "127-bit mantissa, 2^900 scale"},  // inf
      {"2^1024", 0x7ff0000000000000, "overflows to infinity"},  // inf
      {"-2^1024", 0xfff0000000000000, "overflows to minus infinity"},  // -inf
      {"2^127+1", 0x47e0000000000000, "128-bit odd integer"},  // 1.7014118346046923e+38
      {"2^200+2^147+1", 0x4c70000000000000, "201 bits: truncation tie"},  // 1.6069380442589903e+60
      {"2^200+1/2^100", 0x4630000000000000, "201-bit numerator over 2^100"},  // 1.2676506002282294e+30
      {"3*2^300+1/3", 0x52b0000000000000, "2^300 + 1/3"},  // 2.0370359763344861e+90
      {"2^150+2^97+1/2^1200", 0x0000000001000000, "151-bit numerator over 2^1200"},  // 8.289046058458095e-317
      {"2^546+3/2^6", 0x61b0000000000000, "phase-wait shape 2^540 + 3/64"},  // 3.5991310356345571e+162
      {"2^100+1/2^50+3", 0x430fffffffffffe8, "non-dyadic, both parts over 62 bits"},  // 1125899906842621
      {"-2^200-7/2^190+1", 0xc090000000000000, "non-dyadic, negative, wide"},  // -1024
  };
  for (const Pinned& row : table) {
    const Rational value = parse_pinned(row.value);
    EXPECT_TRUE(same_double_bits(value.to_double(), std::bit_cast<double>(row.bits)))
        << row.value << " (" << row.shape << "): got " << value.to_double();
    EXPECT_TRUE(same_double_bits(Filtered(value).to_double(), value.to_double())) << row.value;
  }
  // The parser itself: a few rows spelled in plain decimal.
  EXPECT_EQ(parse_pinned("2^62-1"), Rational(std::int64_t{4611686018427387903}));
  EXPECT_EQ(parse_pinned("-2^62+1/2^61"), Rational::dyadic(-4611686018427387903, 61));
  EXPECT_EQ(parse_pinned("3*2^300+1/3"), Rational::pow2(300) + Rational(BigInt(1), BigInt(3)));
}

TEST(FilteredKernel, PointProductMatchesDirectedHelpers) {
  std::mt19937_64 rng(5150);
  std::uniform_real_distribution<double> mantissa(-4.0, 4.0);
  std::uniform_int_distribution<int> exponent(-540, 540);
  for (int round = 0; round < 4000; ++round) {
    const double a = std::ldexp(mantissa(rng), exponent(rng));
    const double b = std::ldexp(mantissa(rng), exponent(rng));
    const FInterval product = FInterval::product(a, b);
    EXPECT_TRUE(same_double_bits(product.lo, filter_detail::mul_down(a, b))) << a << " * " << b;
    EXPECT_TRUE(same_double_bits(product.hi, filter_detail::mul_up(a, b))) << a << " * " << b;
  }
  // Exactness corners: zero factors keep signed-zero parity with the
  // directed helpers; total underflow widens to the denormal pair.
  for (const auto& [a, b] : std::vector<std::pair<double, double>>{
           {0.0, 3.5}, {-0.0, 3.5}, {1e-200, 1e-200}, {-1e-300, 1e-300}}) {
    const FInterval product = FInterval::product(a, b);
    EXPECT_TRUE(same_double_bits(product.lo, filter_detail::mul_down(a, b)));
    EXPECT_TRUE(same_double_bits(product.hi, filter_detail::mul_up(a, b)));
  }
}

TEST(FilteredKernel, ExactOnlyModeAgreesWithFilteredLadder) {
  std::mt19937_64 rng(31337);
  for (int round = 0; round < 500; ++round) {
    const Rational ra = random_rational(rng);
    const Rational rb = rng() % 8 == 0 ? ra : random_rational(rng);
    const std::strong_ordering filtered_order = Filtered(ra) <=> Filtered(rb);
    ExactOnlyGuard guard(true);
    const Filtered a(ra);
    const Filtered b(rb);
    const std::uint64_t escapes_before = filter_stats().exact_escapes;
    EXPECT_EQ(a <=> b, filtered_order);
    EXPECT_EQ(filter_stats().exact_escapes, escapes_before + 1);
  }
}

TEST(FilteredKernel, EngineRunsAreByteIdenticalFilteredVsExactOnly) {
  // The soundness contract made observable: the simulation reaches the same
  // meet time, positions, and event count whichever ladder mode decided the
  // comparisons. This is the in-process twin of the CI byte-compare.
  const auto run = [] {
    sim::EngineConfig config;
    config.max_events = 2000;
    const agents::Instance instance =
        agents::Instance::synchronous(0.25, {37.5, 0.0}, 0.0, 0, 1);
    return sim::Engine(instance, config).run([] { return core::almost_universal_rv(); });
  };
  const sim::SimResult filtered = run();
  ExactOnlyGuard guard(true);
  const sim::SimResult exact = run();
  EXPECT_EQ(filtered.met, exact.met);
  EXPECT_EQ(filtered.reason, exact.reason);
  EXPECT_EQ(filtered.events, exact.events);
  EXPECT_EQ(filtered.instructions_a, exact.instructions_a);
  EXPECT_EQ(filtered.instructions_b, exact.instructions_b);
  EXPECT_TRUE(same_double_bits(filtered.meet_time, exact.meet_time));
  EXPECT_TRUE(same_double_bits(filtered.min_distance_seen, exact.min_distance_seen));
  EXPECT_TRUE(same_double_bits(filtered.final_distance, exact.final_distance));
  EXPECT_TRUE(same_double_bits(filtered.a_position.x, exact.a_position.x));
  EXPECT_TRUE(same_double_bits(filtered.a_position.y, exact.a_position.y));
  EXPECT_TRUE(same_double_bits(filtered.b_position.x, exact.b_position.x));
  EXPECT_TRUE(same_double_bits(filtered.b_position.y, exact.b_position.y));
}

TEST(FilteredKernel, InlineTierDecidesUpTo127SignificantBits) {
  // Near-ties the interval cannot split: the inline tier settles them while
  // both values have at most 127 significant bits, the big tier beyond.
  ExactOnlyGuard guard(false);
  struct Case {
    Rational lhs;
    Rational rhs;
    bool inline_tier;
  };
  const std::vector<Case> cases = {
      {Rational::pow2(126) + Rational(1), Rational::pow2(126) + Rational(3), true},
      {Rational::pow2(200), Rational::pow2(200) + Rational::pow2(74), true},  // 127 bits
      {Rational::pow2(127) + Rational(1), Rational::pow2(127) + Rational(3), false},
      {Rational::pow2(127) + Rational(2), Rational::pow2(127) + Rational(3), false},  // mixed
  };
  for (const Case& c : cases) {
    EXPECT_EQ(c.lhs.is_inline() && c.rhs.is_inline(), c.inline_tier) << c.lhs.to_string();
    FilterStats& stats = filter_stats();
    const std::uint64_t limb2_before = stats.limb2_hits;
    const std::uint64_t exact_before = stats.exact_escapes;
    EXPECT_EQ(Filtered(c.lhs) <=> Filtered(c.rhs), c.lhs <=> c.rhs) << c.lhs.to_string();
    EXPECT_EQ(stats.limb2_hits - limb2_before, c.inline_tier ? 1u : 0u) << c.lhs.to_string();
    EXPECT_EQ(stats.exact_escapes - exact_before, c.inline_tier ? 0u : 1u) << c.lhs.to_string();
  }
}

}  // namespace
}  // namespace aurv::numeric
