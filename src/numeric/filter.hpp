// Filtered numeric kernel: filter-then-certify comparisons for exact time.
//
// The engine's event arithmetic is exact-rational end to end, yet almost
// every comparison it makes (which window ends first? is the contact before
// the horizon?) is decidable in plain double arithmetic with a little care.
// This header provides the three-tier ladder that exploits that without
// ever changing an answer:
//
//   1. FInterval — a double interval with outward-rounded endpoints
//      (Dekker/Knuth error terms pick the rounding direction; no FPU
//      rounding-mode changes). If two intervals do not overlap, the
//      comparison is *certified* and costs a couple of flops.
//   2. Rational's inline tier — when both values are dyadics with at most
//      127 significant bits (numeric/rational.hpp), the exact comparison
//      is one 128-bit integer compare. This tier decides the near-ties the
//      interval cannot.
//   3. Rational's big tier — BigInt fractions, the final authority.
//
// A Filtered value is a Rational plus its enclosure; the exact value is
// always held, so tiers 2 and 3 are the same object and a decision only
// chooses how much of it to look at.
//
// Soundness contract: a tier may only answer when its answer provably
// equals the exact one (non-overlapping intervals, exact integer
// comparison). Tiers change cost, never results — golden artifacts stay
// bit-identical whichever tier decided each comparison, and
// `AURV_EXACT_ONLY=1` (or set_filter_exact_only) skips the interval and
// inline tiers for every decision to prove it.
//
// Tier traffic is counted per thread (filter_stats) and published to the
// telemetry registry as filter.fast_hits / filter.limb2_hits /
// filter.exact_escapes by flush_filter_stats(), which the engines call at
// their deterministic finish points. See docs/NUMERICS.md for the full
// contract and a worked escalation example.
#pragma once

#include <algorithm>
#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

#include "numeric/rational.hpp"

namespace aurv::numeric {

// ------------------------------------------------------------------------
// Per-thread tier-traffic counters. Plain integers on purpose: bumping one
// costs a register increment, not an atomic; flush_filter_stats() moves
// them into the process-wide telemetry registry at deterministic points.
struct FilterStats {
  std::uint64_t fast_hits = 0;      // interval tier decided
  std::uint64_t limb2_hits = 0;     // both values inline: no BigInt touched
  std::uint64_t exact_escapes = 0;  // a big-tier value, or exact-only mode
};

[[nodiscard]] FilterStats& filter_stats() noexcept;

/// Adds this thread's counts to the telemetry counters filter.* and zeroes
/// them. Call sites are the engines' finish paths, so counter totals stay
/// thread-count-invariant like every other telemetry series.
void flush_filter_stats();

/// When true, every decision goes straight to the exact comparison: the
/// determinism proof mode behind the AURV_EXACT_ONLY=1 environment toggle
/// (read once at startup). Artifacts must be byte-identical either way.
[[nodiscard]] bool filter_exact_only() noexcept;
void set_filter_exact_only(bool exact_only) noexcept;

// ------------------------------------------------------------------------
// Directed-rounding scalar helpers. TwoSum/TwoProd produce the exact
// residual of the rounded operation; its sign tells which endpoint needs
// an outward nextafter. Results are sound for every input, including
// overflow (clamped half-lines) and underflow (widened past the residual's
// blind spot).
namespace filter_detail {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

inline double next_down(double value) { return std::nextafter(value, -kInf); }
inline double next_up(double value) { return std::nextafter(value, kInf); }

inline double add_down(double a, double b) {
  const double s = a + b;
  if (!std::isfinite(s)) {
    if (std::isinf(a) || std::isinf(b)) return s;
    return s > 0 ? std::numeric_limits<double>::max() : -kInf;
  }
  const double bv = s - a;
  const double err = (a - (s - bv)) + (b - bv);
  return err < 0 ? next_down(s) : s;
}

inline double add_up(double a, double b) {
  const double s = a + b;
  if (!std::isfinite(s)) {
    if (std::isinf(a) || std::isinf(b)) return s;
    return s > 0 ? kInf : -std::numeric_limits<double>::max();
  }
  const double bv = s - a;
  const double err = (a - (s - bv)) + (b - bv);
  return err > 0 ? next_up(s) : s;
}

inline double sub_down(double a, double b) { return add_down(a, -b); }
inline double sub_up(double a, double b) { return add_up(a, -b); }

inline double mul_down(double a, double b) {
  const double p = a * b;
  if (std::isnan(p)) return -kInf;  // 0 * inf: no finite information
  if (!std::isfinite(p)) {
    if (std::isinf(a) || std::isinf(b)) return p;
    return p > 0 ? std::numeric_limits<double>::max() : -kInf;
  }
  const double err = std::fma(a, b, -p);
  if (err < 0) return next_down(p);
  if (err == 0 && p != 0 && std::fabs(p) < std::numeric_limits<double>::min()) {
    return next_down(p);  // subnormal residual underflow: direction unknown
  }
  if (p == 0 && a != 0 && b != 0) return -std::numeric_limits<double>::denorm_min();
  return p;
}

inline double mul_up(double a, double b) {
  const double p = a * b;
  if (std::isnan(p)) return kInf;
  if (!std::isfinite(p)) {
    if (std::isinf(a) || std::isinf(b)) return p;
    return p > 0 ? kInf : -std::numeric_limits<double>::max();
  }
  const double err = std::fma(a, b, -p);
  if (err > 0) return next_up(p);
  if (err == 0 && p != 0 && std::fabs(p) < std::numeric_limits<double>::min()) {
    return next_up(p);
  }
  if (p == 0 && a != 0 && b != 0) return std::numeric_limits<double>::denorm_min();
  return p;
}

}  // namespace filter_detail

// ------------------------------------------------------------------------
// Tier 1: outward-rounded double interval. Invariant: lo <= hi, neither is
// NaN; lo == hi means the interval is an *exact point* (the real value is
// exactly this double) — that is what licenses certified equality.
struct FInterval {
  double lo = 0.0;
  double hi = 0.0;

  static FInterval point(double value) { return {value, value}; }
  static FInterval whole() { return {-filter_detail::kInf, filter_detail::kInf}; }

  /// Sound enclosure of an exact rational value; a point iff the value is
  /// exactly representable as a double. A function of the value alone.
  static FInterval enclose(const Rational& value) {
    if (const std::optional<double> exact = value.exact_double()) return point(*exact);
    return around(value.to_double());
  }

  /// Sound non-point enclosure of a value that is not a double, from its
  /// Rational::to_double() (within 2 ulps of it, possibly infinite). Kept
  /// out of line so enclose()'s exact-point case inlines into the engine.
  static FInterval around(double nearest);

  /// Tight enclosure of a * b for two exact doubles: one multiply plus one
  /// fma (TwoProd) instead of the eight directed products a general
  /// interval multiply pays. Endpoint-for-endpoint identical to
  /// {mul_down(a, b), mul_up(a, b)} — the special cases below mirror those
  /// helpers' clauses one by one.
  static FInterval product(double a, double b) {
    using filter_detail::kInf;
    const double p = a * b;
    if (std::isnan(p)) return {-kInf, kInf};  // 0 * inf: no finite information
    if (!std::isfinite(p)) {
      if (std::isinf(a) || std::isinf(b)) return {p, p};
      return p > 0 ? FInterval{std::numeric_limits<double>::max(), kInf}
                   : FInterval{-kInf, -std::numeric_limits<double>::max()};
    }
    const double err = std::fma(a, b, -p);
    if (err < 0) return {filter_detail::next_down(p), p};
    if (err > 0) return {p, filter_detail::next_up(p)};
    if (p != 0 && std::fabs(p) < std::numeric_limits<double>::min()) {
      // Subnormal residual underflow: the rounding direction is invisible.
      return {filter_detail::next_down(p), filter_detail::next_up(p)};
    }
    if (p == 0 && a != 0 && b != 0) {
      return {-std::numeric_limits<double>::denorm_min(),
              std::numeric_limits<double>::denorm_min()};
    }
    return {p, p};
  }

  [[nodiscard]] bool is_point() const { return lo == hi; }

  friend FInterval operator+(const FInterval& a, const FInterval& b) {
    return {filter_detail::add_down(a.lo, b.lo), filter_detail::add_up(a.hi, b.hi)};
  }
  friend FInterval operator-(const FInterval& a, const FInterval& b) {
    return {filter_detail::sub_down(a.lo, b.hi), filter_detail::sub_up(a.hi, b.lo)};
  }
  friend FInterval operator-(const FInterval& a) { return {-a.hi, -a.lo}; }
  friend FInterval operator*(const FInterval& a, const FInterval& b) {
    using filter_detail::mul_down;
    using filter_detail::mul_up;
    const double lo = std::min(std::min(mul_down(a.lo, b.lo), mul_down(a.lo, b.hi)),
                               std::min(mul_down(a.hi, b.lo), mul_down(a.hi, b.hi)));
    const double hi = std::max(std::max(mul_up(a.lo, b.lo), mul_up(a.lo, b.hi)),
                               std::max(mul_up(a.hi, b.lo), mul_up(a.hi, b.hi)));
    return {lo, hi};
  }

  [[nodiscard]] FInterval abs() const {
    if (lo >= 0) return *this;
    if (hi <= 0) return -*this;
    return {0.0, std::max(-lo, hi)};
  }

  /// Outward widening by an absolute margin — the containment slop for
  /// enclosures of transcendental sub-expressions (hypot/cos/sin) whose
  /// final-ulp direction the directed-rounding helpers cannot see.
  [[nodiscard]] FInterval widened(double margin) const {
    return {filter_detail::sub_down(lo, margin), filter_detail::add_up(hi, margin)};
  }

  friend FInterval min(const FInterval& a, const FInterval& b) {
    return {std::min(a.lo, b.lo), std::min(a.hi, b.hi)};
  }
  friend FInterval max(const FInterval& a, const FInterval& b) {
    return {std::max(a.lo, b.lo), std::max(a.hi, b.hi)};
  }
  friend FInterval hull(const FInterval& a, const FInterval& b) {
    return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
  }
};

enum class SignClass { kNegative, kZero, kPositive };

/// Interval-tier sign certification: an answer is returned only when it
/// provably equals the exact sign. Inconclusive (overlapping zero without
/// being an exact zero point) and exact-only mode return nullopt; the
/// caller escalates. Counts one fast_hit on success, nothing on a miss —
/// the escalation path owns the miss accounting.
[[nodiscard]] std::optional<SignClass> certified_sign(const FInterval& iv) noexcept;

// ------------------------------------------------------------------------
// The filtered exact value: the engine's time type. Semantically identical
// to Rational — every observable (to_double, to_rational, comparisons,
// sign) is the exact answer — with a sound interval enclosure alongside
// for certified comparisons. The enclosure is rebuilt from the value after
// every operation (never from interval-arithmetic history), so which tier
// decides each comparison is a deterministic function of the values.
class Filtered {
 public:
  Filtered() = default;  // exact zero
  explicit Filtered(int value) : Filtered(static_cast<double>(value)) {}
  explicit Filtered(const Rational& value) : value_(value) { rebuild_interval(); }
  explicit Filtered(Rational&& value) : value_(std::move(value)) { rebuild_interval(); }

 private:
  // Exact; internal (from_double is the API).
  explicit Filtered(double value)
      : iv_(FInterval::point(value)), value_(Rational::from_double(value)) {}

 public:
  /// Exact conversion of a finite double.
  static Filtered from_double(double value) { return Filtered(value); }

  /// The exact value.
  [[nodiscard]] const Rational& to_rational() const noexcept { return value_; }

  [[nodiscard]] double to_double() const noexcept { return value_.to_double(); }

  [[nodiscard]] const FInterval& interval() const noexcept { return iv_; }

  /// Exact sign via the ladder (counts one tier stat per call).
  [[nodiscard]] int sign() const;

  Filtered& operator+=(const Filtered& rhs) {
    value_ += rhs.value_;
    rebuild_interval();
    return *this;
  }

  Filtered& operator-=(const Filtered& rhs) {
    value_ -= rhs.value_;
    rebuild_interval();
    return *this;
  }

  Filtered& operator*=(const Filtered& rhs) {
    value_ *= rhs.value_;
    rebuild_interval();
    return *this;
  }

  friend Filtered operator+(Filtered lhs, const Filtered& rhs) { return lhs += rhs; }
  friend Filtered operator-(Filtered lhs, const Filtered& rhs) { return lhs -= rhs; }
  friend Filtered operator*(Filtered lhs, const Filtered& rhs) { return lhs *= rhs; }

  /// The certify-or-escalate comparison ladder. Exactly one of
  /// fast_hits / limb2_hits / exact_escapes is incremented per call, and
  /// the returned ordering always equals the exact one.
  friend std::strong_ordering operator<=>(const Filtered& lhs, const Filtered& rhs) {
    FilterStats& stats = filter_stats();
    if (!filter_exact_only()) {
      if (lhs.iv_.hi < rhs.iv_.lo) {
        ++stats.fast_hits;
        return std::strong_ordering::less;
      }
      if (lhs.iv_.lo > rhs.iv_.hi) {
        ++stats.fast_hits;
        return std::strong_ordering::greater;
      }
      if (lhs.iv_.is_point() && rhs.iv_.is_point() && lhs.iv_.lo == rhs.iv_.lo) {
        ++stats.fast_hits;
        return std::strong_ordering::equal;
      }
      if (lhs.value_.is_inline() && rhs.value_.is_inline()) {
        ++stats.limb2_hits;
        return lhs.value_ <=> rhs.value_;
      }
    }
    ++stats.exact_escapes;
    return lhs.value_ <=> rhs.value_;
  }

  friend bool operator==(const Filtered& lhs, const Filtered& rhs) {
    return (lhs <=> rhs) == std::strong_ordering::equal;
  }

 private:
  void rebuild_interval() { iv_ = FInterval::enclose(value_); }

  FInterval iv_;    // sound enclosure of value_
  Rational value_;  // the authoritative exact value
};

}  // namespace aurv::numeric
