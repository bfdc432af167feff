#include "numeric/filter.hpp"

#include <atomic>
#include <cstdlib>
#include <string_view>

#include "support/telemetry.hpp"

namespace aurv::numeric {

namespace {

bool exact_only_from_env() {
  const char* raw = std::getenv("AURV_EXACT_ONLY");
  return raw != nullptr && *raw != '\0' && std::string_view(raw) != "0";
}

std::atomic<bool> g_exact_only{exact_only_from_env()};

}  // namespace

// ------------------------------------------------------------- tier stats --

FilterStats& filter_stats() noexcept {
  thread_local FilterStats stats;
  return stats;
}

void flush_filter_stats() {
  static support::telemetry::Counter& fast_hits =
      support::telemetry::registry().counter("filter.fast_hits");
  static support::telemetry::Counter& limb2_hits =
      support::telemetry::registry().counter("filter.limb2_hits");
  static support::telemetry::Counter& exact_escapes =
      support::telemetry::registry().counter("filter.exact_escapes");
  FilterStats& stats = filter_stats();
  if (stats.fast_hits != 0) fast_hits.add(stats.fast_hits);
  if (stats.limb2_hits != 0) limb2_hits.add(stats.limb2_hits);
  if (stats.exact_escapes != 0) exact_escapes.add(stats.exact_escapes);
  stats = FilterStats{};
}

bool filter_exact_only() noexcept { return g_exact_only.load(std::memory_order_relaxed); }

void set_filter_exact_only(bool exact_only) noexcept {
  g_exact_only.store(exact_only, std::memory_order_relaxed);
}

// -------------------------------------------------------------- FInterval --

FInterval FInterval::around(double nearest) {
  using filter_detail::next_down;
  using filter_detail::next_up;
  if (!std::isfinite(nearest)) {
    // Beyond double range. The conversion's double-rounding can tip to
    // infinity marginally early, so back the finite endpoint off two ulps.
    constexpr double kMax = std::numeric_limits<double>::max();
    if (nearest > 0) return {next_down(next_down(kMax)), filter_detail::kInf};
    return {-filter_detail::kInf, next_up(next_up(-kMax))};
  }
  // Rational::to_double() is within 2 ulps of the true value (truncate-
  // then-round double rounding), so two outward nextafters are sound.
  return {next_down(next_down(nearest)), next_up(next_up(nearest))};
}

std::optional<SignClass> certified_sign(const FInterval& iv) noexcept {
  if (filter_exact_only()) return std::nullopt;
  if (iv.lo > 0) {
    ++filter_stats().fast_hits;
    return SignClass::kPositive;
  }
  if (iv.hi < 0) {
    ++filter_stats().fast_hits;
    return SignClass::kNegative;
  }
  if (iv.lo == 0 && iv.hi == 0) {
    ++filter_stats().fast_hits;
    return SignClass::kZero;
  }
  return std::nullopt;
}

// --------------------------------------------------------------- Filtered --

int Filtered::sign() const {
  if (const auto certified = certified_sign(iv_)) {
    switch (*certified) {
      case SignClass::kNegative: return -1;
      case SignClass::kZero: return 0;
      case SignClass::kPositive: return 1;
    }
  }
  if (!filter_exact_only() && value_.is_inline()) {
    ++filter_stats().limb2_hits;
  } else {
    ++filter_stats().exact_escapes;
  }
  return value_.sign();
}

}  // namespace aurv::numeric
