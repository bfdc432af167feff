#include "algo/cow_walk.hpp"

#include "support/check.hpp"

namespace aurv::algo {

using numeric::Rational;
using program::go;
using program::Instruction;
using program::kEast;
using program::kNorth;
using program::kSouth;
using program::kWest;
using program::Program;

PlanarCowWalkCursor::PlanarCowWalkCursor(std::uint32_t i, double alpha) {
  AURV_CHECK_MSG(i >= 1 && i <= kMaxCowWalkIndex, "planar_cow_walk: index out of range");
  legs_ = 3 * std::size_t{i};
  rungs_ = std::uint64_t{1} << (2 * i);  // 2^(2i) rungs per pass
  steps_.reserve(legs_ + 4);
  for (std::uint32_t j = 1; j <= i; ++j) {  // LinearCowWalk(i)
    const Instruction out_east = go(kEast + alpha, Rational::pow2(j));
    steps_.push_back(out_east);
    steps_.push_back(go(kWest + alpha, Rational::pow2(j + 1)));
    steps_.push_back(out_east);
  }
  const Rational step = Rational::dyadic(1, i);  // 1/2^i between rungs
  const Rational sweep = Rational::pow2(i);      // 2^i back to the start
  steps_.push_back(go(kNorth + alpha, step));
  steps_.push_back(go(kSouth + alpha, sweep));
  steps_.push_back(go(kSouth + alpha, step));
  steps_.push_back(go(kNorth + alpha, sweep));
}

namespace {

// The cursor is built before the coroutine starts so that argument
// validation throws at the call site, not at the first next().

Program linear_cow_walk_impl(PlanarCowWalkCursor walk) {
  for (const Instruction& leg : walk.linear_legs()) co_yield leg;
}

Program planar_cow_walk_impl(PlanarCowWalkCursor walk) {
  while (const Instruction* step = walk.next()) co_yield *step;
}

}  // namespace

Program linear_cow_walk(std::uint32_t i) {
  AURV_CHECK_MSG(i >= 1 && i <= kMaxCowWalkIndex, "linear_cow_walk: index out of range");
  return linear_cow_walk_impl(PlanarCowWalkCursor(i, 0.0));
}

Program planar_cow_walk(std::uint32_t i) {
  return planar_cow_walk_impl(PlanarCowWalkCursor(i, 0.0));
}

Rational linear_cow_walk_duration(std::uint32_t i) {
  AURV_CHECK_MSG(i >= 1 && i <= kMaxCowWalkIndex, "linear_cow_walk_duration: out of range");
  // sum_{j=1..i} (2^j + 2^(j+1) + 2^j) = sum 2^(j+2) = 2^(i+3) - 8.
  return Rational::pow2(i + 3) - Rational(8);
}

Rational planar_cow_walk_duration(std::uint32_t i) {
  AURV_CHECK_MSG(i >= 1 && i <= kMaxCowWalkIndex, "planar_cow_walk_duration: out of range");
  const Rational lcw = linear_cow_walk_duration(i);
  const Rational rungs(numeric::BigInt::pow2(2 * i));
  // (2*2^(2i) + 1) LinearCowWalks, 2*2^(2i) rung steps of 1/2^i, two sweeps 2^i.
  return (Rational(2) * rungs + Rational(1)) * lcw +
         Rational(2) * rungs * Rational::dyadic(1, i) + Rational(2) * Rational::pow2(i);
}

}  // namespace aurv::algo
