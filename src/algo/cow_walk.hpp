// The paper's two search procedures:
//
//   LinearCowWalk(i)  (Algorithm 3) — the first i doubling steps of the
//   classic cow-path linear search: for j = 1..i, go East 2^j, West 2^(j+1),
//   East 2^j. Visits every point of the local x-axis within distance 2^i
//   and returns to its start.
//
//   PlanarCowWalk(i)  (Algorithm 2) — a LinearCowWalk(i) from every point
//   (0, k/2^i), |k| <= 2^(2i), of the local y-axis: sweeps up from y = 0 to
//   y = 2^i in 1/2^i steps, returns, sweeps down to y = -2^i, returns.
//   Gets within 1/2^i local units of every point of the square
//   [-2^i, 2^i]^2 (Claim 3.7) and returns to its start (Lemma 3.1).
//
// Both have one transcription, PlanarCowWalkCursor: PlanarCowWalk(i) has
// only 3i + 4 distinct instructions (the LinearCowWalk legs, two rung steps
// and two return sweeps), so the cursor builds those once and walks the
// loop nest by index. Every program built from cow walks — the Programs
// below, CGKK, WaitAndSearch and Algorithm 1's blocks 1 and 3 — streams
// from it instead of materializing a walk (block 1 of phase 4 alone is
// 213,440 instructions).
//
// Both are finite programs; i is capped at 30 so iteration counts (2^(2i))
// fit comfortably in 64 bits — the simulator's event fuel is exhausted long
// before that bound matters.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "program/instruction.hpp"

namespace aurv::algo {

inline constexpr std::uint32_t kMaxCowWalkIndex = 30;

/// PlanarCowWalk(i) executed in the local system Rot(alpha): every heading
/// is the paper's compass heading plus alpha. Requires 1 <= i <=
/// kMaxCowWalkIndex (checked at construction).
class PlanarCowWalkCursor {
 public:
  PlanarCowWalkCursor(std::uint32_t i, double alpha);

  /// The next instruction of the walk, or nullptr once it is over. O(1), no
  /// allocation; the pointee lives as long as the cursor.
  [[nodiscard]] const program::Instruction* next() noexcept {
    if (leg_ < legs_) return &steps_[leg_++];  // inside a LinearCowWalk
    if (pass_ == 2) return nullptr;
    const std::size_t pass_base = legs_ + 2 * pass_;
    if (rung_ < rungs_) {  // climb one rung, then walk its LinearCowWalk
      ++rung_;
      leg_ = 0;
      return &steps_[pass_base];
    }
    ++pass_;  // the pass is done: sweep back to the start
    rung_ = 0;
    return &steps_[pass_base + 1];
  }

  /// LinearCowWalk(i) in the same system: the walk's first 3i instructions.
  [[nodiscard]] std::span<const program::Instruction> linear_legs() const noexcept {
    return {steps_.data(), legs_};
  }

 private:
  // The 3i LinearCowWalk legs, then per pass (up, down) its rung step and
  // its return sweep.
  std::vector<program::Instruction> steps_;
  std::size_t legs_ = 0;
  std::uint64_t rungs_ = 0;
  std::size_t leg_ = 0;
  std::uint64_t rung_ = 0;
  std::size_t pass_ = 0;
};

/// Algorithm 3. Requires 1 <= i <= kMaxCowWalkIndex (checked).
[[nodiscard]] program::Program linear_cow_walk(std::uint32_t i);

/// Algorithm 2. Requires 1 <= i <= kMaxCowWalkIndex (checked).
[[nodiscard]] program::Program planar_cow_walk(std::uint32_t i);

/// Total local duration of LinearCowWalk(i): sum_j 2^(j+2) = 2^(i+3) - 8.
[[nodiscard]] numeric::Rational linear_cow_walk_duration(std::uint32_t i);

/// Total local duration of PlanarCowWalk(i).
[[nodiscard]] numeric::Rational planar_cow_walk_duration(std::uint32_t i);

}  // namespace aurv::algo
