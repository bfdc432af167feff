#include "core/almost_universal.hpp"

#include <utility>
#include <vector>

#include "algo/boundary.hpp"
#include "algo/cgkk.hpp"
#include "algo/cow_walk.hpp"
#include "algo/latecomers.hpp"
#include "algo/wait_and_search.hpp"
#include "core/feasibility.hpp"
#include "geom/angle.hpp"
#include "program/combinators.hpp"
#include "support/check.hpp"

namespace aurv::core {

using numeric::Rational;
using program::Instruction;
using program::Program;

namespace {

// Instruction-count guard for the materialized blocks 2 and 4. The prefix
// of Latecomers/CGKK of local duration 2^i has O(4^i) short instructions
// (block 1's O(i 8^i) and block 3's cow walks stream from a cursor and are
// never materialized by the program); phases reachable within any
// simulator fuel budget stay far below this cap.
constexpr std::size_t kMaterializeCap = 200'000'000;

// Block 1 runs 2^(i+1) walks; walk j is PlanarCowWalk(i) "in the
// coordinate system Rot(j*pi/2^i)" (line 6).
std::uint64_t block1_walks(std::uint32_t i) { return std::uint64_t{1} << (i + 1); }

algo::PlanarCowWalkCursor block1_walk(std::uint32_t i, std::uint64_t j) {
  return {i, geom::dyadic_angle(static_cast<std::int64_t>(j), i)};
}

std::vector<Instruction> block2(std::uint32_t i) {
  std::vector<Instruction> result;
  result.push_back(program::wait(Rational::pow2(i)));                       // line 9
  std::vector<Instruction> prefix =
      program::take_duration_capped(algo::latecomers(), Rational::pow2(i),  // line 10
                                    kMaterializeCap);
  std::vector<Instruction> back = program::backtrack_moves(prefix);         // lines 11-12
  result.insert(result.end(), std::make_move_iterator(prefix.begin()),
                std::make_move_iterator(prefix.end()));
  result.insert(result.end(), std::make_move_iterator(back.begin()),
                std::make_move_iterator(back.end()));
  return result;
}

std::vector<Instruction> block4(std::uint32_t i) {
  // Line 17: the solo execution of CGKK during time 2^i, S_1 ... S_{2^(2i)},
  // each segment taking time 1/2^i. Line 18: S_1 wait(2^i) ... S_{2^(2i)}
  // wait(2^i). Lines 19-20: backtrack on the path followed.
  const std::vector<Instruction> solo =
      program::take_duration_capped(algo::cgkk(), Rational::pow2(i), kMaterializeCap);
  std::vector<Instruction> result = program::segmented_with_waits(
      solo, Rational::dyadic(1, i), Rational::pow2(i));
  std::vector<Instruction> back = program::backtrack_moves(result);
  result.insert(result.end(), std::make_move_iterator(back.begin()),
                std::make_move_iterator(back.end()));
  return result;
}

// Blocks 1 and 3 stream straight from cow-walk cursors; blocks 2 and 4 are
// materialized one block at a time (block 4's backtrack needs its forward
// path anyway).
Program almost_universal_rv_impl(unsigned block_mask) {
  const auto runs = [block_mask](int block) { return (block_mask & (1u << (block - 1))) != 0; };
  for (std::uint32_t i = 1;; ++i) {
    AURV_CHECK_MSG(i <= algo::kMaxCowWalkIndex, "almost_universal_rv: phase index overflow");
    if (runs(1)) {
      for (std::uint64_t j = 1; j <= block1_walks(i); ++j) {
        algo::PlanarCowWalkCursor walk = block1_walk(i, j);
        while (const Instruction* step = walk.next()) co_yield *step;
      }
    }
    if (runs(2)) {
      const std::vector<Instruction> block = block2(i);
      for (const Instruction& instruction : block) co_yield instruction;
    }
    if (runs(3)) {
      const Instruction pause = program::wait(algo::wait_and_search_pause(i));  // line 14
      co_yield pause;
      algo::PlanarCowWalkCursor walk(i, 0.0);                                    // line 15
      while (const Instruction* step = walk.next()) co_yield *step;
    }
    if (runs(4)) {
      const std::vector<Instruction> block = block4(i);
      for (const Instruction& instruction : block) co_yield instruction;
    }
  }
}

}  // namespace

Program almost_universal_rv() { return almost_universal_rv_impl(0b1111u); }

Program almost_universal_rv_blocks(unsigned block_mask) {
  AURV_CHECK_MSG(block_mask != 0 && block_mask <= 0b1111u,
                 "almost_universal_rv_blocks: mask must select at least one of blocks 1..4");
  return almost_universal_rv_impl(block_mask);
}

std::vector<Instruction> aurv_phase_block(std::uint32_t phase, int block) {
  AURV_CHECK_MSG(phase >= 1 && phase <= algo::kMaxCowWalkIndex,
                 "aurv_phase_block: phase out of range");
  std::vector<Instruction> result;
  switch (block) {
    case 1:
      for (std::uint64_t j = 1; j <= block1_walks(phase); ++j) {
        algo::PlanarCowWalkCursor walk = block1_walk(phase, j);
        while (const Instruction* step = walk.next()) result.push_back(*step);
      }
      return result;
    case 2: return block2(phase);
    case 3: {
      result.push_back(program::wait(algo::wait_and_search_pause(phase)));
      algo::PlanarCowWalkCursor walk(phase, 0.0);
      while (const Instruction* step = walk.next()) result.push_back(*step);
      return result;
    }
    case 4: return block4(phase);
    default: AURV_CHECK_MSG(false, "aurv_phase_block: block must be 1..4");
  }
  return result;
}

Rational aurv_block_duration(std::uint32_t phase, int block) {
  // Closed forms (validated against the materialized blocks by the tests;
  // materializing high phases just to sum their durations would be O(4^i)):
  //   block 1: 2^(i+1) PlanarCowWalks
  //   block 2: wait 2^i + Latecomers prefix 2^i + its backtrack 2^i
  //            (Latecomers is wait-free, so the backtrack replays the full
  //            prefix duration)
  //   block 3: wait 2^(15 i^2) + one PlanarCowWalk
  //   block 4: CGKK prefix 2^i cut into 2^(2i) segments + 2^(2i) waits of
  //            2^i + backtrack 2^i  =  2^(3i) + 2^(i+1)
  AURV_CHECK_MSG(phase >= 1 && phase <= algo::kMaxCowWalkIndex,
                 "aurv_block_duration: phase out of range");
  switch (block) {
    case 1: return Rational::pow2(phase + 1) * algo::planar_cow_walk_duration(phase);
    case 2: return Rational(3) * Rational::pow2(phase);
    case 3: return algo::wait_and_search_pause(phase) + algo::planar_cow_walk_duration(phase);
    case 4: return Rational::pow2(3ULL * phase) + Rational::pow2(phase + 1);
    default: AURV_CHECK_MSG(false, "aurv_block_duration: block must be 1..4");
  }
  return 0;
}

Rational aurv_phase_duration(std::uint32_t phase) {
  Rational total = 0;
  for (int block = 1; block <= 4; ++block) total += aurv_block_duration(phase, block);
  return total;
}

Rational aurv_phase_start(std::uint32_t phase) {
  Rational total = 0;
  for (std::uint32_t i = 1; i < phase; ++i) total += aurv_phase_duration(i);
  return total;
}

std::uint32_t aurv_phase_at(const Rational& elapsed) {
  AURV_CHECK_MSG(elapsed.sign() >= 0, "aurv_phase_at: negative time");
  Rational total = 0;
  for (std::uint32_t i = 1; i <= algo::kMaxCowWalkIndex; ++i) {
    total += aurv_phase_duration(i);
    if (elapsed < total) return i;
  }
  return algo::kMaxCowWalkIndex;
}

sim::AlgorithmFactory recommended_algorithm(const agents::Instance& instance) {
  const Classification classification = classify(instance);
  switch (classification.kind) {
    case InstanceKind::BoundaryS1:
      return [instance] { return algo::boundary_s1_algorithm(instance); };
    case InstanceKind::BoundaryS2:
      return [instance] { return algo::boundary_s2_algorithm(instance); };
    default:
      return [] { return almost_universal_rv(); };
  }
}

}  // namespace aurv::core
