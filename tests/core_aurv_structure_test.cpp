// Structural tests of Algorithm 1 (AlmostUniversalRV): block composition,
// the Lemma 3.1 return-to-start invariant, the closed-form phase
// durations used by the phase-index reporting, and the twin test that
// pins every cow-walk program to a literal transcription of the paper's
// loops.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "algo/cgkk.hpp"
#include "algo/cow_walk.hpp"
#include "algo/wait_and_search.hpp"
#include "core/almost_universal.hpp"
#include "core/feasibility.hpp"
#include "geom/angle.hpp"
#include "program/combinators.hpp"

namespace aurv::core {
namespace {

using numeric::Rational;
using program::Instruction;

TEST(AurvStructure, Lemma31EveryBlockReturnsToStart) {
  // Lemma 3.1: each time an agent starts a line other than the backtrack
  // bookkeeping it does so from its initial position — equivalently, every
  // block's net displacement is zero.
  for (std::uint32_t phase = 1; phase <= 3; ++phase) {
    for (int block = 1; block <= 4; ++block) {
      const std::vector<Instruction> instructions = aurv_phase_block(phase, block);
      EXPECT_NEAR(program::net_displacement(instructions).norm(), 0.0, 1e-9)
          << "phase " << phase << " block " << block;
    }
  }
}

TEST(AurvStructure, PhaseDurationClosedFormMatchesMaterialized) {
  for (std::uint32_t phase = 1; phase <= 3; ++phase) {
    Rational materialized = 0;
    for (int block = 1; block <= 4; ++block) {
      materialized += program::total_duration(aurv_phase_block(phase, block));
    }
    EXPECT_EQ(materialized, aurv_phase_duration(phase)) << phase;
  }
}

TEST(AurvStructure, Block1Has2ToIPlus1Epochs) {
  // Block 1 of phase i: 2^(i+1) PlanarCowWalk(i) executions, rotated.
  for (std::uint32_t phase = 1; phase <= 2; ++phase) {
    const std::vector<Instruction> block = aurv_phase_block(phase, 1);
    const Rational expected =
        Rational::pow2(phase + 1) * algo::planar_cow_walk_duration(phase);
    EXPECT_EQ(program::total_duration(block), expected);
    // All instructions are moves (PlanarCowWalk is wait-free).
    for (const Instruction& instruction : block) {
      ASSERT_TRUE(program::is_move(instruction));
    }
  }
}

TEST(AurvStructure, Block2IsWaitLatecomersBacktrack) {
  const std::uint32_t phase = 3;
  const std::vector<Instruction> block = aurv_phase_block(phase, 2);
  ASSERT_FALSE(block.empty());
  // Line 9: leading wait of 2^i.
  ASSERT_FALSE(program::is_move(block.front()));
  EXPECT_EQ(program::duration_of(block.front()), Rational::pow2(phase));
  // Total: wait 2^i + prefix 2^i + backtrack 2^i.
  EXPECT_EQ(program::total_duration(block), Rational(3) * Rational::pow2(phase));
  // The move part nets to zero (prefix + backtrack).
  EXPECT_NEAR(program::net_displacement(block).norm(), 0.0, 1e-9);
}

TEST(AurvStructure, Block3IsHugeWaitThenWalk) {
  const std::uint32_t phase = 2;
  const std::vector<Instruction> block = aurv_phase_block(phase, 3);
  ASSERT_FALSE(block.empty());
  EXPECT_FALSE(program::is_move(block.front()));
  EXPECT_EQ(program::duration_of(block.front()), algo::wait_and_search_pause(phase));
  for (std::size_t k = 1; k < block.size(); ++k) {
    EXPECT_TRUE(program::is_move(block[k]));
  }
}

TEST(AurvStructure, Block4SegmentsOfExactDuration) {
  // Line 18: the CGKK prefix of local length 2^i is cut into 2^(2i)
  // segments of 1/2^i, each followed by wait(2^i).
  const std::uint32_t phase = 2;
  const std::vector<Instruction> block = aurv_phase_block(phase, 4);
  const Rational segment = Rational::dyadic(1, phase);
  const Rational pause = Rational::pow2(phase);
  Rational move_acc = 0;
  std::uint64_t waits = 0;
  bool in_backtrack = false;
  Rational backtrack_moves = 0;
  for (const Instruction& instruction : block) {
    if (program::is_move(instruction)) {
      if (in_backtrack) {
        backtrack_moves += program::duration_of(instruction);
      } else {
        move_acc += program::duration_of(instruction);
      }
    } else {
      EXPECT_EQ(program::duration_of(instruction), pause);
      EXPECT_FALSE(in_backtrack);
      EXPECT_EQ(move_acc, segment);  // each segment is exactly 1/2^i of motion
      move_acc = 0;
      ++waits;
      if (waits == (std::uint64_t{1} << (2 * phase))) in_backtrack = true;
    }
  }
  EXPECT_EQ(waits, std::uint64_t{1} << (2 * phase));  // 2^(2i) interruptions
  EXPECT_EQ(backtrack_moves, Rational::pow2(phase));  // full path retraced
  EXPECT_NEAR(program::net_displacement(block).norm(), 0.0, 1e-9);
}

TEST(AurvStructure, PhaseStartsAccumulate) {
  EXPECT_EQ(aurv_phase_start(1), Rational(0));
  EXPECT_EQ(aurv_phase_start(2), aurv_phase_duration(1));
  EXPECT_EQ(aurv_phase_start(3), aurv_phase_duration(1) + aurv_phase_duration(2));
}

TEST(AurvStructure, PhaseAtInvertsPhaseStart) {
  EXPECT_EQ(aurv_phase_at(Rational(0)), 1u);
  EXPECT_EQ(aurv_phase_at(aurv_phase_duration(1) - Rational(1)), 1u);
  EXPECT_EQ(aurv_phase_at(aurv_phase_duration(1)), 2u);
  EXPECT_EQ(aurv_phase_at(aurv_phase_start(3)), 3u);
  EXPECT_EQ(aurv_phase_at(aurv_phase_start(4)), 4u);
  EXPECT_THROW((void)aurv_phase_at(Rational(-1)), std::logic_error);
}

TEST(AurvStructure, StreamMatchesMaterializedBlocks) {
  // The infinite program yields exactly phase-1 blocks 1..4 then phase 2...
  program::Program stream = almost_universal_rv();
  std::vector<Instruction> expected;
  for (int block = 1; block <= 4; ++block) {
    const std::vector<Instruction> blk = aurv_phase_block(1, block);
    expected.insert(expected.end(), blk.begin(), blk.end());
  }
  for (const Instruction& want : expected) {
    ASSERT_TRUE(stream.next());
    EXPECT_EQ(stream.value(), want);
  }
  // The stream continues into phase 2.
  ASSERT_TRUE(stream.next());
}

TEST(AurvStructure, PhaseBlockValidation) {
  EXPECT_THROW((void)aurv_phase_block(0, 1), std::logic_error);
  EXPECT_THROW((void)aurv_phase_block(1, 0), std::logic_error);
  EXPECT_THROW((void)aurv_phase_block(1, 5), std::logic_error);
}

TEST(AurvStructure, RecommendedAlgorithmDispatch) {
  using agents::Instance;
  using geom::Vec2;
  // S1 boundary -> dedicated S1 program (finite, one move).
  const Instance s1 = Instance::synchronous(1.0, Vec2{3.0, 4.0}, 0.0, 4, 1);
  ASSERT_EQ(classify(s1).kind, InstanceKind::BoundaryS1);
  auto p1 = recommended_algorithm(s1)();
  std::size_t count1 = 0;
  while (p1.next()) ++count1;
  EXPECT_EQ(count1, 1u);
  // Covered instance -> the infinite universal program.
  const Instance covered = Instance::synchronous(1.0, Vec2{3.0, 4.0}, 0.0, 5, 1);
  auto p2 = recommended_algorithm(covered)();
  for (int k = 0; k < 100; ++k) ASSERT_TRUE(p2.next());
}

// -- twin test --------------------------------------------------------------
// The library streams Algorithms 2 and 3 from a closed-form cursor. The
// reference below is the paper's nested loops written out into a vector,
// with Rot(alpha) applied as heading + alpha, and is capped at `limit`
// instructions so that deep phases are never built past the compared
// prefix.

struct Reference {
  std::size_t limit;
  std::vector<Instruction> out;

  [[nodiscard]] bool full() const { return out.size() >= limit; }

  void emit(const Instruction& instruction, double alpha) {
    if (full()) return;
    if (const auto* move = std::get_if<program::Go>(&instruction)) {
      out.push_back(Instruction{program::Go{move->heading + alpha, move->distance}});
    } else {
      out.push_back(instruction);
    }
  }

  void append(const std::vector<Instruction>& block) {
    for (const Instruction& instruction : block) emit(instruction, 0.0);
  }

  // Algorithm 3.
  void linear_cow_walk(std::uint32_t i, double alpha) {
    for (std::uint32_t j = 1; j <= i; ++j) {
      emit(program::go_east(Rational::pow2(j)), alpha);
      emit(program::go_west(Rational::pow2(j + 1)), alpha);
      emit(program::go_east(Rational::pow2(j)), alpha);
    }
  }

  // Algorithm 2.
  void planar_cow_walk(std::uint32_t i, double alpha) {
    linear_cow_walk(i, alpha);
    for (std::uint64_t k = 1; k <= (std::uint64_t{1} << (2 * i)) && !full(); ++k) {
      emit(program::go_north(Rational::dyadic(1, i)), alpha);
      linear_cow_walk(i, alpha);
    }
    emit(program::go_south(Rational::pow2(i)), alpha);
    for (std::uint64_t k = 1; k <= (std::uint64_t{1} << (2 * i)) && !full(); ++k) {
      emit(program::go_south(Rational::dyadic(1, i)), alpha);
      linear_cow_walk(i, alpha);
    }
    emit(program::go_north(Rational::pow2(i)), alpha);
  }

  // Algorithm 1, blocks selected by `mask` (bit b-1 = block b).
  void almost_universal_rv(unsigned mask) {
    for (std::uint32_t i = 1; !full(); ++i) {
      if ((mask & 1u) != 0) {
        for (std::uint64_t j = 1; j <= (std::uint64_t{1} << (i + 1)) && !full(); ++j) {
          planar_cow_walk(i, geom::dyadic_angle(static_cast<std::int64_t>(j), i));
        }
      }
      if ((mask & 2u) != 0 && !full()) append(aurv_phase_block(i, 2));
      if ((mask & 4u) != 0) {
        emit(program::wait(Rational::pow2(15ULL * i * i)), 0.0);
        planar_cow_walk(i, 0.0);
      }
      if ((mask & 8u) != 0 && !full()) append(aurv_phase_block(i, 4));
    }
  }
};

// operator== on every instruction, plus the heading's bit pattern (which
// operator== on doubles would let differ in the sign of a zero).
void expect_twin(program::Program& program, const std::vector<Instruction>& expected,
                 const std::string& what) {
  for (std::size_t k = 0; k < expected.size(); ++k) {
    ASSERT_TRUE(program.next()) << what << " ended at instruction " << k;
    const Instruction& got = program.value();
    ASSERT_EQ(got, expected[k]) << what << " instruction " << k << ": "
                                << program::to_string(got) << " vs "
                                << program::to_string(expected[k]);
    if (const auto* move = std::get_if<program::Go>(&got)) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(move->heading),
                std::bit_cast<std::uint64_t>(std::get<program::Go>(expected[k]).heading))
          << what << " instruction " << k;
    }
  }
}

// Past the 213,440 instructions of phase 4's block 1, which starts near
// instruction 25k of the full program.
constexpr std::size_t kTwinReach = 250'000;

TEST(AurvTwin, AlmostUniversalRvMatchesPaperLoops) {
  for (unsigned mask = 1; mask <= 0b1111u; ++mask) {
    Reference ref{kTwinReach, {}};
    ref.almost_universal_rv(mask);
    ASSERT_EQ(ref.out.size(), kTwinReach);
    program::Program blocks = almost_universal_rv_blocks(mask);
    expect_twin(blocks, ref.out, "mask " + std::to_string(mask));
    if (mask == 0b1111u) {
      program::Program full = almost_universal_rv();
      expect_twin(full, ref.out, "almost_universal_rv");
    }
  }
}

TEST(AurvTwin, CowWalksMatchPaperLoops) {
  for (std::uint32_t i = 1; i <= 6; ++i) {
    Reference planar{SIZE_MAX, {}};
    planar.planar_cow_walk(i, 0.0);
    program::Program walk = algo::planar_cow_walk(i);
    expect_twin(walk, planar.out, "planar_cow_walk " + std::to_string(i));
    EXPECT_FALSE(walk.next()) << i;

    Reference linear{SIZE_MAX, {}};
    linear.linear_cow_walk(i, 0.0);
    program::Program legs = algo::linear_cow_walk(i);
    expect_twin(legs, linear.out, "linear_cow_walk " + std::to_string(i));
    EXPECT_FALSE(legs.next()) << i;
  }
}

TEST(AurvTwin, CgkkAndWaitAndSearchMatchPaperLoops) {
  constexpr std::size_t kReach = 100'000;
  const auto pause = [](std::uint32_t i) { return program::wait(Rational::pow2(15ULL * i * i)); };
  Reference cgkk{kReach, {}};
  Reference extended{kReach, {}};
  Reference wait_search{kReach, {}};
  for (std::uint32_t i = 1; !cgkk.full(); ++i) cgkk.planar_cow_walk(i, 0.0);
  for (std::uint32_t i = 1; !extended.full(); ++i) {
    extended.planar_cow_walk(i, 0.0);
    extended.emit(pause(i), 0.0);
    extended.planar_cow_walk(i, 0.0);
  }
  for (std::uint32_t i = 1; !wait_search.full(); ++i) {
    wait_search.emit(pause(i), 0.0);
    wait_search.planar_cow_walk(i, 0.0);
  }
  program::Program cgkk_stream = algo::cgkk();
  expect_twin(cgkk_stream, cgkk.out, "cgkk");
  program::Program extended_stream = algo::cgkk_extended();
  expect_twin(extended_stream, extended.out, "cgkk_extended");
  program::Program wait_search_stream = algo::wait_and_search();
  expect_twin(wait_search_stream, wait_search.out, "wait_and_search");
}

}  // namespace
}  // namespace aurv::core
