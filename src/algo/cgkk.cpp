#include "algo/cgkk.hpp"

#include "algo/cow_walk.hpp"
#include "support/check.hpp"

namespace aurv::algo {

using numeric::Rational;
using program::Instruction;
using program::Program;

Program cgkk() {
  for (std::uint32_t i = 1;; ++i) {
    AURV_CHECK_MSG(i <= kMaxCowWalkIndex, "cgkk: phase index overflow");
    PlanarCowWalkCursor walk(i, 0.0);
    while (const Instruction* step = walk.next()) co_yield *step;
  }
}

Program cgkk_extended() {
  for (std::uint32_t i = 1;; ++i) {
    AURV_CHECK_MSG(i <= kMaxCowWalkIndex, "cgkk_extended: phase index overflow");
    PlanarCowWalkCursor walk(i, 0.0);
    while (const Instruction* step = walk.next()) co_yield *step;
    // Long waits let the faster-clocked agent finish an entire search while
    // a slower-clocked one is still idle (the type-3 mechanism, Lemma 3.4).
    const Instruction pause = program::wait(Rational::pow2(15ULL * i * i));
    co_yield pause;
    PlanarCowWalkCursor again(i, 0.0);
    while (const Instruction* step = again.next()) co_yield *step;
  }
}

}  // namespace aurv::algo
