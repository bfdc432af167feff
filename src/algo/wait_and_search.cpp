#include "algo/wait_and_search.hpp"

#include "algo/cow_walk.hpp"
#include "support/check.hpp"

namespace aurv::algo {

using numeric::Rational;
using program::Instruction;
using program::Program;

Program wait_and_search() {
  for (std::uint32_t i = 1;; ++i) {
    AURV_CHECK_MSG(i <= kMaxCowWalkIndex, "wait_and_search: phase index overflow");
    const Instruction pause = program::wait(wait_and_search_pause(i));
    co_yield pause;
    PlanarCowWalkCursor walk(i, 0.0);
    while (const Instruction* step = walk.next()) co_yield *step;
  }
}

Rational wait_and_search_pause(std::uint32_t i) {
  return Rational::pow2(15ULL * i * i);
}

}  // namespace aurv::algo
