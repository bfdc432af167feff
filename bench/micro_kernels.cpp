// KERN — google-benchmark micro-kernels for the library's hot paths: exact
// rational time arithmetic, the closest-approach solver, instruction-stream
// generation, the sampler and program layers of a campaign run (one row per
// registered name), end-to-end simulator event throughput, and the search and
// gathering-census rows perfbench/ does not cover (tuple-family search,
// spilled frontier, gathering census).
//
// Run with --json[=path] to additionally write the { name -> median ns/op }
// baseline file (default BENCH_micro.json); see bench/bench_json.hpp.
#include <benchmark/benchmark.h>

#include <cstring>
#include <filesystem>
#include <random>
#include <string>

#include "bench_json.hpp"

#include "algo/cow_walk.hpp"
#include "core/almost_universal.hpp"
#include "algo/latecomers.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "exp/search_driver.hpp"
#include "gatherx/census.hpp"
#include "gatherx/scenario.hpp"
#include "gather/engine.hpp"
#include "geom/closest_approach.hpp"
#include "sim/batch.hpp"
#include "numeric/filter.hpp"
#include "numeric/rational.hpp"
#include "program/combinators.hpp"
#include "sim/engine.hpp"

namespace {

using aurv::numeric::BigInt;
using aurv::numeric::Rational;

void BM_RationalAddSmall(benchmark::State& state) {
  const Rational a(BigInt(355), BigInt(113));
  const Rational b(BigInt(-22), BigInt(7));
  for (auto _ : state) {
    Rational c = a;
    c += b;
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_RationalAddSmall);

void BM_RationalAddHuge(benchmark::State& state) {
  // The simulator's worst realistic case: a phase-5 wait boundary plus a
  // dyadic offset (hundreds of bits of integer part).
  const Rational a = Rational::pow2(375) + Rational::dyadic(3, 7);
  const Rational b = Rational::dyadic(5, 9);
  for (auto _ : state) {
    Rational c = a;
    c += b;
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_RationalAddHuge);

void BM_RationalCompareHuge(benchmark::State& state) {
  const Rational a = Rational::pow2(375) + Rational::dyadic(3, 7);
  const Rational b = Rational::pow2(375) + Rational::dyadic(5, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a < b);
  }
}
BENCHMARK(BM_RationalCompareHuge);

void BM_FilteredCompareFastPath(benchmark::State& state) {
  // Two cleanly separated dyadic values: the double-interval tier answers
  // every comparison (filter.fast_hits). The floor the filter puts under a
  // hot comparison.
  using aurv::numeric::Filtered;
  const Filtered a(Rational::dyadic(3, 7));
  const Filtered b(Rational::dyadic(5, 9));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a < b);
  }
}
BENCHMARK(BM_FilteredCompareFastPath);

void BM_FilteredCompareNearTie(benchmark::State& state) {
  // Values whose 2-ulp intervals overlap but whose mantissas fit 127 bits:
  // the comparison escalates to Rational's inline dyadic tier
  // (filter.limb2_hits) and is settled there without touching BigInt.
  using aurv::numeric::Filtered;
  const Filtered a(Rational::pow2(60) + Rational::dyadic(3, 60));
  const Filtered b(Rational::pow2(60) + Rational::dyadic(5, 61));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a < b);
  }
}
BENCHMARK(BM_FilteredCompareNearTie);

void BM_FilteredAddHuge(benchmark::State& state) {
  // The same phase-5 worst case as BM_RationalAddHuge pushed through the
  // filtered kernel: the 383-bit numerator is past Rational's 127-bit
  // inline mantissa, so this measures the big tier — BigInt arithmetic
  // plus the interval rebuild. The overhead ceiling of the ladder.
  using aurv::numeric::Filtered;
  const Filtered a(Rational::pow2(375) + Rational::dyadic(3, 7));
  const Filtered b(Rational::dyadic(5, 9));
  for (auto _ : state) {
    Filtered c = a;
    c += b;
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_FilteredAddHuge);

void BM_FilteredAddModerate(benchmark::State& state) {
  // Moderate-phase event times (the BatchSweepThousand regime): mantissas
  // stay within 127 bits, so accumulation runs entirely in Rational's
  // inline dyadic tier — the case the engine's += leans on.
  using aurv::numeric::Filtered;
  const Filtered a(Rational::pow2(60) + Rational::dyadic(3, 7));
  const Filtered b(Rational::dyadic(5, 9));
  for (auto _ : state) {
    Filtered c = a;
    c += b;
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_FilteredAddModerate);

void BM_BigIntMul(benchmark::State& state) {
  const BigInt a = BigInt::pow2(static_cast<std::uint64_t>(state.range(0))) - BigInt(12345);
  const BigInt b = BigInt::pow2(static_cast<std::uint64_t>(state.range(0))) - BigInt(54321);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_BigIntMul)->Arg(64)->Arg(256)->Arg(1024);

void BM_ClosestApproach(benchmark::State& state) {
  const aurv::geom::Vec2 offset{3.0, 4.0};
  const aurv::geom::Vec2 velocity{-1.0, -0.5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(aurv::geom::closest_approach(offset, velocity, 10.0));
    benchmark::DoNotOptimize(aurv::geom::first_contact(offset, velocity, 1.0, 10.0));
  }
}
BENCHMARK(BM_ClosestApproach);

void BM_PlanarCowWalkGeneration(benchmark::State& state) {
  const auto i = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    auto walk = aurv::algo::planar_cow_walk(i);
    while (walk.next()) ++instructions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_PlanarCowWalkGeneration)->Arg(2)->Arg(4)->Arg(6);

void BM_TakeDurationSlicing(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(aurv::program::take_duration(
        aurv::core::almost_universal_rv(), Rational::pow2(8)));
  }
}
BENCHMARK(BM_TakeDurationSlicing);

// -- layer ladder ------------------------------------------------------------
// One row per registered name, registered in main(): each isolates one
// layer of a campaign run, with no engine and no sink.

void BM_ProgramStream(benchmark::State& state, const std::string& algorithm) {
  // The program layer: the first 100k instructions of the algorithm's
  // program (fewer if it ends) resolved on one fixed probe instance — a
  // covered type-1 instance on which the boundary entry's S1 construction
  // is also valid. items/s is instructions/s.
  constexpr std::uint64_t kPull = 100'000;
  const aurv::agents::Instance probe =
      aurv::agents::Instance::synchronous(1.0, {3.0, 4.0}, 0.0, 5, 1);
  const aurv::sim::AlgorithmFactory factory = aurv::exp::resolve_algorithm(algorithm)(probe);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    aurv::program::Program program = factory();
    for (std::uint64_t k = 0; k < kPull && program.next(); ++k) {
      benchmark::DoNotOptimize(&program.value());
      ++instructions;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}

void BM_SampleInstance(benchmark::State& state, const std::string& sampler) {
  // The sampler layer: exp::campaign_instance, per-sample RNG seeding
  // included, over consecutive jobs of a default-range campaign.
  aurv::exp::ScenarioSpec spec;
  spec.sampler = sampler;
  spec.seed = 7;
  spec.count = std::uint64_t{1} << 20;
  std::uint64_t job = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(aurv::exp::campaign_instance(spec, job));
    job = (job + 1) % spec.count;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_GatherEngineThreeAgents(benchmark::State& state) {
  // Multi-agent window processing: O(n^2) pair checks per event.
  const std::vector<aurv::gather::GatherAgent> agents = {
      {{0.0, 0.0}, 0}, {{200.0, 0.0}, 1}, {{-200.0, 50.0}, 2}};
  std::uint64_t events = 0;
  for (auto _ : state) {
    aurv::gather::GatherConfig config;
    config.r = 0.5;
    config.max_events = static_cast<std::uint64_t>(state.range(0));
    const aurv::gather::GatherResult result =
        aurv::gather::GatherEngine(agents, config).run([] {
          return aurv::algo::latecomers();
        });
    events += result.events;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_GatherEngineThreeAgents)->Arg(10'000);

void BM_BatchSweepScaling(benchmark::State& state) {
  // Thread-pool scaling of the sweep runner on independent never-meeting
  // simulations.
  std::vector<aurv::agents::Instance> instances;
  for (int k = 0; k < 24; ++k) {
    instances.push_back(
        aurv::agents::Instance::synchronous(0.25, {300.0 + k, 0.0}, 0.0, 0, 1));
  }
  aurv::sim::EngineConfig config;
  config.max_events = 20'000;
  for (auto _ : state) {
    const auto results = aurv::sim::run_sweep(
        instances, [] { return aurv::core::almost_universal_rv(); }, config,
        static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 24 * 20'000);
}
BENCHMARK(BM_BatchSweepScaling)->Arg(1)->Arg(4)->Arg(16)->UseRealTime();

void BM_BatchSweepThousand(benchmark::State& state) {
  // The acceptance workload for numeric-stack optimizations: a sweep of
  // 1000 independent AlmostUniversalRV instances, auto-threaded. Dominated
  // by exact rational event arithmetic.
  std::vector<aurv::agents::Instance> instances;
  instances.reserve(1000);
  for (int k = 0; k < 1000; ++k) {
    instances.push_back(aurv::agents::Instance::synchronous(
        0.25, {300.0 + 0.25 * k, 0.0}, 0.0, 0, 1));
  }
  aurv::sim::EngineConfig config;
  config.max_events = 500;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto results = aurv::sim::run_sweep(
        instances, [] { return aurv::core::almost_universal_rv(); }, config, 0);
    for (const auto& result : results) events += result.events;
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_BatchSweepThousand)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_FilteredEngineThroughput(benchmark::State& state) {
  // End-to-end events/second of the exact-time engine: a never-meeting
  // symmetric instance driven by the full Algorithm 1, with the numeric
  // ladder pinned to the requested mode — 0 = full filter (interval and
  // inline-dyadic tiers live), 1 = exact-only (every comparison decided by
  // the full Rational comparison, as under AURV_EXACT_ONLY=1). The ratio
  // of the /1 row to the /0 row is the filter's measured speedup on
  // identical work; results are byte-identical by the soundness contract.
  const bool exact_only = state.range(1) != 0;
  aurv::numeric::set_filter_exact_only(exact_only);
  const aurv::agents::Instance instance =
      aurv::agents::Instance::synchronous(0.25, {500.0, 0.0}, 0.0, 0, 1);
  std::uint64_t events = 0;
  for (auto _ : state) {
    aurv::sim::EngineConfig config;
    config.max_events = static_cast<std::uint64_t>(state.range(0));
    const aurv::sim::SimResult result =
        aurv::sim::Engine(instance, config)
            .run([] { return aurv::core::almost_universal_rv(); });
    events += result.events;
    benchmark::DoNotOptimize(result);
  }
  aurv::numeric::set_filter_exact_only(false);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_FilteredEngineThroughput)
    ->Args({10'000, 0})
    ->Args({10'000, 1})
    ->Args({100'000, 0})
    ->Args({100'000, 1});

// -- search and gathering-census rows ---------------------------------------
// One iteration is one whole run, so ns/op is per search or census; the
// console's items/s is boxes/s or runs/s. Threaded rows time wall-clock
// (UseRealTime), since the main thread's CPU time says nothing of the
// workers. A run that comes back short is an error, not a fast row.

aurv::exp::SearchSpec search_bench_spec() {
  // The type-1 worst-meet-time shape (tuple space over (x, t) straddling
  // the t = |x| - r feasibility boundary): per-box cost is one short
  // engine run, so wave assembly, bound evaluation, frontier maintenance
  // and in-order merging are a visible fraction.
  aurv::exp::SearchSpec spec;
  spec.name = "bench_search_tuple";
  spec.algorithm = "aurv";
  spec.objective = "max-meet-time";
  spec.space.family = aurv::search::SearchSpace::Family::Tuple;
  spec.space.chi = -1;
  spec.space.fixed = {{"r", Rational(1)},
                      {"y", Rational(BigInt(6), BigInt(5))},
                      {"phi", Rational(0)}};
  spec.space.dim_names = {"x", "t"};
  spec.box = {aurv::search::Interval{Rational(BigInt(3), BigInt(2)),
                                     Rational(BigInt(7), BigInt(2))},
              aurv::search::Interval{Rational(0), Rational(3)}};
  spec.limits.max_boxes = 20'000;
  spec.limits.wave_size = 64;
  spec.limits.min_width = Rational(BigInt(1), BigInt(1u << 20));
  spec.engine.max_events = 2'000'000;
  spec.engine.horizon = Rational(256);
  return spec;
}

void run_search_row(benchmark::State& state, const aurv::exp::SearchOptions& options) {
  const aurv::exp::SearchSpec spec = search_bench_spec();
  aurv::exp::SearchRunResult result;
  for (auto _ : state) {
    result = aurv::exp::run_search(spec, options);
    if (result.bnb.stats.evaluated != spec.limits.max_boxes) {
      state.SkipWithError("short run: evaluated != max_boxes");
      return;
    }
  }
  const auto evaluated = static_cast<double>(result.bnb.stats.evaluated);
  const auto pruned = static_cast<double>(result.bnb.stats.pruned);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(spec.limits.max_boxes));
  // Search quality, not time: a weaker bound shows up as a lower prune
  // rate; the high-water mark is the memory an unspilled search needs.
  state.counters["prune_rate_pct"] = 100.0 * pruned / (evaluated + pruned);
  state.counters["frontier_high_water_boxes"] =
      static_cast<double>(result.bnb.stats.max_frontier);
  if (!options.spill_dir.empty()) {
    state.counters["hot_high_water_boxes"] =
        static_cast<double>(result.bnb.frontier_hot_high_water);
  }
}

void BM_SearchBnb(benchmark::State& state) {
  aurv::exp::SearchOptions options;
  options.max_shards = static_cast<std::size_t>(state.range(0));
  run_search_row(state, options);
}
BENCHMARK(BM_SearchBnb)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SearchBnbSpill(benchmark::State& state) {
  // The same search with the hot set capped at 64 boxes and the cold tail
  // in JSONL disk segments: the delta against BM_SearchBnb/shards:1 is the
  // spill overhead, hot_high_water_boxes the resident memory achieved.
  // Random-suffixed: SpillDeque directories are single-owner, and two
  // bench processes on one machine must not sweep each other's segments.
  struct TempDirJanitor {  // cleans up even when the spilled run throws
    std::string path;
    ~TempDirJanitor() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } janitor{(std::filesystem::temp_directory_path() /
             ("micro_kernels_spill." + std::to_string(std::random_device{}())))
                .string()};
  aurv::exp::SearchOptions options;
  options.max_shards = static_cast<std::size_t>(state.range(0));
  options.spill_dir = janitor.path;
  options.frontier_mem = 64;
  run_search_row(state, options);
}
BENCHMARK(BM_SearchBnbSpill)
    ->ArgName("shards")
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_GatherCensus(benchmark::State& state) {
  // A disk census of latecomers chains (2-4 agents) through both stop
  // policies on the sharded census runner.
  aurv::gatherx::GatherScenarioSpec spec;
  spec.name = "bench_gather_census";
  spec.algorithm = "latecomers";
  spec.seed = 99;
  spec.sampler = "disk";
  spec.count = 5'000;
  spec.ranges.n_min = 2;
  spec.ranges.n_max = 4;
  spec.ranges.wake_max = 6.0;
  spec.max_events = 500'000;
  spec.horizon = Rational(2048);
  const std::uint64_t total_runs = spec.total_jobs() * spec.policies.size();
  aurv::gatherx::CensusOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const aurv::gatherx::CensusResult result = aurv::gatherx::run_census(spec, options);
    if (result.aggregate.first_sight.runs + result.aggregate.all_visible.runs != total_runs) {
      state.SkipWithError("short run: runs != total_jobs");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(total_runs));
}
BENCHMARK(BM_GatherCensus)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  // Strip --json[=path] before handing the remaining flags to benchmark.
  bool json = false;
  std::string json_path = "BENCH_micro.json";
  int out = 1;
  for (int in = 1; in < argc; ++in) {
    if (std::strcmp(argv[in], "--json") == 0) {
      json = true;
    } else if (std::strncmp(argv[in], "--json=", 7) == 0) {
      json = true;
      json_path = argv[in] + 7;
    } else {
      argv[out++] = argv[in];
    }
  }
  argc = out;
  for (const std::string& name : aurv::exp::algorithm_names()) {
    benchmark::RegisterBenchmark(("BM_ProgramStream/" + name).c_str(), BM_ProgramStream, name);
  }
  for (const std::string& name : aurv::exp::sampler_names()) {
    benchmark::RegisterBenchmark(("BM_SampleInstance/" + name).c_str(), BM_SampleInstance, name);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (json) {
    aurv::bench::JsonCaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    try {
      reporter.write(json_path);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      return 1;
    }
  } else {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return 0;
}
