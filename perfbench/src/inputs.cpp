// Workload inputs: each workload's spec text is a pure function of the
// seed, generated here and handed to the program's loader.
//
// census_deep's grid is built from fixed type-4 anchor configurations,
// each jittered by the seed. Per-run cost on type 4 is heavy-tailed and
// cliff-shaped (a run lands in a phase of Algorithm 1, and costs jump by
// ~10x from one phase to the next), so instances drawn i.i.d. make the
// per-seed total vary by 2x and more. The anchors sit where a +-2% jitter
// keeps every run in the same phase, so the mix of phases is fixed while
// the instances themselves change with the seed. The mix is the one the
// program's own type-4 sampler produces (see census_deep_spec).
#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>

#include "perfbench.hpp"
#include "support/json.hpp"

namespace perfbench {

using aurv::support::Json;

namespace {

/// Benchmark-side generator, independent of the program's RNG so that a
/// change to the program's sampler cannot change these inputs.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

/// A type-4 configuration: synchronous with chi = +1 and t = numerator/32,
/// or tau = 1 with v = numerator/64 and t = 0. Every anchor below kept its
/// event count within 3% (shallow ones within a few events) over 250
/// jitters; candidates that jumped to another phase under some jitter
/// were dropped.
struct Anchor {
  bool synchronous;
  double r;
  double dist;
  double direction;
  double phi;
  int chi;
  long numerator;
};

// Runs of ~108-152k events (130-280 ms each on a 2.1 GHz Xeon VM), with
// roughly one Rational escape per event or more. In the order async,
// async, sync: a third of the sampler's runs in this phase are synchronous.
constexpr Anchor kVeryDeep[] = {
    {false, 0.5224, 3.7303, 3.8539, 0.4828, -1, 73},
    {false, 0.8500, 3.6183, 3.4662, 0.5173, -1, 55},
    {true, 0.7210, 3.7837, 5.5583, 0.1446, +1, 39},
    {false, 1.3215, 3.5063, 5.3330, 4.4107, -1, 57},
    {false, 1.0171, 3.8815, 0.6818, 0.9982, -1, 73},
    {true, 0.9801, 3.8798, 1.8266, 0.1028, +1, 47},
};

// Runs of ~50-60k events (50-110 ms each), each with thousands of
// Rational escapes.
constexpr Anchor kDeep[] = {
    {true, 0.7706, 2.2378, 3.8634, 0.1154, +1, 4},
    {false, 1.0613, 3.2169, 1.1026, 2.8815, -1, 72},
    {true, 1.3808, 3.3604, 2.5557, 0.1057, +1, 20},
    {false, 0.7540, 3.4751, 5.2101, 3.2480, -1, 53},
    {true, 0.7027, 3.6605, 2.1939, 0.1998, +1, 24},
    {false, 1.3705, 3.0162, 4.5635, 2.4742, -1, 55},
};

// Runs of ~4.7-9.5k events (3-6 ms) decided in the fast and two-limb tiers.
constexpr Anchor kMid[] = {
    {false, 1.2873, 2.8998, 0.8871, 1.0184, -1, 76},
    {true, 0.5644, 3.7231, 5.2359, 0.4295, +1, 10},
    {false, 0.8192, 3.9317, 0.0731, 0.3709, -1, 43},
    {false, 0.8052, 1.9109, 4.3600, 2.0900, -1, 52},
    {false, 0.5997, 2.0358, 4.6589, 0.1607, +1, 51},
    {true, 0.5423, 3.3722, 0.7021, 0.2927, +1, 23},
    {false, 1.3795, 3.8520, 1.1517, 2.1817, -1, 82},
    {false, 1.1912, 3.7190, 5.2834, 0.1346, +1, 48},
};

// Runs of 20-820 events (tens to hundreds of microseconds).
constexpr Anchor kShallow[] = {
    {false, 1.2047, 1.9193, 0.7074, 3.5696, -1, 149},
    {true, 0.8326, 3.6319, 0.6142, 2.8623, +1, 6},
    {false, 1.0028, 2.5430, 2.7138, 5.6488, -1, 129},
    {true, 0.5562, 1.3428, 0.7573, 4.9689, +1, 2},
    {false, 1.2688, 3.0936, 5.3222, 0.8296, +1, 81},
    {true, 0.8666, 3.6369, 2.3468, 4.7073, +1, 20},
    {false, 1.2708, 3.8640, 2.0876, 5.3356, +1, 26},
    {true, 0.5463, 3.5977, 3.8956, 2.7510, +1, 57},
    {false, 0.7377, 2.4980, 5.6125, 4.7517, -1, 30},
    {true, 1.2005, 3.8696, 2.7361, 1.7410, +1, 28},
    {false, 0.9351, 3.1874, 1.3981, 4.2865, -1, 33},
    {false, 0.7686, 2.1059, 0.4305, 1.1748, -1, 36},
    {true, 0.5092, 2.7579, 4.0441, 0.5866, +1, 49},
    {false, 1.1251, 1.8763, 3.2547, 0.5124, -1, 101},
    {true, 1.2112, 3.9586, 5.8556, 2.0392, +1, 55},
    {false, 0.8509, 3.0118, 3.0179, 0.6605, +1, 132},
};

Json jittered(const Anchor& anchor, SplitMix64& rng) {
  constexpr double kJitter = 0.02;
  const double r = anchor.r * (1.0 + rng.uniform(-kJitter, kJitter));
  const double dist = anchor.dist * (1.0 + rng.uniform(-kJitter, kJitter));
  const double direction = anchor.direction + rng.uniform(-kJitter, kJitter);
  const double phi = anchor.phi * (1.0 + rng.uniform(-kJitter, kJitter));
  Json entry = Json::object();
  entry.set("r", Json(r));
  entry.set("x", Json(dist * std::cos(direction)));
  entry.set("y", Json(dist * std::sin(direction)));
  entry.set("phi", Json(phi));
  entry.set("tau", Json("1"));
  const std::string numerator = std::to_string(anchor.numerator);
  entry.set("v", Json(anchor.synchronous ? "1" : numerator + "/64"));
  entry.set("t", Json(anchor.synchronous ? numerator + "/32" : "0"));
  entry.set("chi", Json(anchor.chi));
  return entry;
}

/// The spec's seed field holds integers up to 2^53 (exact in a double).
std::uint64_t spec_seed(std::uint64_t seed) { return seed & ((std::uint64_t{1} << 53) - 1); }

}  // namespace

std::string census_light_spec(std::uint64_t seed, bool small) {
  Json source = Json::object();
  source.set("sampler", Json("type1"));
  source.set("count", Json(small ? 400 : 8'000));
  Json engine = Json::object();
  engine.set("max_events", Json(5'000'000));
  Json spec = Json::object();
  spec.set("schema", Json(1));
  spec.set("name", Json("census_light"));
  spec.set("algorithm", Json("aurv"));
  spec.set("seed", Json(spec_seed(seed)));
  spec.set("replications", Json(1));
  spec.set("source", std::move(source));
  spec.set("engine", std::move(engine));
  return spec.dump();
}

std::string census_deep_spec(std::uint64_t seed, bool small) {
  // Runs per 256-job block (one runner shard each at the default shard
  // size) in each phase. The shares were measured on 6300 runs of the
  // program's type-4 sampler (scenarios/type4_census.json, and the same
  // spec at 1500 runs for seeds 11-14), binned by events per run: shallow
  // < 2k 94.5%, mid 2k-30k 3.4%, deep 30k-100k 1.1%, very deep >= 100k
  // 1.0%. Rounded to whole runs, shallow taking the rest: 241 / 9 / 3 / 3.
  // The sampler's very deep runs average ~760k events (up to the 2M
  // budget); at ~1 s each one of them would be a large share of a repeat,
  // so that phase's anchors sit at its short end and the grid has ~2.6k
  // events per run against the sampler's ~4-9k. Every block has the same
  // mix, so the five shards cost alike and the 5-shards-on-4-workers
  // imbalance is the runner's, not the input's.
  struct Stratum {
    const Anchor* anchors;
    std::uint64_t size;
    std::uint64_t per_block;
  };
  const std::uint64_t blocks = small ? 1 : 5;
  const Stratum strata[] = {
      {kVeryDeep, std::size(kVeryDeep), small ? 1u : 3u},
      {kDeep, std::size(kDeep), small ? 1u : 3u},
      {kMid, std::size(kMid), small ? 2u : 9u},
      {kShallow, std::size(kShallow), small ? 60u : 241u},
  };
  // A shard is claimed and run whole, so the order inside a block does not
  // change what the runner balances.
  SplitMix64 rng(seed ^ 0x6465657063656e73ULL);
  std::uint64_t drawn[std::size(strata)] = {};
  Json grid = Json::array();
  for (std::uint64_t block = 0; block < blocks; ++block)
    for (std::size_t k = 0; k < std::size(strata); ++k)
      for (std::uint64_t i = 0; i < strata[k].per_block; ++i, ++drawn[k])
        grid.push_back(jittered(strata[k].anchors[drawn[k] % strata[k].size], rng));
  Json source = Json::object();
  source.set("grid", std::move(grid));
  Json engine = Json::object();
  engine.set("max_events", Json(2'000'000));
  Json spec = Json::object();
  spec.set("schema", Json(1));
  spec.set("name", Json("census_deep"));
  spec.set("algorithm", Json("aurv"));
  spec.set("seed", Json(spec_seed(seed)));
  spec.set("replications", Json(1));
  spec.set("source", std::move(source));
  spec.set("engine", std::move(engine));
  return spec.dump();
}

std::string search_gather_spec(std::uint64_t seed, bool small) {
  // The search_gather_worst.json shape (3-agent FirstSight chain over
  // spread x delay, Latecomers), with fine leaves so the box budget, not
  // the tree, ends the run. The seed moves the box edges by dyadic steps.
  // Waves of 4096 boxes (~49 per run): every wave starts and joins its
  // worker threads, and on a shared VM waking the idle vCPUs sometimes
  // costs ~2 ms per wave for tens of seconds at a time. At 256-box waves
  // (~1 ms each) that halved the 4-shard throughput, at 1024 it cut it by
  // a third, while CPU per box and the 1-shard run, which starts no
  // thread, held steady. The barrier cost still shows in
  // search.barrier_wait_ms.
  SplitMix64 rng(seed ^ 0x7365617263686761ULL);
  const auto dyadic = [](long numerator) { return std::to_string(numerator) + "/64"; };
  Json spread = Json::array();
  spread.push_back(Json(dyadic(32 + static_cast<long>(rng.below(8)))));
  spread.push_back(Json(dyadic(256 - static_cast<long>(rng.below(16)))));
  Json delay = Json::array();
  delay.push_back(Json(0));
  delay.push_back(Json(dyadic(192 - static_cast<long>(rng.below(16)))));
  Json box = Json::object();
  box.set("spread", std::move(spread));
  box.set("delay", std::move(delay));
  Json fixed = Json::object();
  fixed.set("n", Json(3));
  fixed.set("r", Json(1));
  fixed.set("policy", Json(0));
  Json space = Json::object();
  space.set("family", Json("gather-tuple"));
  space.set("fixed", std::move(fixed));
  space.set("box", std::move(box));
  Json budget = Json::object();
  budget.set("max_boxes", Json(small ? 2'000 : 200'000));
  budget.set("wave_size", Json(4096));
  budget.set("min_width", Json("1/1048576"));
  Json engine = Json::object();
  engine.set("max_events", Json(500'000));
  engine.set("horizon", Json("512"));
  Json spec = Json::object();
  spec.set("schema", Json(1));
  spec.set("kind", Json("search"));
  spec.set("name", Json("search_gather"));
  spec.set("algorithm", Json("latecomers"));
  spec.set("objective", Json("max-gather-time"));
  spec.set("space", std::move(space));
  spec.set("budget", std::move(budget));
  spec.set("engine", std::move(engine));
  return spec.dump();
}

}  // namespace perfbench
