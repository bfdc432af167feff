// Shared declarations of the aurv benchmark harness.
//
// The harness drives the library only through its public headers: the
// timed runs call exp::run_campaign / exp::run_search exactly as the CLI
// does, and the traced runs wrap the same public entry points
// (exp::campaign_instance, sim::Engine::run, CampaignAggregate::add, the
// JSONL sink, search::run_bnb with a decorated Objective) in spans kept in
// memory. Nothing under src/ knows the harness exists.
#pragma once

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "program/instruction.hpp"
#include "support/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t elapsed_ns(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - since).count();
}

/// Command line of one benchmark invocation.
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool small = false;     ///< --scale small: the self-test's reduced inputs
  std::string out_dir;    ///< results and trace files land here
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// Worker count of the parallel runs: 4, capped at the machine's cores.
[[nodiscard]] std::size_t parallel_workers();

/// What a workload hands back to main: the result line's fields plus the
/// detail block written to the result file.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Check or determinism failures; any entry makes the result incorrect.
  std::vector<std::string> problems;
  /// Metric values by name: the end-to-end set, or the per-layer set in a
  /// traced invocation. perfbench/run.py checks that every name
  /// BENCHMARK.json lists for the mode is present.
  std::map<std::string, double> values;
  /// Per-metric samples (name -> values over the repeats) for the report.
  std::map<std::string, std::vector<double>> samples;
  aurv::support::Json details = aurv::support::Json::object();
};

// ------------------------------------------------------------ statistics --

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile (fraction in (0, 1]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double fraction);
/// (q3 - q1) / median with Python's statistics.quantiles(n=4) convention.
[[nodiscard]] double relative_iqr(const std::vector<double>& values);

using Counts = std::map<std::string, std::uint64_t>;

/// Calls body(repeat) until `seconds` are spent, never starting a repeat
/// the previous one's duration says cannot finish in time, and at least
/// `min_repeats` times. Returns the number of repeats run.
template <typename Body>
int repeat_for(double seconds, int min_repeats, Body&& body) {
  const Clock::time_point start = Clock::now();
  double last_s = 0.0;
  int repeats = 0;
  while (repeats < min_repeats ||
         static_cast<double>(elapsed_ns(start)) / 1e9 + last_s <= seconds) {
    const Clock::time_point begin = Clock::now();
    body(repeats);
    last_s = static_cast<double>(elapsed_ns(begin)) / 1e9;
    ++repeats;
  }
  return repeats;
}

/// Pins the calling thread, and the threads it starts, to one of the CPUs
/// it may run on (`index` modulo their count) until destruction. The
/// single-thread measurements (setup_s samples, the 1-worker runs) rotate
/// `index` over their samples: on a shared VM each vCPU's speed wanders on
/// its own (the same loader call differs by up to 1.5x from one vCPU to
/// another at the same moment), and a thread the kernel leaves on one vCPU
/// for a whole run would carry that vCPU's luck into the run's median.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(std::size_t index);
  ~PinnedToCpu();
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// setup_s: wall time of handing the spec text to the loader (parse +
/// from_json). setup_batch warms the loader up and sizes a batch of loads
/// to >= 20 ms; sample_setup appends samples, each one batch's seconds per
/// load, pinned to each CPU in turn, until `budget_s` is spent (at least
/// one). The workloads call it before every repeat with a budget of 4% of
/// the previous repeat (>= 60 ms): on a shared VM the host's speed wanders
/// over milliseconds to minutes (thread CPU time tracks wall time, so it is
/// not preemption), and samples spread evenly over the whole run see the
/// same machine as the timed runs.
template <typename Load>
int setup_batch(const std::string& text, Load&& load) {
  (void)load(text);
  int batch = 0;
  const Clock::time_point start = Clock::now();
  do {
    (void)load(text);
    ++batch;
  } while (elapsed_ns(start) < 20'000'000);
  return batch;
}

template <typename Load>
void sample_setup(std::vector<double>& samples, const std::string& text, int batch,
                  double budget_s, Load&& load) {
  const Clock::time_point start = Clock::now();
  do {
    const PinnedToCpu pin(samples.size());
    const Clock::time_point begin = Clock::now();
    for (int k = 0; k < batch; ++k) (void)load(text);
    samples.push_back(static_cast<double>(elapsed_ns(begin)) / 1e9 / batch);
  } while (static_cast<double>(elapsed_ns(start)) < budget_s * 1e9);
}

/// The setup_s sampling budget before a repeat, given the previous one's
/// wall time (0 before the first).
[[nodiscard]] inline double setup_budget_s(double previous_repeat_s) {
  return std::max(0.06, 0.04 * previous_repeat_s);
}

/// Registry counter values (after draining this thread's filter tallies).
[[nodiscard]] Counts read_counters();
/// after - before, for the listed names.
[[nodiscard]] Counts counter_delta(const Counts& before, const Counts& after,
                                   const std::vector<std::string>& names);

/// Determinism guard: every exact count must repeat across runs. The first
/// call per label stores the reference; later mismatches become problems.
class CountGuard {
 public:
  void check(const std::string& label, const Counts& counts, std::vector<std::string>& problems);
  [[nodiscard]] const Counts& reference() const { return reference_; }

 private:
  bool have_reference_ = false;
  std::string reference_label_;
  Counts reference_;
};

/// Gaps, in ms, between consecutive time points, the first measured from
/// `start` (progress callbacks -> flush or wave gaps).
[[nodiscard]] std::vector<double> gaps_ms(Clock::time_point start,
                                          const std::vector<Clock::time_point>& points);

/// Sets the end-to-end values: the median of each per-repeat sample
/// series (throughput, throughput_1w, cpu_ms_per_item, setup_s) and the
/// process's peak resident set.
void report_end_to_end(Outcome& outcome);

/// Process user+sys CPU time, ns (all threads).
[[nodiscard]] std::int64_t process_cpu_ns();
/// Peak resident set of the process, MiB.
[[nodiscard]] double peak_rss_mib();

// ---------------------------------------------------------------- inputs --

/// The generated inputs of a workload: the spec text handed to the loader.
[[nodiscard]] std::string census_light_spec(std::uint64_t seed, bool small);
[[nodiscard]] std::string census_deep_spec(std::uint64_t seed, bool small);
[[nodiscard]] std::string search_gather_spec(std::uint64_t seed, bool small);

// ------------------------------------------------------------- tracing --

/// One in-memory span. `lane` is the Chrome-trace tid: 0 is the serialized
/// side, 1..workers are worker lanes.
struct Span {
  const char* name = "";
  const char* category = "";
  std::int64_t start_ns = 0;  ///< since the trace epoch
  std::int64_t duration_ns = 0;
  std::uint32_t lane = 0;
  std::int64_t item = -1;     ///< job or evaluation index, -1 = none
  std::uint64_t pulls = 0;    ///< instructions pulled inside the span
  std::uint64_t pull_ns = 0;  ///< time spent in those pulls
};

/// Instruction-pull tallies of the programs wrapped by timed_program.
struct PullStats {
  std::uint64_t pulls = 0;
  std::uint64_t ns = 0;
};

/// Wraps `inner`, timing each instruction pull into `stats`, which must
/// outlive the returned program.
[[nodiscard]] aurv::program::Program timed_program(aurv::program::Program inner,
                                                   PullStats& stats);

/// Writes spans as a Chrome Trace Event file (scripts/trace_report.py show
/// reads it). Timestamps are microseconds since the trace epoch.
void write_chrome_trace(const std::string& path, const std::string& process_name,
                        const std::vector<Span>& spans);

// ------------------------------------------------------------ workloads --

[[nodiscard]] Outcome run_census(const Args& args);
[[nodiscard]] Outcome run_search_gather(const Args& args);

}  // namespace perfbench
