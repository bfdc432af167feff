// JSON capture of a google-benchmark run for the committed baseline file.
//
// `micro_kernels --json[=path]` writes each row's median ns/op (and the
// plain counters) as a flat { row name -> value } object, plus the rows'
// median absolute deviations and the machine the numbers come from
// (default path BENCH_micro.json). The committed BENCH_micro.json at the
// repo root is the micro-kernel trajectory: each optimization PR re-runs
// the kernels and updates it, so regressions are visible in review as a
// diff. End-to-end throughput is measured by perfbench/ (BENCHMARK.json).
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

// Build facts for the machine block; CMake defines them for micro_kernels.
#ifndef AURV_CXX_FLAGS
#define AURV_CXX_FLAGS "unknown"
#endif
#ifndef AURV_BUILD_TYPE
#define AURV_BUILD_TYPE "unknown"
#endif

namespace aurv::bench {

namespace detail {

/// google-benchmark renamed Run::error_occurred to Run::skipped in v1.8;
/// both library generations are in the wild (system packages are often
/// 1.6/1.7, the FetchContent fallback pins 1.8.3). Resolve at compile time
/// via overload ranking instead of a version macro.
template <typename RunT>
auto run_errored(const RunT& run, int) -> decltype(static_cast<bool>(run.error_occurred)) {
  return run.error_occurred;
}
template <typename RunT>
auto run_errored(const RunT& run, long) -> decltype(run.skipped != RunT::NotSkipped) {
  return run.skipped != RunT::NotSkipped;
}

}  // namespace detail

/// Median of a nonempty sample (the mean of the middle two for an even
/// count, as google-benchmark's own median aggregate).
inline double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

/// Console reporter that additionally collects, per row, the adjusted real
/// time in ns/op of every repetition and every plain (non-rate) user
/// counter. Counters are workload quality numbers (prune rate, frontier
/// high-water), identical at every worker count by the determinism
/// invariant, so they are keyed by family as `<family>/<counter>`. Errored
/// rows are left out. Under --benchmark_repetitions=N the file holds each
/// row's median and its median absolute deviation, computed here from the
/// repetitions themselves, so do not combine --json with the
/// *_aggregates_only flags (which hide the repetitions from this reporter).
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (detail::run_errored(run, 0) || run.iterations == 0) continue;
      if (run.run_type != Run::RT_Iteration) continue;
      // Normalize to ns/op regardless of the benchmark's display time unit
      // (real_accumulated_time is in seconds).
      times_[run.run_name.str()].push_back(run.real_accumulated_time /
                                           static_cast<double>(run.iterations) * 1e9);
      for (const auto& [name, counter] : run.counters) {
        if ((counter.flags & benchmark::Counter::kIsRate) != 0) continue;
        counters_[run.run_name.function_name + "/" + name].push_back(counter.value);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  /// Writes schema 2:
  ///   { "schema": 2, "unit": "ns/op",
  ///     "machine": { "nproc", "compiler", "flags", "build_type" },
  ///     "benchmarks": { name: median },   // time rows and counters
  ///     "mad": { name: median absolute deviation } }   // time rows
  void write(const std::string& path) const {
    std::map<std::string, double> medians;
    std::map<std::string, double> mads;
    for (const auto& [name, values] : times_) {
      const double median = median_of(values);
      std::vector<double> deviations;
      for (const double value : values) deviations.push_back(std::abs(value - median));
      medians[name] = median;
      mads[name] = median_of(std::move(deviations));
    }
    for (const auto& [name, values] : counters_) medians[name] = median_of(values);

    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) throw std::runtime_error("bench_json: cannot open " + path);
    std::fprintf(file, "{\n  \"schema\": 2,\n  \"unit\": \"ns/op\",\n");
    std::fprintf(file,
                 "  \"machine\": {\n    \"nproc\": %u,\n    \"compiler\": \"%s\",\n"
                 "    \"flags\": \"%s\",\n    \"build_type\": \"%s\"\n  },\n",
                 std::thread::hardware_concurrency(), kCompiler, AURV_CXX_FLAGS,
                 AURV_BUILD_TYPE);
    write_map(file, "benchmarks", medians, ",");
    write_map(file, "mad", mads, "");
    std::fprintf(file, "}\n");
    std::fclose(file);
  }

 private:
#if defined(__clang__)
  static constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  static constexpr const char* kCompiler = "gcc " __VERSION__;
#else
  static constexpr const char* kCompiler = "unknown";
#endif

  static void write_map(std::FILE* file, const char* key, const std::map<std::string, double>& map,
                        const char* trailer) {
    std::fprintf(file, "  \"%s\": {\n", key);
    std::size_t index = 0;
    for (const auto& [name, value] : map) {
      std::fprintf(file, "    \"%s\": %.2f%s\n", name.c_str(), value,
                   ++index < map.size() ? "," : "");
    }
    std::fprintf(file, "  }%s\n", trailer);
  }

  std::map<std::string, std::vector<double>> times_;
  std::map<std::string, std::vector<double>> counters_;
};

}  // namespace aurv::bench
