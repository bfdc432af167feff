// JSON capture of a google-benchmark run for the committed baseline file.
//
// `micro_kernels --json[=path]` writes a flat { row name -> value } object
// (default path BENCH_micro.json). The committed BENCH_micro.json at the
// repo root is the micro-kernel trajectory: each optimization PR re-runs
// the kernels and updates it, so regressions are visible in review as a
// diff. End-to-end throughput is measured by perfbench/ (BENCHMARK.json).
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

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

/// Console reporter that additionally collects, per row, the adjusted real
/// time in ns/op and every plain (non-rate) user counter. Under
/// --benchmark_repetitions=N the `median` aggregate, reported after the
/// repetitions, overwrites the last repetition under the row's plain name;
/// a single repetition has no aggregates. Counters are workload quality
/// numbers (prune rate, frontier high-water), identical at every worker
/// count by the determinism invariant, so they are keyed by family as
/// `<family>/<counter>`. Errored rows are left out.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (detail::run_errored(run, 0) || run.iterations == 0) continue;
      const bool median = run.run_type == Run::RT_Aggregate && run.aggregate_name == "median";
      if (run.run_type != Run::RT_Iteration && !median) continue;
      // Normalize to ns/op regardless of the benchmark's display time unit
      // (real_accumulated_time is in seconds).
      results_[run.run_name.str()] =
          run.real_accumulated_time / static_cast<double>(run.iterations) * 1e9;
      for (const auto& [name, counter] : run.counters) {
        if ((counter.flags & benchmark::Counter::kIsRate) != 0) continue;
        results_[run.run_name.function_name + "/" + name] = counter.value;
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  /// Writes { "schema": 1, "unit": "ns/op", "benchmarks": { name: value } }.
  void write(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) throw std::runtime_error("bench_json: cannot open " + path);
    std::fprintf(file, "{\n  \"schema\": 1,\n  \"unit\": \"ns/op\",\n  \"benchmarks\": {\n");
    std::size_t index = 0;
    for (const auto& [name, value] : results_) {
      std::fprintf(file, "    \"%s\": %.2f%s\n", name.c_str(), value,
                   ++index < results_.size() ? "," : "");
    }
    std::fprintf(file, "  }\n}\n");
    std::fclose(file);
  }

 private:
  std::map<std::string, double> results_;
};

}  // namespace aurv::bench
