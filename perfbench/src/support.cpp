// Harness plumbing: counters, process resources, statistics, the timed
// program wrapper and the Chrome-trace writer.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "numeric/filter.hpp"
#include "perfbench.hpp"
#include "support/telemetry.hpp"

namespace perfbench {

std::size_t parallel_workers() {
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(4, cores);
}

PinnedToCpu::PinnedToCpu(std::size_t index) {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  const int allowed = CPU_COUNT(&saved_);
  if (allowed <= 1) return;
  std::size_t skip = index % static_cast<std::size_t>(allowed);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || skip-- != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
    return;
  }
}

PinnedToCpu::~PinnedToCpu() {
  if (pinned_) (void)sched_setaffinity(0, sizeof saved_, &saved_);
}

Counts read_counters() {
  // Filter tallies are thread-local and drain at the end of each engine
  // run; drain this thread's leftovers so they never land in the next
  // run's delta.
  aurv::numeric::flush_filter_stats();
  return aurv::support::telemetry::registry().counter_values();
}

Counts counter_delta(const Counts& before, const Counts& after,
                     const std::vector<std::string>& names) {
  Counts delta;
  for (const std::string& name : names) {
    const auto old_value = before.find(name);
    const auto new_value = after.find(name);
    const std::uint64_t a = old_value == before.end() ? 0 : old_value->second;
    const std::uint64_t b = new_value == after.end() ? 0 : new_value->second;
    delta[name] = b - a;
  }
  return delta;
}

void CountGuard::check(const std::string& label, const Counts& counts,
                       std::vector<std::string>& problems) {
  if (!have_reference_) {
    have_reference_ = true;
    reference_label_ = label;
    reference_ = counts;
    return;
  }
  for (const auto& [name, value] : counts) {
    const auto expected = reference_.find(name);
    if (expected == reference_.end() || expected->second != value)
      problems.push_back("determinism: " + name + " = " + std::to_string(value) + " in " + label +
                         " but " +
                         (expected == reference_.end() ? std::string("absent")
                                                       : std::to_string(expected->second)) +
                         " in " + reference_label_);
  }
}

std::vector<double> gaps_ms(Clock::time_point start, const std::vector<Clock::time_point>& points) {
  std::vector<double> gaps;
  Clock::time_point previous = start;
  for (const Clock::time_point point : points) {
    gaps.push_back(
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(point - previous).count()) /
        1e6);
    previous = point;
  }
  return gaps;
}

void report_end_to_end(Outcome& outcome) {
  for (const char* name : {"throughput", "throughput_1w", "cpu_ms_per_item", "setup_s"})
    outcome.values[name] = median(outcome.samples[name]);
  outcome.values["peak_rss_mb"] = peak_rss_mib();
}

std::int64_t process_cpu_ns() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) throw std::runtime_error("getrusage failed");
  const auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1'000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) throw std::runtime_error("getrusage failed");
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ------------------------------------------------------------ statistics --

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double percentile(std::vector<double> values, double fraction) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(fraction * static_cast<double>(values.size()))));
  return values[std::min(rank, values.size()) - 1];
}

double relative_iqr(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  std::vector<double> data = values;
  std::sort(data.begin(), data.end());
  const auto n = static_cast<long>(data.size());
  const long m = n + 1;
  double quartile[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, n - 1);
    const long delta = i * m - j * 4;
    quartile[i - 1] = (data[j - 1] * static_cast<double>(4 - delta) +
                       data[j] * static_cast<double>(delta)) / 4.0;
  }
  const double mid = median(values);
  return mid == 0.0 ? 0.0 : (quartile[2] - quartile[0]) / mid;
}

// --------------------------------------------------------- timed program --

aurv::program::Program timed_program(aurv::program::Program inner, PullStats& stats) {
  while (true) {
    const Clock::time_point start = Clock::now();
    const bool more = inner.next();
    stats.ns += static_cast<std::uint64_t>(elapsed_ns(start));
    if (!more) co_return;
    ++stats.pulls;
    const aurv::program::Instruction& instruction = inner.value();
    co_yield instruction;
  }
}

// ------------------------------------------------------------ Chrome trace --

void write_chrome_trace(const std::string& path, const std::string& process_name,
                        const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) throw std::runtime_error("cannot write trace file " + path);
  std::fprintf(file,
               "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"%s\"}}",
               process_name.c_str());
  for (const Span& span : spans) {
    std::fprintf(file,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f",
                 span.name, span.category, span.lane, static_cast<double>(span.start_ns) / 1e3,
                 static_cast<double>(span.duration_ns) / 1e3);
    if (span.item >= 0 || span.pulls > 0) {
      std::fprintf(file, ",\"args\":{\"item\":%lld", static_cast<long long>(span.item));
      if (span.pulls > 0)
        std::fprintf(file, ",\"pulls\":%llu,\"pull_us\":%.3f",
                     static_cast<unsigned long long>(span.pulls),
                     static_cast<double>(span.pull_ns) / 1e3);
      std::fputc('}', file);
    }
    std::fputc('}', file);
  }
  std::fputs("\n]}\n", file);
  const bool write_failed = std::ferror(file) != 0;
  if (std::fclose(file) != 0 || write_failed)
    throw std::runtime_error("cannot finish trace file " + path);
}

}  // namespace perfbench
