// aurv_perfbench — one workload, one seed, one mode per invocation.
//
//   aurv_perfbench --workload census_light|census_deep|search_gather
//                  --seed N --seconds S --trace 0|1 --out-dir DIR
//                  [--scale full|small] [--commit SHA] [--source-digest HEX]
//
// --trace 0 times the workload and reports the end-to-end metrics;
// --trace 1 runs the traced pass and reports the per-layer metrics. The
// last stdout line is one JSON object {correct, attempted, failed,
// metrics}, metrics mapping each name to its value (perfbench/run.py
// picks the names BENCHMARK.json lists and attaches their units); the
// lines before it are a readable report. A result file with
// the machine block, every sample and the exact counts is written to
// DIR/results/. Exit status 0 when every check passed, 1 when a check or
// the determinism guard failed, 2 on a usage error.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "perfbench.hpp"
#include "support/parse.hpp"

namespace {

using aurv::support::Json;
using perfbench::Args;
using perfbench::Outcome;

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "aurv_perfbench: %s\nusage: aurv_perfbench --workload "
               "census_light|census_deep|search_gather --seed N --seconds S --trace 0|1 "
               "--out-dir DIR [--scale full|small] [--commit SHA] [--source-digest HEX]\n",
               problem.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    if (k + 1 >= argc) usage("missing value after " + flag);
    const std::string value = argv[++k];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = aurv::support::parse_uint(value, "--seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = aurv::support::parse_double(value, "--seconds");
      have_seconds = args.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--scale") {
      if (value != "full" && value != "small") usage("--scale takes full or small");
      args.small = value == "small";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload != "census_light" && args.workload != "census_deep" &&
      args.workload != "search_gather")
    usage("--workload must be census_light, census_deep or search_gather");
  if (!have_seed || !have_seconds || !have_trace || args.out_dir.empty())
    usage("--seed, a positive --seconds, --trace and --out-dir are required");
  return args;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

Json machine_block(const Args& args) {
  Json machine = Json::object();
  machine.set("nproc", Json(std::thread::hardware_concurrency()));
  machine.set("workers", Json(perfbench::parallel_workers()));
  machine.set("cpu", Json(cpu_model()));
  machine.set("compiler", Json(PERFBENCH_COMPILER));
  machine.set("flags", Json(PERFBENCH_CXX_FLAGS));
  machine.set("build_type", Json(PERFBENCH_BUILD_TYPE));
  machine.set("commit", Json(args.commit));
  machine.set("source_digest", Json(args.source_digest));
  return machine;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Outcome outcome;
  try {
    outcome = args.workload == "search_gather" ? perfbench::run_search_gather(args)
                                               : perfbench::run_census(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "aurv_perfbench: %s failed: %s\n", args.workload.c_str(), error.what());
    return 1;
  }
  if (!args.trace)
    outcome.values["failed_share"] =
        outcome.attempted == 0 ? 1.0
                               : static_cast<double>(outcome.failed) /
                                     static_cast<double>(outcome.attempted);

  Json metrics = Json::object();
  Json samples = Json::object();
  const Json machine = machine_block(args);
  std::printf("perfbench %s seed=%llu trace=%d\nmachine %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              machine.dump().c_str());
  for (const auto& [name, value] : outcome.values) {
    metrics.set(name, Json(value));
    const auto sample = outcome.samples.find(name);
    if (sample != outcome.samples.end()) {
      std::printf("  %-28s %14.6g  spread %.4f (IQR/median, n=%zu)\n", name.c_str(), value,
                  perfbench::relative_iqr(sample->second), sample->second.size());
      Json values = Json::array();
      for (const double sampled : sample->second) values.push_back(Json(sampled));
      samples.set(name, std::move(values));
    } else {
      std::printf("  %-28s %14.6g\n", name.c_str(), value);
    }
  }
  for (const std::string& problem : outcome.problems)
    std::printf("  FAILED CHECK: %s\n", problem.c_str());

  const bool correct = outcome.problems.empty() && outcome.failed == 0;
  Json result = Json::object();
  result.set("correct", Json(correct));
  result.set("attempted", Json(outcome.attempted));
  result.set("failed", Json(outcome.failed));
  result.set("metrics", metrics);

  Json record = Json::object();
  record.set("workload", Json(args.workload));
  record.set("seed", Json(args.seed));
  record.set("trace", Json(args.trace));
  record.set("seconds", Json(args.seconds));
  record.set("machine", machine);
  record.set("result", result);
  record.set("samples", std::move(samples));
  Json problems = Json::array();
  for (const std::string& problem : outcome.problems) problems.push_back(Json(problem));
  record.set("problems", std::move(problems));
  record.set("details", std::move(outcome.details));
  const std::string results_dir = args.out_dir + "/results";
  std::filesystem::create_directories(results_dir);
  record.save_file(results_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) +
                   "-trace" + (args.trace ? "1" : "0") + ".json");

  std::printf("%s\n", result.dump().c_str());
  return correct ? 0 : 1;
}
