// census_light and census_deep: exp::run_campaign at 4 workers and at 1
// worker on the same spec (timed), plus a benchmark-owned serial loop over
// the same jobs with spans around each public call (traced).
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "core/feasibility.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "geom/closest_approach.hpp"
#include "perfbench.hpp"
#include "sim/engine.hpp"
#include "support/jsonl.hpp"

namespace perfbench {

namespace {

using aurv::exp::CampaignAggregate;
using aurv::exp::ScenarioSpec;
using aurv::support::Json;

const std::vector<std::string> kEngineCounters = {
    "engine.runs",   "engine.events",     "engine.instructions", "engine.window_solves",
    "filter.fast_hits", "filter.limb2_hits", "filter.exact_escapes"};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

double ns_to_ms(double ns) { return ns / 1e6; }

/// One untraced exp::run_campaign invocation.
struct CampaignRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::string summary;
  CampaignAggregate aggregate;
  Counts counts;  ///< exact counts, including jsonl.bytes and runner.shards
  std::string jsonl;
  std::vector<double> flush_gaps_ms;  ///< between in-order progress callbacks
};

CampaignRun run_untraced(const ScenarioSpec& spec, std::size_t threads,
                         const std::string& jsonl_path) {
  aurv::exp::CampaignOptions options;
  options.threads = threads;
  options.jsonl_path = jsonl_path;
  std::vector<Clock::time_point> flushes;
  options.progress = [&flushes](std::uint64_t, std::uint64_t) { flushes.push_back(Clock::now()); };

  const Counts before = read_counters();
  const std::int64_t cpu_before = process_cpu_ns();
  const Clock::time_point start = Clock::now();
  const aurv::exp::CampaignResult result = aurv::exp::run_campaign(spec, options);
  CampaignRun run;
  run.wall_s = static_cast<double>(elapsed_ns(start)) / 1e9;
  run.cpu_s = static_cast<double>(process_cpu_ns() - cpu_before) / 1e9;
  std::vector<std::string> names = kEngineCounters;
  names.push_back("runner.shards");
  run.counts = counter_delta(before, read_counters(), names);
  run.aggregate = result.aggregate;
  run.summary = result.summary(spec).dump();
  if (!jsonl_path.empty()) run.jsonl = read_file(jsonl_path);
  run.counts["jsonl.bytes"] = run.jsonl.size();
  run.flush_gaps_ms = gaps_ms(start, flushes);
  return run;
}

/// Items of one run that fail the output checks: runs that did not meet
/// (every instance is feasible and outside S1/S2), runs missing from the
/// aggregate, and grid instances that are not type 4.
std::uint64_t failed_items(const CampaignAggregate& aggregate, std::uint64_t jobs,
                           std::uint64_t misclassified) {
  const std::uint64_t missing = jobs > aggregate.runs ? jobs - aggregate.runs : 0;
  const std::uint64_t not_met = aggregate.runs - aggregate.met;
  return std::min(jobs, missing + not_met + misclassified);
}

/// The runner's per-run JSONL line (exp/runner.cpp), rebuilt from public
/// types so the traced loop can time the write; the bytes are compared
/// against the runner's file.
std::string jsonl_record(std::uint64_t job, const aurv::sim::SimResult& result) {
  Json record = Json::object();
  record.set("job", Json(job));
  record.set("met", Json(result.met));
  record.set("reason", Json(aurv::sim::to_string(result.reason)));
  if (result.met) record.set("meet_time", Json(result.meet_time));
  record.set("events", Json(result.events));
  record.set("min_distance", Json(result.min_distance_seen));
  return record.dump() + "\n";
}

/// One pass of the traced serial loop.
struct TracedPass {
  double wall_s = 0.0;
  CampaignAggregate aggregate;
  Counts counts;
  std::string jsonl;
  std::vector<Span> spans;
  std::vector<double> instance_ns;
  std::vector<double> engine_ms;
  std::vector<double> events;
  double instance_total_ns = 0.0;
  double resolve_total_ns = 0.0;
  double engine_total_ns = 0.0;
  double pull_total_ns = 0.0;
  std::uint64_t pulls = 0;
  double aggregate_total_ns = 0.0;
  double jsonl_total_ns = 0.0;
};

TracedPass run_traced(const ScenarioSpec& spec, const std::string& jsonl_path,
                      Clock::time_point epoch) {
  const aurv::exp::AlgorithmResolver resolver = aurv::exp::resolve_algorithm(spec.algorithm);
  const std::uint64_t jobs = spec.total_jobs();
  TracedPass pass;
  pass.spans.reserve(jobs * 5);
  pass.instance_ns.reserve(jobs);
  pass.engine_ms.reserve(jobs);
  pass.events.reserve(jobs);

  const auto since_epoch = [epoch](Clock::time_point at) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(at - epoch).count();
  };
  const auto close = [&](const char* name, const char* category, Clock::time_point start,
                         std::uint64_t job) -> double {
    const Clock::time_point end = Clock::now();
    Span span;
    span.name = name;
    span.category = category;
    span.start_ns = since_epoch(start);
    span.duration_ns = since_epoch(end) - span.start_ns;
    span.lane = 1;
    span.item = static_cast<std::int64_t>(job);
    pass.spans.push_back(span);
    return static_cast<double>(span.duration_ns);
  };

  const Counts before = read_counters();
  const Clock::time_point loop_start = Clock::now();
  {
    aurv::support::JsonlSink sink(jsonl_path);
    const std::uint64_t shard_size = aurv::exp::CampaignOptions{}.shard_size;
    CampaignAggregate shard_aggregate;
    for (std::uint64_t job = 0; job < jobs; ++job) {
      Clock::time_point start = Clock::now();
      const aurv::agents::Instance instance = aurv::exp::campaign_instance(spec, job);
      const double instance_ns = close("campaign_instance", "agents", start, job);
      pass.instance_ns.push_back(instance_ns);
      pass.instance_total_ns += instance_ns;

      start = Clock::now();
      PullStats pulls;
      const aurv::sim::AlgorithmFactory factory = resolver(instance);
      aurv::program::Program for_a = timed_program(factory(), pulls);
      aurv::program::Program for_b = timed_program(factory(), pulls);
      pass.resolve_total_ns += close("resolve_algorithm", "program", start, job);

      start = Clock::now();
      const aurv::sim::SimResult result =
          aurv::sim::Engine(instance, spec.engine).run(std::move(for_a), std::move(for_b));
      const double engine_ns = close("engine_run", "sim", start, job);
      pass.spans.back().pulls = pulls.pulls;
      pass.spans.back().pull_ns = pulls.ns;
      pass.engine_total_ns += engine_ns;
      pass.engine_ms.push_back(ns_to_ms(engine_ns));
      pass.pull_total_ns += static_cast<double>(pulls.ns);
      pass.pulls += pulls.pulls;
      pass.events.push_back(static_cast<double>(result.events));

      start = Clock::now();
      shard_aggregate.add(result);
      pass.aggregate_total_ns += close("aggregate_add", "aggregate", start, job);
      // The runner folds per-shard aggregates in shard order; doing the
      // same keeps the floating-point sums, and so the aggregate, equal.
      if ((job + 1) % shard_size == 0 || job + 1 == jobs) {
        pass.aggregate.merge(shard_aggregate);
        shard_aggregate = CampaignAggregate{};
      }

      if (!jsonl_path.empty()) {
        start = Clock::now();
        sink.append(jsonl_record(job, result));
        pass.jsonl_total_ns += close("jsonl_write", "jsonl", start, job);
      }
    }
    sink.flush();
  }
  pass.wall_s = static_cast<double>(elapsed_ns(loop_start)) / 1e9;
  pass.counts = counter_delta(before, read_counters(), kEngineCounters);
  if (!jsonl_path.empty()) pass.jsonl = read_file(jsonl_path);
  pass.counts["jsonl.bytes"] = pass.jsonl.size();
  return pass;
}

/// Replayed geometry cost: the windows of the first `sample_jobs` runs are
/// rebuilt from the engine's public sim::Trace (positions at every event
/// boundary) and pushed through geom::closest_approach + first_contact,
/// the two predicates the engine evaluates per window. Returns ns per
/// window (median over passes).
double replay_geometry(const ScenarioSpec& spec, std::uint64_t sample_jobs) {
  struct Window {
    aurv::geom::Vec2 offset;
    aurv::geom::Vec2 relative_velocity;
    double duration;
    double radius;
  };
  const aurv::exp::AlgorithmResolver resolver = aurv::exp::resolve_algorithm(spec.algorithm);
  aurv::sim::EngineConfig config = spec.engine;
  config.trace_capacity = 1u << 20;
  std::vector<Window> windows;
  for (std::uint64_t job = 0; job < std::min(sample_jobs, spec.total_jobs()); ++job) {
    const aurv::agents::Instance instance = aurv::exp::campaign_instance(spec, job);
    const aurv::sim::SimResult result = aurv::sim::Engine(instance, config).run(resolver(instance));
    const std::vector<aurv::sim::TracePoint>& points = result.trace.points();
    for (std::size_t k = 1; k < points.size(); ++k) {
      const double duration = points[k].time - points[k - 1].time;
      if (!(duration > 0.0) || !std::isfinite(duration)) continue;
      const aurv::geom::Vec2 offset = points[k - 1].a - points[k - 1].b;
      const aurv::geom::Vec2 next = points[k].a - points[k].b;
      windows.push_back({offset, (1.0 / duration) * (next - offset), duration,
                         instance.r() + spec.engine.contact_slack});
    }
  }
  if (windows.empty()) return 0.0;
  std::vector<double> per_window_ns;
  double checksum = 0.0;
  const Clock::time_point start = Clock::now();
  while (per_window_ns.size() < 5 || elapsed_ns(start) < 50'000'000) {
    const Clock::time_point begin = Clock::now();
    for (const Window& window : windows) {
      checksum += aurv::geom::closest_approach(window.offset, window.relative_velocity,
                                               window.duration).min_distance;
      checksum += aurv::geom::first_contact(window.offset, window.relative_velocity,
                                            window.radius, window.duration).value_or(-1.0);
    }
    per_window_ns.push_back(static_cast<double>(elapsed_ns(begin)) /
                            static_cast<double>(windows.size()));
  }
  volatile double keep = checksum;  // the predicates' results stay live
  (void)keep;
  return median(per_window_ns);
}

}  // namespace

Outcome run_census(const Args& args) {
  const bool light = args.workload == "census_light";
  const std::string text =
      light ? census_light_spec(args.seed, args.small) : census_deep_spec(args.seed, args.small);
  Outcome outcome;

  const auto load = [](const std::string& json_text) {
    return ScenarioSpec::from_json(Json::parse(json_text));
  };
  const ScenarioSpec spec = load(text);
  const int setup_loads = setup_batch(text, load);
  const std::uint64_t jobs = spec.total_jobs();

  std::uint64_t misclassified = 0;
  for (const aurv::agents::Instance& instance : spec.grid)
    if (aurv::core::classify(instance).kind != aurv::core::InstanceKind::Type4) ++misclassified;
  if (misclassified > 0)
    outcome.problems.push_back(std::to_string(misclassified) + " grid instances are not type 4");

  const std::size_t workers = parallel_workers();
  const std::string work_dir = args.out_dir + "/work";
  std::filesystem::create_directories(work_dir);
  const auto jsonl_path = [&](const char* run) {
    return light ? work_dir + "/" + args.workload + "." + run + ".jsonl" : std::string();
  };
  const std::string jsonl_parallel = jsonl_path("parallel");
  const std::string jsonl_serial = jsonl_path("serial");
  const std::string jsonl_traced = jsonl_path("traced");

  CountGuard guard;
  CampaignRun reference;  // the first 4-worker run, for the traced comparison
  std::vector<double> scaling, utilization;
  std::vector<double> flush_gaps;
  std::uint64_t shards = 0;

  // One repeat = the 4-worker run and the 1-worker run of the same spec.
  double last_repeat_s = 0.0;
  const auto run_pair = [&](int repeat) {
    sample_setup(outcome.samples["setup_s"], text, setup_loads, setup_budget_s(last_repeat_s),
                 load);
    CampaignRun parallel = run_untraced(spec, workers, jsonl_parallel);
    CampaignRun serial = [&] {
      const PinnedToCpu pin(static_cast<std::size_t>(repeat));
      return run_untraced(spec, 1, jsonl_serial);
    }();
    const std::string label = "repeat " + std::to_string(repeat);
    guard.check(label + " at " + std::to_string(workers) + " workers", parallel.counts,
                outcome.problems);
    guard.check(label + " at 1 worker", serial.counts, outcome.problems);
    outcome.attempted += 2 * jobs;
    if (parallel.summary != serial.summary || parallel.jsonl != serial.jsonl) {
      outcome.failed += 2 * jobs;
      outcome.problems.push_back(label + ": summary or JSONL differs between " +
                                 std::to_string(workers) + " workers and 1 worker");
    } else {
      const std::uint64_t bad = failed_items(parallel.aggregate, jobs, misclassified);
      outcome.failed += 2 * bad;
      if (bad > 0)
        outcome.problems.push_back(label + ": " + std::to_string(bad) + " runs did not meet");
    }
    outcome.samples["throughput"].push_back(static_cast<double>(jobs) / parallel.wall_s);
    outcome.samples["throughput_1w"].push_back(static_cast<double>(jobs) / serial.wall_s);
    outcome.samples["cpu_ms_per_item"].push_back(parallel.cpu_s * 1e3 /
                                                 static_cast<double>(jobs));
    scaling.push_back(serial.wall_s / parallel.wall_s);
    utilization.push_back(parallel.cpu_s / (parallel.wall_s * static_cast<double>(workers)));
    flush_gaps.insert(flush_gaps.end(), parallel.flush_gaps_ms.begin(),
                      parallel.flush_gaps_ms.end());
    shards = parallel.counts["runner.shards"];
    last_repeat_s = parallel.wall_s + serial.wall_s;
    if (repeat == 0) reference = std::move(parallel);
  };

  if (!args.trace) {
    const int repeats = repeat_for(args.seconds, 3, run_pair);
    report_end_to_end(outcome);
    outcome.details.set("repeats", Json(repeats));
    outcome.details.set("jobs_per_run", Json(jobs));
    return outcome;
  }

  // Traced invocation: each pass runs the untraced pair (runner numbers,
  // determinism, the aggregate to compare against) and then the traced
  // serial loop over the same jobs.
  const Clock::time_point epoch = Clock::now();
  std::vector<Span> first_spans;
  std::vector<double> overhead, agents_busy_ms, agents_p50, agents_p99, program_busy_ms,
      program_ns_per_instruction, program_share, sim_self_ms, sim_ns_per_event, run_ms_p50,
      run_ms_p99, aggregate_ns, jsonl_ns;
  std::vector<double> events_sample;
  CountGuard traced_guard;  // counts only the traced loop has
  const auto traced_pass = [&](int repeat) {
    run_pair(repeat);
    TracedPass pass = run_traced(spec, jsonl_traced, epoch);
    const std::string label = "traced pass " + std::to_string(repeat);
    guard.check(label, pass.counts, outcome.problems);
    traced_guard.check(label, {{"program.instructions", pass.pulls}}, outcome.problems);
    outcome.attempted += jobs;
    if (!(pass.aggregate == reference.aggregate) || pass.jsonl != reference.jsonl) {
      outcome.failed += jobs;
      outcome.problems.push_back(label + ": aggregate or JSONL differs from the runner's");
    } else {
      outcome.failed += failed_items(pass.aggregate, jobs, misclassified);
    }
    overhead.push_back(pass.wall_s * outcome.samples["throughput_1w"].back() /
                       static_cast<double>(jobs));
    agents_busy_ms.push_back(ns_to_ms(pass.instance_total_ns));
    agents_p50.push_back(percentile(pass.instance_ns, 0.50));
    agents_p99.push_back(percentile(pass.instance_ns, 0.99));
    const double program_ns = pass.resolve_total_ns + pass.pull_total_ns;
    program_busy_ms.push_back(ns_to_ms(program_ns));
    program_ns_per_instruction.push_back(
        program_ns / static_cast<double>(std::max<std::uint64_t>(1, pass.pulls)));
    program_share.push_back(pass.pull_total_ns / pass.engine_total_ns);
    const double self_ns = pass.engine_total_ns - pass.pull_total_ns;
    sim_self_ms.push_back(ns_to_ms(self_ns));
    sim_ns_per_event.push_back(
        self_ns / static_cast<double>(std::max<std::uint64_t>(1, pass.counts["engine.events"])));
    run_ms_p50.push_back(percentile(pass.engine_ms, 0.50));
    run_ms_p99.push_back(percentile(pass.engine_ms, 0.99));
    aggregate_ns.push_back(pass.aggregate_total_ns / static_cast<double>(jobs));
    jsonl_ns.push_back(light ? pass.jsonl_total_ns / static_cast<double>(jobs) : 0.0);
    if (repeat == 0) {
      events_sample = std::move(pass.events);
      first_spans = std::move(pass.spans);
    }
  };
  const int passes = repeat_for(args.seconds, 1, traced_pass);
  const double replay_ns = replay_geometry(spec, 64);

  const Counts& counts = guard.reference();
  const auto count = [&](const char* name) {
    const auto found = counts.find(name);
    return found == counts.end() ? 0.0 : static_cast<double>(found->second);
  };
  const double fast = count("filter.fast_hits");
  const double limb2 = count("filter.limb2_hits");
  const double exact = count("filter.exact_escapes");
  const double events = count("engine.events");
  std::map<std::string, double>& v = outcome.values;
  v["agents.calls"] = static_cast<double>(jobs);
  v["agents.busy_ms"] = median(agents_busy_ms);
  v["agents.ns_per_call_p50"] = median(agents_p50);
  v["agents.ns_per_call_p99"] = median(agents_p99);
  v["program.instructions"] =
      static_cast<double>(traced_guard.reference().at("program.instructions"));
  v["program.busy_ms"] = median(program_busy_ms);
  v["program.ns_per_instruction"] = median(program_ns_per_instruction);
  v["program.share"] = median(program_share);
  v["sim.runs"] = count("engine.runs");
  v["sim.events"] = events;
  v["sim.self_ms"] = median(sim_self_ms);
  v["sim.ns_per_event"] = median(sim_ns_per_event);
  v["sim.events_per_run_p50"] = percentile(events_sample, 0.50);
  v["sim.events_per_run_p99"] = percentile(events_sample, 0.99);
  v["sim.run_ms_p50"] = median(run_ms_p50);
  v["sim.run_ms_p99"] = median(run_ms_p99);
  v["gather.evals"] = 0.0;
  v["gather.self_ms"] = 0.0;
  v["geom.solves"] = count("engine.window_solves");
  v["geom.replay_ns_per_solve"] = replay_ns;
  v["numeric.fast_hits"] = fast;
  v["numeric.limb2_hits"] = limb2;
  v["numeric.exact_escapes"] = exact;
  v["numeric.exact_share"] = fast + limb2 + exact > 0 ? exact / (fast + limb2 + exact) : 0.0;
  v["numeric.escapes_per_event"] = events > 0 ? exact / events : 0.0;
  v["aggregate.add_ns_per_run"] = median(aggregate_ns);
  v["jsonl.records"] = light ? static_cast<double>(jobs) : 0.0;
  v["jsonl.bytes"] = count("jsonl.bytes");
  v["jsonl.write_ns_per_record"] = median(jsonl_ns);
  v["runner.shards"] = static_cast<double>(shards);
  v["runner.utilization"] = median(utilization);
  v["runner.flush_gap_ms_p50"] = percentile(flush_gaps, 0.50);
  v["runner.flush_gap_ms_p99"] = percentile(flush_gaps, 0.99);
  v["runner.scaling"] = median(scaling);
  for (const char* name :
       {"search.evaluated", "search.pruned", "search.prune_rate", "search.waves",
        "search.frontier_high_water", "search.evaluate_us_p50", "search.evaluate_us_p99",
        "search.bound_us_p50", "search.wave_ms_p50", "search.wave_ms_p99",
        "search.lane_utilization", "search.barrier_wait_ms"})
    v[name] = 0.0;
  v["trace.overhead"] = median(overhead);
  outcome.samples["trace.overhead"] = overhead;
  outcome.samples["runner.scaling"] = scaling;
  outcome.samples["program.busy_ms"] = program_busy_ms;
  outcome.samples["sim.self_ms"] = sim_self_ms;

  const std::string trace_path =
      args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) + ".trace.json";
  // The file keeps the first kTraceJobs jobs' spans; the metrics cover all.
  constexpr std::int64_t kTraceJobs = 5000;
  std::erase_if(first_spans, [](const Span& span) { return span.item >= kTraceJobs; });
  write_chrome_trace(trace_path,
                     "perfbench " + args.workload + " (traced serial loop, first 5000 jobs)",
                     first_spans);
  outcome.details.set("passes", Json(passes));
  outcome.details.set("jobs_per_run", Json(jobs));
  outcome.details.set("trace_file", Json(trace_path));
  Json engine_counts = Json::object();
  for (const auto& [name, value] : counts) engine_counts.set(name, Json(value));
  outcome.details.set("counts", std::move(engine_counts));
  return outcome;
}

}  // namespace perfbench
