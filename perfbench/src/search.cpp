// search_gather: exp::run_search over the gather-tuple family at 4 shards
// and at 1 shard (timed), plus search::run_bnb at 4 shards with a
// decorating Objective and a decorating algorithm resolver (traced).
#include <algorithm>
#include <atomic>
#include <mutex>

#include "exp/scenario.hpp"
#include "exp/search_driver.hpp"
#include "perfbench.hpp"
#include "search/bnb.hpp"
#include "search/objective.hpp"
#include "support/jsonl.hpp"

namespace perfbench {

namespace {

using aurv::exp::SearchSpec;
using aurv::support::Json;

const std::vector<std::string> kFilterCounters = {"filter.fast_hits", "filter.limb2_hits",
                                                  "filter.exact_escapes"};

double ns_to_ms(double ns) { return ns / 1e6; }

Counts stats_counts(const aurv::search::BnbStats& stats) {
  return {{"search.evaluated", stats.evaluated}, {"search.pruned", stats.pruned},
          {"search.branched", stats.branched},   {"search.leaves", stats.leaves},
          {"search.waves", stats.waves},         {"search.max_frontier", stats.max_frontier},
          {"search.improvements", stats.improvements}};
}


/// One untraced exp::run_search invocation.
struct SearchRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::string certificate;
  aurv::search::BnbStats stats;
  Counts counts;
  std::vector<double> wave_ms;  ///< gaps between the per-wave progress callbacks
};

SearchRun run_untraced(const SearchSpec& spec, std::size_t shards) {
  aurv::exp::SearchOptions options;
  options.max_shards = shards;
  std::vector<Clock::time_point> waves;
  options.progress = [&waves](std::uint64_t, std::uint64_t) { waves.push_back(Clock::now()); };
  const Counts before = read_counters();
  const std::int64_t cpu_before = process_cpu_ns();
  const Clock::time_point start = Clock::now();
  const aurv::exp::SearchRunResult result = aurv::exp::run_search(spec, options);
  SearchRun run;
  run.wall_s = static_cast<double>(elapsed_ns(start)) / 1e9;
  run.cpu_s = static_cast<double>(process_cpu_ns() - cpu_before) / 1e9;
  run.counts = counter_delta(before, read_counters(), kFilterCounters);
  run.stats = result.bnb.stats;
  for (const auto& [name, value] : stats_counts(run.stats)) run.counts[name] = value;
  run.certificate = result.certificate(spec).dump();
  run.wave_ms = gaps_ms(start, waves);
  return run;
}

// ------------------------------------------------------------ traced run --

/// Spans recorded from the worker threads of the traced search. Each
/// thread gets a token on first use; tokens become Chrome-trace lanes
/// after the run.
class SpanLog {
 public:
  struct Record {
    bool evaluate = false;  ///< evaluate span, else bound span
    std::uint32_t token = 0;
    std::int64_t start_ns = 0;
    std::int64_t duration_ns = 0;
    std::uint64_t pulls = 0;
    std::uint64_t pull_ns = 0;
  };

  /// Construct on the thread that calls run_bnb: its spans (the root
  /// bound, and every span when the search runs on one shard) belong to
  /// the serialized side.
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch), caller_(token()) {}

  void add(Record record, Clock::time_point start) {
    record.token = token();
    record.start_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_).count();
    const std::scoped_lock lock(mutex_);
    records_.push_back(record);
  }
  [[nodiscard]] std::vector<Record> take() {
    const std::scoped_lock lock(mutex_);
    return std::move(records_);
  }
  [[nodiscard]] std::uint32_t caller() const { return caller_; }

 private:
  static std::uint32_t token() {
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t mine = next.fetch_add(1);
    return mine;
  }

  Clock::time_point epoch_;
  std::uint32_t caller_;
  std::mutex mutex_;
  std::vector<Record> records_;  // guarded by mutex_
};

/// Instruction pulls of the programs this thread is running.
thread_local PullStats tl_pulls;

/// Times evaluate() and bound() of the wrapped objective; everything else
/// forwards unchanged, so the search and its certificate are the same.
class TracedObjective final : public aurv::search::Objective {
 public:
  TracedObjective(std::unique_ptr<aurv::search::Objective> inner, SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] Json descriptor() const override { return inner_->descriptor(); }

  [[nodiscard]] aurv::search::Evaluation evaluate(
      const std::vector<aurv::numeric::Rational>& point) const override {
    const PullStats before = tl_pulls;
    const Clock::time_point start = Clock::now();
    aurv::search::Evaluation evaluation = inner_->evaluate(point);
    SpanLog::Record record;
    record.evaluate = true;
    record.duration_ns = elapsed_ns(start);
    record.pulls = tl_pulls.pulls - before.pulls;
    record.pull_ns = tl_pulls.ns - before.ns;
    log_.add(record, start);
    return evaluation;
  }

  [[nodiscard]] double bound(const aurv::search::ParamBox& box) const override {
    const Clock::time_point start = Clock::now();
    const double value = inner_->bound(box);
    SpanLog::Record record;
    record.duration_ns = elapsed_ns(start);
    log_.add(record, start);
    return value;
  }

 private:
  std::unique_ptr<aurv::search::Objective> inner_;
  SpanLog& log_;
};

struct TracedSearch {
  double wall_s = 0.0;
  std::string certificate;
  Counts counts;
  std::vector<SpanLog::Record> records;
  std::vector<std::int64_t> wave_end_ns;  ///< since the epoch
  std::int64_t start_ns = 0;
  std::uint32_t caller = 0;  ///< token of the thread that ran run_bnb
};

TracedSearch run_traced(const SearchSpec& spec, std::size_t shards, Clock::time_point epoch) {
  const aurv::search::AlgorithmResolverFn resolver = aurv::exp::search_algorithm_resolver(spec);
  const aurv::search::AlgorithmResolverFn timed_resolver =
      [resolver](const aurv::agents::Instance& instance) -> aurv::sim::AlgorithmFactory {
    return [factory = resolver(instance)] { return timed_program(factory(), tl_pulls); };
  };
  SpanLog log(epoch);
  const TracedObjective objective(
      aurv::search::make_objective(spec.objective, spec.space, timed_resolver, spec.engine), log);

  aurv::search::BnbOptions options;
  options.max_shards = shards;
  options.fingerprint = aurv::support::fingerprint_hex(spec.fingerprint());
  options.dim_names = spec.space.dim_names;
  std::vector<Clock::time_point> waves;
  options.progress = [&waves](std::uint64_t, std::uint64_t) { waves.push_back(Clock::now()); };

  const Counts before = read_counters();
  const Clock::time_point start = Clock::now();
  aurv::exp::SearchRunResult result;
  result.bnb = aurv::search::run_bnb(spec.root_box(), objective, spec.limits, options);
  TracedSearch traced;
  traced.wall_s = static_cast<double>(elapsed_ns(start)) / 1e9;
  traced.counts = counter_delta(before, read_counters(), kFilterCounters);
  for (const auto& [name, value] : stats_counts(result.bnb.stats)) traced.counts[name] = value;
  traced.certificate = result.certificate(spec).dump();
  traced.records = log.take();
  traced.caller = log.caller();
  const auto since_epoch = [epoch](Clock::time_point at) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(at - epoch).count();
  };
  traced.start_ns = since_epoch(start);
  for (const Clock::time_point wave : waves) traced.wave_end_ns.push_back(since_epoch(wave));
  return traced;
}

/// Derived numbers of one traced search.
struct TracedNumbers {
  std::vector<double> evaluate_us;
  std::vector<double> bound_us;
  double evaluate_total_ns = 0.0;
  double bound_total_ns = 0.0;
  double pull_total_ns = 0.0;
  std::uint64_t pulls = 0;
  double barrier_wait_ns = 0.0;
  std::vector<Span> spans;  ///< for the Chrome trace
};

/// Maps worker threads to lanes and measures each wave's barrier wait: the
/// time every worker thread sat idle between its last span of the wave and
/// the wave's last span. run_sharded starts fresh threads for every wave,
/// so a thread's spans all fall in one wave, and the k-th worker thread
/// seen in a wave takes lane k. The calling thread's spans go to lane 0.
TracedNumbers analyse(const TracedSearch& traced, std::size_t trace_waves) {
  TracedNumbers numbers;
  std::vector<SpanLog::Record> records = traced.records;
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.start_ns < b.start_ns; });
  const auto wave_of = [&](std::int64_t end_ns) {
    return static_cast<std::size_t>(
        std::lower_bound(traced.wave_end_ns.begin(), traced.wave_end_ns.end(), end_ns) -
        traced.wave_end_ns.begin());
  };

  std::map<std::uint32_t, std::uint32_t> lane_of_token;
  std::map<std::size_t, std::uint32_t> threads_in_wave;
  // (wave, token) -> last span end; wave -> last span end
  std::map<std::pair<std::size_t, std::uint32_t>, std::int64_t> token_last_end;
  std::map<std::size_t, std::int64_t> wave_last_end;
  for (const SpanLog::Record& record : records) {
    const std::int64_t end = record.start_ns + record.duration_ns;
    if (record.evaluate) {
      numbers.evaluate_us.push_back(static_cast<double>(record.duration_ns) / 1e3);
      numbers.evaluate_total_ns += static_cast<double>(record.duration_ns);
      numbers.pull_total_ns += static_cast<double>(record.pull_ns);
      numbers.pulls += record.pulls;
    } else {
      numbers.bound_us.push_back(static_cast<double>(record.duration_ns) / 1e3);
      numbers.bound_total_ns += static_cast<double>(record.duration_ns);
    }
    const std::size_t wave = wave_of(end);
    std::uint32_t lane = 0;
    if (record.token != traced.caller) {
      std::int64_t& last = token_last_end[{wave, record.token}];
      last = std::max(last, end);
      std::int64_t& wave_end = wave_last_end[wave];
      wave_end = std::max(wave_end, end);
      auto found = lane_of_token.find(record.token);
      if (found == lane_of_token.end())
        found = lane_of_token.emplace(record.token, ++threads_in_wave[wave]).first;
      lane = found->second;
    }
    if (wave < trace_waves) {
      Span span;
      span.name = record.evaluate ? "evaluate" : "bound";
      span.category = "search";
      span.start_ns = record.start_ns;
      span.duration_ns = record.duration_ns;
      span.lane = lane;
      span.pulls = record.pulls;
      span.pull_ns = record.pull_ns;
      numbers.spans.push_back(span);
    }
  }
  for (const auto& [key, last] : token_last_end)
    numbers.barrier_wait_ns += static_cast<double>(wave_last_end[key.first] - last);

  std::int64_t previous = traced.start_ns;
  for (std::size_t wave = 0; wave < std::min(trace_waves, traced.wave_end_ns.size()); ++wave) {
    Span span;
    span.name = "wave";
    span.category = "search";
    span.start_ns = previous;
    span.duration_ns = traced.wave_end_ns[wave] - previous;
    span.item = static_cast<std::int64_t>(wave + 1);
    numbers.spans.push_back(span);
    previous = traced.wave_end_ns[wave];
  }
  return numbers;
}

}  // namespace

Outcome run_search_gather(const Args& args) {
  const std::string text = search_gather_spec(args.seed, args.small);
  Outcome outcome;
  const auto load = [](const std::string& json_text) {
    return SearchSpec::from_json(Json::parse(json_text));
  };
  const SearchSpec spec = load(text);
  const int setup_loads = setup_batch(text, load);
  const std::uint64_t budget = spec.limits.max_boxes;
  const std::size_t workers = parallel_workers();

  CountGuard guard;
  std::string reference_certificate;
  std::vector<double> scaling, utilization, wave_ms;
  double last_repeat_s = 0.0;
  const auto run_pair = [&](int repeat) {
    sample_setup(outcome.samples["setup_s"], text, setup_loads, setup_budget_s(last_repeat_s),
                 load);
    SearchRun parallel = run_untraced(spec, workers);
    SearchRun serial = [&] {
      const PinnedToCpu pin(static_cast<std::size_t>(repeat));
      return run_untraced(spec, 1);
    }();
    const std::string label = "repeat " + std::to_string(repeat);
    guard.check(label + " at " + std::to_string(workers) + " shards", parallel.counts,
                outcome.problems);
    guard.check(label + " at 1 shard", serial.counts, outcome.problems);
    outcome.attempted += 2 * budget;
    if (parallel.certificate != serial.certificate || parallel.stats.evaluated != budget ||
        serial.stats.evaluated != budget) {
      outcome.failed += 2 * budget;
      outcome.problems.push_back(label + ": certificates differ between " +
                                 std::to_string(workers) +
                                 " shards and 1 shard, or the budget was not spent");
    }
    const double boxes = static_cast<double>(parallel.stats.evaluated);
    outcome.samples["throughput"].push_back(boxes / parallel.wall_s);
    outcome.samples["throughput_1w"].push_back(static_cast<double>(serial.stats.evaluated) /
                                               serial.wall_s);
    outcome.samples["cpu_ms_per_item"].push_back(parallel.cpu_s * 1e3 / boxes);
    scaling.push_back(serial.wall_s / parallel.wall_s);
    utilization.push_back(parallel.cpu_s / (parallel.wall_s * static_cast<double>(workers)));
    wave_ms.insert(wave_ms.end(), parallel.wave_ms.begin(), parallel.wave_ms.end());
    last_repeat_s = parallel.wall_s + serial.wall_s;
    if (repeat == 0) reference_certificate = std::move(parallel.certificate);
    return parallel.wall_s;
  };

  if (!args.trace) {
    const int repeats = repeat_for(args.seconds, 3, run_pair);
    report_end_to_end(outcome);
    outcome.details.set("repeats", Json(repeats));
    outcome.details.set("boxes_per_run", Json(budget));
    return outcome;
  }

  const Clock::time_point epoch = Clock::now();
  std::vector<double> overhead, evaluate_p50, evaluate_p99, bound_p50, lane_utilization,
      barrier_ms, program_busy_ms, program_ns_per_instruction, program_share, gather_self_ms;
  std::vector<Span> first_spans;
  CountGuard traced_guard;  // counts only the traced search has
  const auto traced_pass = [&](int repeat) {
    const double parallel_wall_s = run_pair(repeat);
    const TracedSearch traced = run_traced(spec, workers, epoch);
    TracedNumbers numbers = analyse(traced, repeat == 0 ? 100 : 0);
    const std::string label = "traced pass " + std::to_string(repeat);
    guard.check(label, traced.counts, outcome.problems);
    traced_guard.check(label, {{"program.instructions", numbers.pulls}}, outcome.problems);
    outcome.attempted += budget;
    if (traced.certificate != reference_certificate) {
      outcome.failed += budget;
      outcome.problems.push_back(label + ": certificate differs from the untraced run's");
    }
    overhead.push_back(traced.wall_s / parallel_wall_s);
    evaluate_p50.push_back(percentile(numbers.evaluate_us, 0.50));
    evaluate_p99.push_back(percentile(numbers.evaluate_us, 0.99));
    bound_p50.push_back(percentile(numbers.bound_us, 0.50));
    lane_utilization.push_back((numbers.evaluate_total_ns + numbers.bound_total_ns) /
                               (traced.wall_s * 1e9 * static_cast<double>(workers)));
    barrier_ms.push_back(ns_to_ms(numbers.barrier_wait_ns));
    program_busy_ms.push_back(ns_to_ms(numbers.pull_total_ns));
    program_ns_per_instruction.push_back(
        numbers.pull_total_ns / static_cast<double>(std::max<std::uint64_t>(1, numbers.pulls)));
    program_share.push_back(numbers.pull_total_ns / numbers.evaluate_total_ns);
    gather_self_ms.push_back(ns_to_ms(numbers.evaluate_total_ns - numbers.pull_total_ns));
    if (repeat == 0) first_spans = std::move(numbers.spans);
  };
  const int passes = repeat_for(args.seconds, 1, traced_pass);

  const Counts& counts = guard.reference();
  const auto count = [&](const char* name) {
    const auto found = counts.find(name);
    return found == counts.end() ? 0.0 : static_cast<double>(found->second);
  };
  const double evaluated = count("search.evaluated");
  const double pruned = count("search.pruned");
  const double fast = count("filter.fast_hits");
  const double limb2 = count("filter.limb2_hits");
  const double exact = count("filter.exact_escapes");
  std::map<std::string, double>& v = outcome.values;
  for (const char* name :
       {"agents.calls", "agents.busy_ms", "agents.ns_per_call_p50", "agents.ns_per_call_p99",
        "sim.runs", "sim.events", "sim.self_ms", "sim.ns_per_event", "sim.events_per_run_p50",
        "sim.events_per_run_p99", "sim.run_ms_p50", "sim.run_ms_p99", "geom.solves",
        "geom.replay_ns_per_solve", "numeric.escapes_per_event", "aggregate.add_ns_per_run",
        "jsonl.records", "jsonl.bytes", "jsonl.write_ns_per_record"})
    v[name] = 0.0;
  v["program.instructions"] =
      static_cast<double>(traced_guard.reference().at("program.instructions"));
  v["program.busy_ms"] = median(program_busy_ms);
  v["program.ns_per_instruction"] = median(program_ns_per_instruction);
  v["program.share"] = median(program_share);
  v["gather.evals"] = evaluated;
  v["gather.self_ms"] = median(gather_self_ms);
  v["numeric.fast_hits"] = fast;
  v["numeric.limb2_hits"] = limb2;
  v["numeric.exact_escapes"] = exact;
  v["numeric.exact_share"] = fast + limb2 + exact > 0 ? exact / (fast + limb2 + exact) : 0.0;
  v["runner.shards"] = evaluated;  // one box = one run_sharded shard
  v["runner.utilization"] = median(utilization);
  v["runner.flush_gap_ms_p50"] = percentile(wave_ms, 0.50);
  v["runner.flush_gap_ms_p99"] = percentile(wave_ms, 0.99);
  v["runner.scaling"] = median(scaling);
  v["search.evaluated"] = evaluated;
  v["search.pruned"] = pruned;
  v["search.prune_rate"] = evaluated + pruned > 0 ? pruned / (evaluated + pruned) : 0.0;
  v["search.waves"] = count("search.waves");
  v["search.frontier_high_water"] = count("search.max_frontier");
  v["search.evaluate_us_p50"] = median(evaluate_p50);
  v["search.evaluate_us_p99"] = median(evaluate_p99);
  v["search.bound_us_p50"] = median(bound_p50);
  v["search.wave_ms_p50"] = percentile(wave_ms, 0.50);
  v["search.wave_ms_p99"] = percentile(wave_ms, 0.99);
  v["search.lane_utilization"] = median(lane_utilization);
  v["search.barrier_wait_ms"] = median(barrier_ms);
  v["trace.overhead"] = median(overhead);
  outcome.samples["trace.overhead"] = overhead;
  outcome.samples["runner.scaling"] = scaling;
  outcome.samples["search.barrier_wait_ms"] = barrier_ms;
  outcome.samples["search.lane_utilization"] = lane_utilization;

  const std::string trace_path =
      args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) + ".trace.json";
  write_chrome_trace(trace_path, "perfbench search_gather (traced, first 100 waves)", first_spans);
  outcome.details.set("passes", Json(passes));
  outcome.details.set("boxes_per_run", Json(budget));
  outcome.details.set("trace_file", Json(trace_path));
  Json exact_counts = Json::object();
  for (const auto& [name, value] : counts) exact_counts.set(name, Json(value));
  outcome.details.set("counts", std::move(exact_counts));
  return outcome;
}

}  // namespace perfbench
