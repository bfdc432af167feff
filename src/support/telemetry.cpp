#include "support/telemetry.hpp"

#include <chrono>
#include <string>

namespace aurv::support::telemetry {

namespace {

/// Decimal string of the lower bound of bit_width bucket `index`:
/// "0", "1", "2", "4", "8", ... (bucket 0 holds only the sample 0).
std::string bucket_lower_bound(int index) {
  if (index == 0) return "0";
  return std::to_string(std::uint64_t{1} << (index - 1));
}

}  // namespace

Registry& Registry::instance() {
  static Registry* the_registry = new Registry();  // never destroyed: references
                                                   // handed out must outlive exit paths
  return *the_registry;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[std::string(name)];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[std::string(name)];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Log2Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[std::string(name)];
  if (!slot) slot = std::make_unique<Log2Histogram>();
  return *slot;
}

Timer& Registry::timer(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto& slot = timers_[std::string(name)];
  if (!slot) slot = std::make_unique<Timer>();
  return *slot;
}

void Registry::merge(const ShardAccumulator& shard) {
  for (const auto& [name, delta] : shard.entries()) counter(name).add(delta);
  counter("telemetry.merges").add();
}

Registry::Snapshot Registry::read_snapshot() const {
  std::lock_guard lock(mutex_);
  Snapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.counters.emplace_back(name, c->value());
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.gauges.emplace_back(name, g->value());
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    Snapshot::HistogramValue value;
    value.count = h->count();
    value.sum = h->sum();
    for (int i = 0; i < 65; ++i) {
      const std::uint64_t n = h->bucket(i);
      if (n != 0) value.buckets.emplace_back(i, n);
    }
    out.histograms.emplace_back(name, std::move(value));
  }
  out.timers.reserve(timers_.size());
  for (const auto& [name, t] : timers_) {
    out.timers.emplace_back(name, Snapshot::TimerValue{t->total_ns(), t->count()});
  }
  return out;
}

Json Registry::snapshot() const {
  const Snapshot snap = read_snapshot();
  Json counters = Json::object();
  for (const auto& [name, value] : snap.counters) counters.set(name, Json(value));
  Json gauges = Json::object();
  for (const auto& [name, value] : snap.gauges) gauges.set(name, Json(value));
  Json histograms = Json::object();
  for (const auto& [name, value] : snap.histograms) {
    Json buckets = Json::object();
    for (const auto& [index, n] : value.buckets) buckets.set(bucket_lower_bound(index), Json(n));
    Json entry = Json::object();
    entry.set("count", Json(value.count));
    entry.set("sum", Json(value.sum));
    entry.set("buckets", std::move(buckets));
    histograms.set(name, std::move(entry));
  }
  Json timers = Json::object();
  for (const auto& [name, value] : snap.timers) {
    Json entry = Json::object();
    entry.set("ns", Json(value.total_ns));
    entry.set("count", Json(value.count));
    timers.set(name, std::move(entry));
  }
  Json out = Json::object();
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("histograms", std::move(histograms));
  out.set("timers", std::move(timers));
  return out;
}

std::map<std::string, std::uint64_t> Registry::counter_values() const {
  const Snapshot snap = read_snapshot();
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : snap.counters) out.emplace(name, value);
  return out;
}

void Registry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, c] : counters_) c->value_.store(0, std::memory_order_relaxed);
  for (auto& [name, g] : gauges_) g->value_.store(0, std::memory_order_relaxed);
  for (auto& [name, h] : histograms_) {
    for (auto& bucket : h->buckets_) bucket.store(0, std::memory_order_relaxed);
    h->count_.store(0, std::memory_order_relaxed);
    h->sum_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, t] : timers_) {
    t->total_ns_.store(0, std::memory_order_relaxed);
    t->count_.store(0, std::memory_order_relaxed);
  }
}

// ------------------------------------------------------------------------
// Activity stack
// ------------------------------------------------------------------------

ActivityStack& ActivityStack::instance() {
  static ActivityStack* the_stack = new ActivityStack();  // never destroyed, like the registry
  return *the_stack;
}

std::uint64_t ActivityStack::push(std::string name) {
  std::lock_guard lock(mutex_);
  const std::uint64_t token = next_token_++;
  stack_.emplace_back(token, std::move(name));
  return token;
}

void ActivityStack::pop(std::uint64_t token) {
  std::lock_guard lock(mutex_);
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    if (it->first == token) {
      stack_.erase(std::next(it).base());
      return;
    }
  }
}

std::string ActivityStack::current() const {
  std::lock_guard lock(mutex_);
  return stack_.empty() ? std::string() : stack_.back().second;
}

// ------------------------------------------------------------------------
// Heartbeat
// ------------------------------------------------------------------------

Heartbeat::Heartbeat(HeartbeatConfig config)
    : config_(std::move(config)), start_(std::chrono::steady_clock::now()), last_beat_(start_) {
  if (config_.out == nullptr) config_.out = stderr;
  last_counters_ = registry().counter_values();
  if (config_.interval_s > 0) {
    thread_ = std::thread([this] { run(); });
  }
}

Heartbeat::~Heartbeat() { stop(); }

void Heartbeat::stop() {
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Heartbeat::beat_now() {
  std::lock_guard lock(mutex_);
  emit();
}

void Heartbeat::run() {
  const auto interval =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(config_.interval_s));
  std::unique_lock lock(mutex_);
  auto next = start_ + interval;
  while (!stopping_) {
    if (cv_.wait_until(lock, next, [this] { return stopping_; })) break;
    emit();
    next += interval;
  }
}

void Heartbeat::emit() {
  // Called with mutex_ held. One read_snapshot() call feeds the counter
  // list, the rate computation AND the gauges — a single capture instead
  // of the counter-walk + full-snapshot pair this used to do.
  const auto now = std::chrono::steady_clock::now();
  const double elapsed_s = std::chrono::duration<double>(now - start_).count();
  const double since_last_s = std::chrono::duration<double>(now - last_beat_).count();
  const Registry::Snapshot snap = registry().read_snapshot();

  Json counters_json = Json::object();
  for (const auto& [name, value] : snap.counters) counters_json.set(name, Json(value));

  Json rates = Json::object();
  if (since_last_s > 0) {
    for (const auto& [name, value] : snap.counters) {
      const auto it = last_counters_.find(name);
      const std::uint64_t before = it == last_counters_.end() ? 0 : it->second;
      if (value > before) {
        rates.set(name, Json(static_cast<double>(value - before) / since_last_s));
      }
    }
  }

  Json gauges = Json::object();
  for (const auto& [name, value] : snap.gauges) gauges.set(name, Json(value));

  const std::uint64_t seq = beats_.fetch_add(1, std::memory_order_relaxed) + 1;
  Json line = Json::object();
  line.set("heartbeat", Json(seq));
  line.set("elapsed_s", Json(elapsed_s));
  line.set("phase", Json(activity().current()));
  if (config_.extra) {
    // Named, not inlined into the range-for: the range-init temporary is
    // not lifetime-extended in C++20.
    const Json extra = config_.extra();
    for (const auto& [key, value] : extra.as_object()) line.set(key, value);
  }
  line.set("counters", std::move(counters_json));
  line.set("gauges", std::move(gauges));
  line.set("rates", std::move(rates));

  const std::string text = line.dump() + "\n";
  std::fwrite(text.data(), 1, text.size(), config_.out);
  std::fflush(config_.out);

  last_counters_.clear();
  for (const auto& [name, value] : snap.counters) last_counters_.emplace_hint(
      last_counters_.end(), name, value);  // snapshot order is name-sorted
  last_beat_ = now;
}

// ------------------------------------------------------------------------
// Metrics snapshot
// ------------------------------------------------------------------------

Json build_info() {
  Json out = Json::object();
#if defined(__clang__)
  out.set("compiler", Json(std::string("clang ") + std::to_string(__clang_major__) + "." +
                           std::to_string(__clang_minor__)));
#elif defined(__GNUC__)
  out.set("compiler", Json(std::string("gcc ") + std::to_string(__GNUC__) + "." +
                           std::to_string(__GNUC_MINOR__)));
#else
  out.set("compiler", Json("unknown"));
#endif
  out.set("cpp_standard", Json(static_cast<std::uint64_t>(__cplusplus)));
#if defined(NDEBUG)
  out.set("build_type", Json("release"));
#else
  out.set("build_type", Json("debug"));
#endif
  return out;
}

Json metrics_snapshot(const RunManifest& manifest, double wall_ms) {
  Json run = Json::object();
  run.set("kind", Json(manifest.kind));
  run.set("spec", Json(manifest.spec_path));
  run.set("fingerprint", Json(manifest.fingerprint));
  run.set("threads", Json(manifest.threads));
  if (manifest.extra.is_object() && !manifest.extra.as_object().empty()) {
    run.set("config", manifest.extra);
  }
  run.set("build", build_info());

  Json out = Json::object();
  out.set("schema", Json(1));
  out.set("kind", Json("metrics-snapshot"));
  out.set("run", std::move(run));
  out.set("wall_ms", Json(wall_ms));
  const Json metrics = registry().snapshot();
  for (const auto& [key, value] : metrics.as_object()) out.set(key, value);
  return out;
}

void write_metrics(const std::string& path, const RunManifest& manifest, double wall_ms) {
  metrics_snapshot(manifest, wall_ms).save_file(path);
}

}  // namespace aurv::support::telemetry
