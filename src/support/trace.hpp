// Structured trace spans: a process-wide sink emitting Chrome Trace Event
// Format JSON (loadable in Perfetto / chrome://tracing), opened by the
// drivers' `--trace-out PATH` flag.
//
// The same hard invariant as the rest of the telemetry layer: tracing
// NEVER touches a deterministic artifact, and it NEVER fails a run. The
// sink writes through the support::vfs() seam so fault-injection tests
// can script its disk dying, and on any persistent write failure it
// degrades to a counting no-op — `trace.dropped` ticks, one warning lands
// on stderr, the run continues untouched.
//
// Two emission paths, mirroring the telemetry counter discipline:
//   * serialized contexts (CLI phases, wave loop, checkpoint writes,
//     spill merges) construct a `Span` that writes straight to the sink;
//   * sharded work records spans into a shard-local `TraceBuffer` (plain
//     vector, no locks on the hot path), which the runner's *in-order*
//     completion hook folds into the sink — so the event order of a trace
//     file is shard-deterministic even though the timestamps are not.
//
// A `Span` with `announce = true` additionally pushes its name onto the
// telemetry ActivityStack for the heartbeat's "phase" field, and adds its
// wall time to the registry timer "<cat>.<name>" — both whether or not a
// trace file is open. Announced spans are the one source of timers.
//
// Include-cycle note: this header includes only json.hpp + telemetry.hpp;
// all vfs interaction lives behind the TraceSink pimpl in trace.cpp. That
// lets vfs.hpp / jsonl.hpp / spill.hpp include *this* header to emit
// retry/merge events without a cycle.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/json.hpp"
#include "support/telemetry.hpp"

namespace aurv::support::trace {

class TraceBuffer;

/// The process-wide trace sink. `open` arms it; every API is no-throw
/// with respect to I/O failure (VfsError degrades the sink instead).
class TraceSink {
 public:
  [[nodiscard]] static TraceSink& instance();

  /// Opens `path` (truncating) and writes the stream header. Returns
  /// false — after a stderr warning — when the file cannot be opened;
  /// the run proceeds untraced, with `trace.dropped` counting the spans
  /// that would have been emitted.
  bool open(const std::string& path);

  /// Flushes buffered events, writes the JSON footer and closes the
  /// file. Idempotent; called by the drivers at end of run.
  void close();

  /// Whether events are currently being collected.
  [[nodiscard]] bool enabled() const noexcept;
  /// Whether a trace was requested but the writer has failed (events are
  /// being counted into `trace.dropped` instead of written).
  [[nodiscard]] bool degraded() const noexcept;

  /// Microseconds since open() — the `ts` clock of every event.
  [[nodiscard]] std::uint64_t now_us() const noexcept;

  /// Appends one serialized event line (thread-safe; buffered, flushed in
  /// ~256 KiB batches). Dropped (and counted) when the sink is not open.
  void emit(std::string line);

  /// Folds a shard-local buffer's events into the sink, in the buffer's
  /// order, and empties the buffer. Call from the in-order completion
  /// hook so event order is shard-deterministic.
  void merge(TraceBuffer& buffer);

  /// The most recent `last_n` recorded event lines (oldest first), from a
  /// bounded in-memory ring the sink keeps alongside the file — the
  /// statusd `/trace?last=N` source. Empty when no trace is collecting;
  /// the ring is cleared by open(). Thread-safe.
  [[nodiscard]] std::vector<std::string> recent(std::size_t last_n) const;

 private:
  TraceSink();
  struct Impl;
  Impl* impl_;  ///< leaked with the singleton, like the metric registry
};

/// Shorthand for TraceSink::instance().
[[nodiscard]] inline TraceSink& sink() { return TraceSink::instance(); }

/// Shard-local event staging: spans append serialized lines here with no
/// locking; the runner merges buffers in shard order. `lane` becomes the
/// events' `tid`, giving each shard its own track in the viewer.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::uint32_t lane = 0) : lane_(lane) {}

  [[nodiscard]] std::uint32_t lane() const noexcept { return lane_; }
  [[nodiscard]] bool empty() const noexcept { return lines_.empty(); }
  void add(std::string line) { lines_.push_back(std::move(line)); }
  [[nodiscard]] std::vector<std::string> take() { return std::move(lines_); }

 private:
  std::uint32_t lane_;
  std::vector<std::string> lines_;
};

/// One serialized complete event ("ph":"X"): `ts`/`dur` in microseconds,
/// `pid` 1, `tid` = lane. `args` optional.
[[nodiscard]] std::string complete_event(std::string_view name, std::string_view cat,
                                         std::uint64_t ts_us, std::uint64_t dur_us,
                                         std::uint32_t lane, const Json* args);

/// Emits (or buffers) a zero-duration instant event ("ph":"i"), e.g. a
/// vfs retry firing inside a span. No-op when the sink is not collecting.
void instant(std::string_view name, std::string_view cat, TraceBuffer* buffer = nullptr,
             std::uint32_t lane = 0);

/// RAII trace span: measures from construction to destruction and emits
/// one complete event — to `options.buffer` when given (shard-local
/// path), else straight to the sink. With `announce`, also pushes `name`
/// onto the telemetry ActivityStack for the heartbeat's "phase" field and
/// adds the elapsed wall time to the registry timer "<cat>.<name>" (just
/// `name` when it already starts with "<cat>."), independent of whether a
/// trace file is open. Unannounced spans (per-box, per-shard) touch no
/// registry object. Never throws.
class Span {
 public:
  struct Options {
    bool announce = false;        ///< surface in heartbeat "phase" + time into a timer
    TraceBuffer* buffer = nullptr;  ///< stage shard-locally instead of emitting
    std::uint32_t lane = 0;       ///< tid when buffer == nullptr
  };

  Span(std::string_view name, std::string_view cat) : Span(name, cat, Options{}) {}
  Span(std::string_view name, std::string_view cat, Options options);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches an args object to the completed event (kept only when the
  /// span is actually recording).
  void set_args(Json args) {
    if (armed_) args_ = std::move(args);
  }

  [[nodiscard]] bool armed() const noexcept { return armed_; }

 private:
  std::string name_;
  std::string cat_;
  Options options_;
  std::optional<Json> args_;
  std::uint64_t activity_token_ = 0;
  std::uint64_t start_us_ = 0;
  std::uint64_t start_ns_ = 0;  ///< steady clock, for the announced span's timer
  bool armed_ = false;
};

}  // namespace aurv::support::trace
