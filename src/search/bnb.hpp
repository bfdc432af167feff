// Deterministic parallel branch-and-bound over the adversary's parameter
// space.
//
// The search proceeds in *waves* over a best-first frontier of parameter
// boxes ordered by (bound desc, refinement-tree id asc). Each wave pops a
// spec-fixed number of boxes (wave_size — never a function of the thread
// count), evaluates their canonical midpoints in parallel through
// support::run_sharded (one box = one shard), and merges the outcomes in
// strict shard order: incumbent updates, pruning decisions and child
// insertions all happen in that deterministic merge, so the incumbent
// sequence, the pruning statistics and the final certificate are
// byte-identical at any worker count — the Bobpp-style static search-tree
// partitioning discipline (Menouer & Le Cun, arXiv:1406.2844), with the
// objective's box bound playing the role Bounded Dijkstra's cost bound
// plays in search-space pruning (Van Bemten et al., arXiv:1903.00436).
//
// Pruning: a box whose bound cannot beat the incumbent by more than
// min_improvement is discarded when popped or when spawned; a box whose
// bound is -infinity (e.g. provably infeasible under Theorem 3.1) is
// discarded even without an incumbent. Boxes narrower than min_width are
// evaluated but not branched (leaves). The run ends when the frontier is
// empty (exhausted — the certificate then proves global optimality up to
// min_improvement and leaf resolution) or when max_boxes evaluations are
// spent (the certificate reports the residual frontier bound instead: no
// open box can beat the incumbent by more than frontier_bound - score).
//
// Frontier scaling: the open frontier lives in a support::SpillDeque —
// by default fully in memory, but with a spill directory and a hot-set
// capacity the cold tail of the bound-ordered frontier moves to
// append-only JSONL segment files (exact-rational boxes, lossless), so
// million-box frontiers no longer have to fit in RAM. The pop sequence
// of the spilled deque is element-for-element the in-memory sequence, so
// spilling can never change a certificate byte.
//
// Checkpoint/resume is delta-based: a *base* checkpoint (exact-rational
// hot frontier + segment-file references + incumbent + statistics +
// incumbent-log offset) plus an append-only *wave journal* — one JSONL
// record per wave holding the pop count, the surviving children and the
// incumbent/stat deltas. Resume loads the base, replays the journal
// (re-applying each wave's merge without re-simulating a single box) and
// continues the identical wave sequence. Every checkpoint_every waves
// the journal is *compacted* into a fresh base; the write order (new
// base first, then journal/segment cleanup) makes a kill at any point —
// including mid-compaction — recoverable to the same bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "numeric/rational.hpp"
#include "search/box.hpp"
#include "search/objective.hpp"
#include "support/json.hpp"

namespace aurv::search {

/// Spec-side knobs (fingerprinted: changing any of them is a different
/// search, and a checkpoint will refuse to resume across the change).
struct BnbLimits {
  /// Evaluation budget: total midpoint simulations across all invocations.
  std::uint64_t max_boxes = 4096;
  /// Boxes per deterministic wave (the unit of parallel execution and of
  /// checkpointing). Must be >= 1.
  std::uint64_t wave_size = 32;
  /// Boxes whose widest dimension is <= min_width are leaves.
  numeric::Rational min_width = numeric::Rational(numeric::BigInt(1), numeric::BigInt(1024));
  /// A box survives only if its bound exceeds incumbent + min_improvement.
  double min_improvement = 0.0;
};

/// Invocation-side knobs (none of them may change the search result).
struct BnbOptions {
  /// Worker cap for each wave; 0 picks hardware concurrency. Results are
  /// byte-identical at any value.
  std::size_t max_shards = 0;

  /// JSONL stream of incumbent improvements, in deterministic merge order.
  /// Empty = off.
  std::string incumbent_log_path;

  /// Opt-in prune-provenance stream (JSONL): a header record, then one
  /// decision record per popped box — canonical path id, action in
  /// {branched, leaf, pruned-infeasible, pruned-bound, pruned-pop}, the
  /// interval bound, and the incumbent sequence number at decision time —
  /// plus one record per incumbent improvement and per spawn-pruned
  /// child. Emitted on the serialized side of every wave, so the stream
  /// is byte-identical at any worker count and across checkpoint/resume
  /// (records carry their wave number; resume truncates to the replayed
  /// wave boundary — the stream needs no checkpoint bookkeeping, keeping
  /// checkpoints byte-identical with provenance on or off). A persistent
  /// write failure degrades the stream soft (`provenance.dropped` ticks,
  /// the run continues untouched). scripts/provenance_report.py replays
  /// and audits the stream against the certificate. Empty = off.
  std::string provenance_path;

  /// Base-checkpoint file enabling resume; the per-wave journal rides
  /// beside it as "<checkpoint_path>.wave.<generation>.jsonl". Empty = off.
  std::string checkpoint_path;
  /// Compact the wave journal into a fresh base checkpoint every this
  /// many completed waves (>= 1). The journal itself is appended (and
  /// flushed) after *every* wave, so a kill loses at most the wave in
  /// flight regardless of this cadence.
  std::size_t checkpoint_every = 16;
  /// Continue from checkpoint_path. An empty path, or a missing,
  /// unreadable/truncated or foreign (different search) checkpoint is
  /// refused with a support::CheckpointError naming the path and the
  /// reason — an explicit resume silently restarting from scratch would
  /// lie about what the artifacts contain.
  bool resume = false;

  /// Spill-to-disk frontier: directory for cold-tail segment files.
  /// Empty = keep the whole frontier in memory. Invocation-side: a
  /// spilled and an in-memory run produce byte-identical artifacts.
  /// The directory belongs to this search alone (like checkpoint_path):
  /// fresh starts and resumes reclaim every segment file the current
  /// state does not reference, so concurrent searches need distinct
  /// directories.
  std::string spill_dir;
  /// Max open boxes held in memory (0 = unbounded); nonzero requires
  /// spill_dir. Never changes the result, only where the frontier lives.
  std::size_t frontier_mem = 0;
  /// Open segment-file cap before the spill store k-way-merges them into
  /// one sorted run (>= 1).
  std::size_t spill_max_segments = 8;
  /// Hot-frontier bound while the spill store is *degraded* (spill dir
  /// unwritable or full): past it the run fails with a structured error
  /// instead of growing without limit. 0 = unbounded in-memory fallback.
  /// Invocation-side like the rest: degradation never changes the
  /// certificate, only whether the run can finish.
  std::size_t frontier_degraded_capacity = 0;

  /// Stop after this many waves in *this* invocation (0 = run to the end);
  /// with a checkpoint this yields incremental execution.
  std::size_t max_waves = 0;

  /// Identity of the search this run belongs to (e.g. the spec fingerprint,
  /// in hex); stored in the checkpoint and validated on resume so a resumed
  /// run cannot silently continue a different search.
  std::string fingerprint;

  /// Dimension names for logs/certificate (point values are labeled with
  /// these); must match the root box's dimension count when non-empty.
  std::vector<std::string> dim_names;

  /// Progress hook, called serialized after each wave with
  /// (boxes_evaluated, frontier_size).
  std::function<void(std::uint64_t, std::uint64_t)> progress;
};

struct BnbStats {
  std::uint64_t evaluated = 0;      ///< midpoint simulations performed
  std::uint64_t pruned = 0;         ///< boxes discarded by bound (pop or spawn)
  std::uint64_t branched = 0;       ///< boxes split into two children
  std::uint64_t leaves = 0;         ///< boxes at min_width, evaluated only
  std::uint64_t waves = 0;          ///< deterministic waves completed
  std::uint64_t max_frontier = 0;   ///< high-water mark of open boxes
  std::uint64_t improvements = 0;   ///< incumbent updates (log records)

  friend bool operator==(const BnbStats& a, const BnbStats& b) = default;
};

struct Incumbent {
  bool found = false;
  double score = 0.0;
  std::string box_id;                          ///< refinement-tree path
  std::vector<numeric::Rational> point;        ///< exact midpoint coordinates
  Evaluation evaluation;
  std::uint64_t found_at_box = 0;              ///< evaluation count when found
};

struct BnbResult {
  Incumbent incumbent;
  BnbStats stats;

  bool exhausted = false;       ///< frontier emptied: optimality certificate
  bool budget_reached = false;  ///< max_boxes spent
  /// Neither flag set: stopped early by max_waves (resume to continue).
  [[nodiscard]] bool complete() const noexcept { return exhausted || budget_reached; }

  std::uint64_t open_boxes = 0;   ///< frontier size at stop
  /// Max bound over the remaining frontier (the certificate's residual:
  /// nothing unexplored can score above this). -infinity when exhausted.
  double frontier_bound = 0.0;

  /// Dimension labels for the certificate (copied from BnbOptions).
  std::vector<std::string> dim_names;

  /// Invocation-side frontier observability — deliberately NOT part of
  /// the certificate: a spilled and an in-memory run of the same search
  /// report different values here while producing identical certificates.
  std::uint64_t frontier_hot_high_water = 0;  ///< max boxes resident in memory
  std::uint64_t frontier_spilled = 0;         ///< boxes written to disk segments
  /// True when a persistent spill-write failure demoted the frontier to
  /// in-memory mode mid-run; the certificate is still byte-identical.
  bool frontier_degraded = false;
  /// The first failure behind the demotion ("" when healthy).
  std::string frontier_degradation;

  /// The certificate body: incumbent, stats, frontier residual. Depends
  /// only on (spec, limits) — not on worker count, interruption pattern
  /// or spill configuration.
  [[nodiscard]] support::Json to_json() const;
};

/// Runs (or resumes) the branch-and-bound from `root` under `objective`.
/// Throws std::invalid_argument for option/checkpoint mismatches; exceptions
/// from the objective propagate deterministically (lowest shard of the
/// failing wave first).
[[nodiscard]] BnbResult run_bnb(const ParamBox& root, const Objective& objective,
                                const BnbLimits& limits, const BnbOptions& options = {});

}  // namespace aurv::search
