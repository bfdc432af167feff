// The one place that knows how a durable JSONL stream is written and
// re-read, plus the atomic JSON checkpoint write. Every streamed artifact
// goes through JsonlSink: campaign and census JSONL, the search incumbent
// log, wave journals, the provenance stream (via SoftJsonlSink) and the
// spill deque's segment files.
//
// The contract that makes streamed records byte-identical across
// checkpoint/resume cycles: a checkpoint stores the byte offset of the
// stream's durable prefix; on resume the sink truncates the file back to
// that offset (dropping records written after the checkpoint and lost to
// the interruption) and appends from there. A file *shorter* than the
// recorded offset means stream and checkpoint are out of sync, which is
// refused instead of silently padding the hole. Readers find the durable
// prefix with scan_durable_prefix(): complete lines that parse, up to the
// first torn or partial one.
//
// All mutating I/O goes through the support::vfs() seam (see vfs.hpp),
// with retry_io's bounded deterministic retry for transient failures: a
// torn append is rolled back to the sink's durable byte count before the
// retry, so the rewrite can never duplicate a partial record.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "support/json.hpp"
#include "support/vfs.hpp"

namespace aurv::support {

/// A checkpoint that cannot be resumed: missing, unreadable/truncated, or
/// written by a different run ("foreign"). Carries the path and a
/// one-line reason so drivers can exit with a structured diagnostic
/// instead of a bare parse error. Derived from std::invalid_argument: it
/// *is* an option/checkpoint mismatch, just a self-describing one.
class CheckpointError : public std::invalid_argument {
 public:
  CheckpointError(std::string path, std::string reason)
      : std::invalid_argument("checkpoint " + path + ": " + reason),
        path_(std::move(path)),
        reason_(std::move(reason)) {}

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] const std::string& reason() const noexcept { return reason_; }

  /// One-line machine-parseable form for CLI stderr:
  ///   {"error":"checkpoint-resume","path":"...","reason":"..."}
  [[nodiscard]] std::string structured() const {
    Json json = Json::object();
    json.set("error", Json("checkpoint-resume"));
    json.set("path", Json(path_));
    json.set("reason", Json(reason_));
    return json.dump();
  }

 private:
  std::string path_;
  std::string reason_;
};

/// Loads the checkpoint an explicit resume names. A resume with nothing
/// (usable) to resume from is refused with a CheckpointError — an empty
/// path, a missing file, or an unreadable/truncated one — instead of
/// silently starting over: restarting would truncate or overwrite the
/// very artifacts the caller asked to extend.
inline Json load_resume_checkpoint(const std::string& path) {
  if (path.empty())
    throw CheckpointError(path, "no checkpoint path given (resuming needs --checkpoint)");
  if (!vfs().exists(path))
    throw CheckpointError(
        path, "missing (no checkpoint at this path; run without --resume to start fresh)");
  try {
    return Json::load_file(path);
  } catch (const JsonError& error) {
    throw CheckpointError(path,
                          std::string("unreadable or truncated (") + error.what() + ")");
  }
}

/// Write-then-rename so an interrupted write can never leave a truncated
/// checkpoint behind: the previous checkpoint survives until the new one is
/// fully on disk. Transient write/rename failures are retried with
/// deterministic backoff; persistent ones propagate as VfsError.
inline void save_json_atomically(const std::string& path, const Json& json,
                                 const RetryPolicy& retry = {}) {
  const std::string tmp = path + ".tmp";
  const std::string text = json.dump(2);
  retry_io(retry, [&] {
    // Reopen-truncate on every attempt: a torn first try leaves no prefix
    // for the retry to double-write.
    const std::unique_ptr<VfsFile> file = vfs().open_write(tmp, Vfs::OpenMode::Truncate);
    file->write(text);
    file->close();
  });
  retry_io(retry, [&] { vfs().rename(tmp, path); });
}

/// Canonical rendering of a spec fingerprint in checkpoint files: 16
/// zero-padded lowercase hex digits. Campaign and search checkpoints share
/// this format, so keep them on one helper.
inline std::string fingerprint_hex(std::uint64_t fingerprint) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%016" PRIx64, fingerprint);
  return buffer;
}

class JsonlSink {
 public:
  /// Opens `path` for writing ("" = disabled sink, every call a no-op).
  /// `resume_bytes` > 0 truncates to that offset and appends; 0 starts the
  /// stream over.
  explicit JsonlSink(const std::string& path, std::uint64_t resume_bytes = 0,
                     RetryPolicy retry = {})
      : retry_(retry) {
    if (path.empty()) return;
    if (resume_bytes > 0) {
      std::uint64_t existing = 0;  // a missing or unreadable file counts as empty
      try {
        if (vfs().exists(path)) existing = vfs().file_size(path);
      } catch (const VfsError&) {
      }
      if (existing < resume_bytes)
        throw std::invalid_argument(
            "jsonl: " + path + " is shorter than the checkpoint's recorded offset (" +
            std::to_string(resume_bytes) +
            " bytes); the stream does not match this checkpoint — delete both to start over");
      try {
        retry_io(retry_, [&] { vfs().resize_file(path, resume_bytes); });
      } catch (const VfsError& error) {
        throw std::invalid_argument("jsonl: cannot truncate " + path +
                                    " for resume: " + error.reason());
      }
    }
    const Vfs::OpenMode mode = resume_bytes > 0 ? Vfs::OpenMode::Append : Vfs::OpenMode::Truncate;
    file_ = retry_io(retry_, [&] { return vfs().open_write(path, mode); });
    bytes_ = resume_bytes;
  }

  JsonlSink(const JsonlSink&) = delete;
  JsonlSink& operator=(const JsonlSink&) = delete;

  void append(const std::string& text) {
    if (file_ == nullptr) return;
    retry_io(retry_, [&] {
      try {
        file_->write(text);
      } catch (const VfsError&) {
        // Roll back whatever torn prefix reached the file so a retry (or
        // a later resume against the recorded offset) never sees it.
        try {
          file_->truncate_to(bytes_);
        } catch (const VfsError&) {
          // The rewind itself failed: the durable-prefix contract now
          // rests on the resume-side truncation, which uses the recorded
          // offset and is therefore still sound.
        }
        throw;
      }
      bytes_ += text.size();
    });
  }

  void flush() {
    if (file_ == nullptr) return;
    retry_io(retry_, [&] { file_->flush(); });
  }

  /// Flushes (with retry) and closes; throws VfsError if either fails.
  /// Later calls on the closed sink are no-ops.
  void close() {
    if (file_ == nullptr) return;
    flush();
    file_->close();
    file_ = nullptr;
  }

  /// Durable-prefix offset to record in checkpoints.
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

 private:
  RetryPolicy retry_;
  std::unique_ptr<VfsFile> file_;  ///< closed silently by the destructor
  std::uint64_t bytes_ = 0;
};

/// Walks the durable prefix of the JSONL stream at `path`: each complete
/// line that parses, in order, goes to `on_record(const Json&)`, which
/// returns false to stop before that record. A partial trailing line or an
/// unparseable one (a torn write at a kill point) ends the prefix. Returns
/// the byte length of the records consumed — the offset to resume from.
/// Exceptions thrown by `on_record` propagate.
template <typename OnRecord>
std::uint64_t scan_durable_prefix(const std::string& path, OnRecord&& on_record) {
  const std::string data = vfs().read_file(path);
  std::size_t consumed = 0;
  while (true) {
    const std::size_t newline = data.find('\n', consumed);
    if (newline == std::string::npos) break;
    Json record;
    try {
      record = Json::parse(std::string_view(data).substr(consumed, newline - consumed));
    } catch (const JsonError&) {
      break;
    }
    if (!on_record(record)) break;
    consumed = newline + 1;
  }
  return consumed;
}

/// A fail-soft JsonlSink for observability streams that are deterministic
/// artifacts *when healthy* but must never fail the run (the search
/// provenance stream): a persistent I/O failure — at open or on any
/// append — degrades the sink to a counting no-op. Each record that
/// cannot be written ticks `<counter_prefix>.dropped`, and one warning
/// lands on stderr. Resume-offset mismatches (the caller pointed a
/// checkpoint at the wrong file) still throw: those are configuration
/// errors, not disk weather.
class SoftJsonlSink {
 public:
  SoftJsonlSink() = default;

  SoftJsonlSink(const std::string& path, std::string counter_prefix,
                std::uint64_t resume_bytes = 0, RetryPolicy retry = {})
      : counter_prefix_(std::move(counter_prefix)), path_(path) {
    if (path.empty()) return;
    try {
      sink_ = std::make_unique<JsonlSink>(path, resume_bytes, retry);
    } catch (const VfsError& error) {
      degrade(error.reason());
    }
  }

  /// Whether records are currently reaching the file.
  [[nodiscard]] bool healthy() const noexcept { return sink_ != nullptr; }
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }

  void append(const std::string& text) {
    if (degraded_) {
      telemetry::registry().counter(counter_prefix_ + ".dropped").add();
      return;
    }
    if (sink_ == nullptr) return;
    try {
      sink_->append(text);
    } catch (const VfsError& error) {
      // JsonlSink already rolled the file back to its durable prefix.
      bytes_at_degrade_ = sink_->bytes();
      degrade(error.reason());
      telemetry::registry().counter(counter_prefix_ + ".dropped").add();
    }
  }

  void flush() {
    if (sink_ == nullptr) return;
    try {
      sink_->flush();
    } catch (const VfsError& error) {
      bytes_at_degrade_ = sink_->bytes();
      degrade(error.reason());
    }
  }

  /// Durable-prefix offset for checkpoints (frozen at degrade time).
  [[nodiscard]] std::uint64_t bytes() const noexcept {
    return sink_ != nullptr ? sink_->bytes() : bytes_at_degrade_;
  }

 private:
  void degrade(const std::string& reason) {
    sink_.reset();
    degraded_ = true;
    std::fprintf(stderr, "aurv: %s: %s (%s); stream disabled, records dropped\n",
                 counter_prefix_.c_str(), path_.c_str(), reason.c_str());
  }

  std::string counter_prefix_ = "jsonl";
  std::string path_;
  std::unique_ptr<JsonlSink> sink_;
  std::uint64_t bytes_at_degrade_ = 0;
  bool degraded_ = false;
};

}  // namespace aurv::support
