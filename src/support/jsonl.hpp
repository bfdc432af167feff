// Checkpoint plumbing shared by the campaign runner and the search
// subsystem: an append-mode JSONL sink with checkpoint-resume truncation,
// and atomic JSON checkpoint writes.
//
// The contract that makes streamed records byte-identical across
// checkpoint/resume cycles: a checkpoint stores the byte offset of the
// stream's durable prefix; on resume the sink truncates the file back to
// that offset (dropping records written after the checkpoint and lost to
// the interruption) and appends from there. A file *shorter* than the
// recorded offset means stream and checkpoint are out of sync, which is
// refused instead of silently padding the hole.
//
// All mutating I/O goes through the support::vfs() seam (see vfs.hpp),
// with a bounded deterministic retry for transient failures: a torn
// append is rolled back to the sink's durable byte count before the
// retry, so the rewrite can never duplicate a partial record.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

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
      : path_(path), retry_(retry) {
    if (path.empty()) return;
    if (resume_bytes > 0) {
      std::uint64_t existing = 0;
      bool readable = vfs().exists(path);
      if (readable) {
        try {
          existing = vfs().file_size(path);
        } catch (const VfsError&) {
          readable = false;
        }
      }
      if (!readable || existing < resume_bytes)
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
      file_ = retry_io(retry_, [&] { return vfs().open_write(path, Vfs::OpenMode::Append); });
    } else {
      file_ = retry_io(retry_, [&] { return vfs().open_write(path, Vfs::OpenMode::Truncate); });
    }
    bytes_ = resume_bytes;
  }

  JsonlSink(const JsonlSink&) = delete;
  JsonlSink& operator=(const JsonlSink&) = delete;

  void append(const std::string& text) {
    if (file_ == nullptr) return;
    for (int attempt = 1;; ++attempt) {
      try {
        file_->write(text);
        bytes_ += text.size();
        return;
      } catch (const VfsError& error) {
        // Roll back whatever torn prefix reached the file so a retry (or
        // a later resume against the recorded offset) never sees it.
        try {
          file_->truncate_to(bytes_);
        } catch (const VfsError&) {
          // The rewind itself failed: the durable-prefix contract now
          // rests on the resume-side truncation, which uses the recorded
          // offset and is therefore still sound.
        }
        if (!error.transient() || attempt >= retry_.attempts) throw;
        const std::uint64_t backoff = retry_.backoff_ms << (attempt - 1);
        telemetry::registry().counter("vfs.retries").add();
        telemetry::registry().counter("vfs.backoff_ms").add(backoff);
        trace::instant("vfs.retry", "vfs");
        vfs().sleep_for_ms(backoff);
      }
    }
  }

  void flush() {
    if (file_ == nullptr) return;
    retry_io(retry_, [&] { file_->flush(); });
  }

  /// Durable-prefix offset to record in checkpoints.
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

 private:
  std::string path_;
  RetryPolicy retry_;
  std::unique_ptr<VfsFile> file_;  ///< closed silently by the destructor
  std::uint64_t bytes_ = 0;
};

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
      : counter_prefix_(std::move(counter_prefix)), path_hint_(path) {
    if (path.empty()) return;
    try {
      sink_ = std::make_unique<JsonlSink>(path, resume_bytes, retry);
    } catch (const VfsError& error) {
      degrade(path, error.reason());
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
      degrade(path_hint_.empty() ? "<provenance>" : path_hint_, error.reason());
      telemetry::registry().counter(counter_prefix_ + ".dropped").add();
    }
  }

  void flush() {
    if (sink_ == nullptr) return;
    try {
      sink_->flush();
    } catch (const VfsError& error) {
      bytes_at_degrade_ = sink_->bytes();
      degrade(path_hint_.empty() ? "<provenance>" : path_hint_, error.reason());
    }
  }

  /// Durable-prefix offset for checkpoints (frozen at degrade time).
  [[nodiscard]] std::uint64_t bytes() const noexcept {
    return sink_ != nullptr ? sink_->bytes() : bytes_at_degrade_;
  }

 private:
  void degrade(const std::string& path, const std::string& reason) {
    sink_.reset();
    degraded_ = true;
    std::fprintf(stderr, "aurv: %s: %s (%s); stream disabled, records dropped\n",
                 counter_prefix_.c_str(), path.c_str(), reason.c_str());
  }

  std::string counter_prefix_ = "jsonl";
  std::string path_hint_;
  std::unique_ptr<JsonlSink> sink_;
  std::uint64_t bytes_at_degrade_ = 0;
  bool degraded_ = false;
};

}  // namespace aurv::support
