/// \file trace.hpp
/// \brief Trace spans: RAII scopes that record per-stage / per-job
/// timings into a bounded ring buffer with parent/child links. A span
/// opened while another span is live on the same thread records that
/// span as its parent (a thread-local current-span slot), so the job →
/// stage hierarchy falls out of plain lexical nesting. Recording is
/// gated on `obs::Enabled()` — a disabled registry records nothing and
/// costs one relaxed load per scope.

#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace marioh::obs {

/// One finished span. `start_seconds` is measured on the steady clock
/// since process start (well, since the first obs use — a fixed epoch),
/// so spans from different threads order consistently.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent_id = 0;  ///< 0 = root
  std::string name;
  std::string detail;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
};

/// Fixed-capacity ring of finished spans: when full, the oldest span is
/// evicted. Mutex-guarded — spans finish at stage/job granularity, never
/// inside hot kernels, so contention is irrelevant.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity = 4096);

  /// The process-wide ring `TraceSpan` records into by default.
  static TraceRing& Global();

  void Record(SpanRecord span);
  /// All buffered spans, oldest first.
  std::vector<SpanRecord> Snapshot() const;
  /// Calls `fn(span)` on every buffered span, oldest first, under the
  /// ring's lock: a Snapshot without the copy, for formatters. `fn` must
  /// not record spans.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    // next_ is the oldest slot once the ring is full, and 0 before.
    for (size_t i = 0; i < ring_.size(); ++i) {
      fn(ring_[(next_ + i) % capacity_]);
    }
  }
  void Clear();
  size_t capacity() const { return capacity_; }
  size_t size() const;

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> ring_;  ///< circular once full
  size_t next_ = 0;               ///< insertion slot once full
  bool full_ = false;
};

/// RAII span: stamps the start on construction, records into the ring on
/// destruction. Inert (id 0, nothing recorded) while `obs::Enabled()` is
/// false at construction.
class TraceSpan {
 public:
  /// `ring` defaults to TraceRing::Global(); tests pass their own.
  explicit TraceSpan(std::string name, std::string detail = "",
                     TraceRing* ring = nullptr);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  TraceRing* ring_ = nullptr;
  uint64_t id_ = 0;
  uint64_t parent_id_ = 0;
  uint64_t saved_current_ = 0;  ///< restored on destruction (nesting)
  std::string name_;
  std::string detail_;
  std::chrono::steady_clock::time_point start_{};
};

/// Seconds since the process-wide trace epoch (first use). Exposed for
/// tests that build SpanRecords by hand.
double TraceNowSeconds();

}  // namespace marioh::obs
