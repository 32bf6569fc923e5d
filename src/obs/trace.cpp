#include "obs/trace.hpp"

#include <utility>

namespace marioh::obs {

namespace {

/// Monotone span ids, process-wide (0 is "no span").
std::atomic<uint64_t> g_next_span_id{1};

/// The span currently open on this thread; new spans record it as their
/// parent, giving parent/child links from plain lexical nesting.
thread_local uint64_t t_current_span = 0;

std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

double TraceNowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       TraceEpoch())
      .count();
}

TraceRing::TraceRing(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

TraceRing& TraceRing::Global() {
  static TraceRing* ring = new TraceRing();
  return *ring;
}

void TraceRing::Record(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!full_) {
    ring_.push_back(std::move(span));
    if (ring_.size() == capacity_) full_ = true;
    return;
  }
  // Overwrite the oldest slot; next_ walks the ring.
  ring_[next_] = std::move(span);
  next_ = (next_ + 1) % capacity_;
}

std::vector<SpanRecord> TraceRing::Snapshot() const {
  std::vector<SpanRecord> out;
  ForEach([&out](const SpanRecord& span) { out.push_back(span); });
  return out;
}

void TraceRing::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  next_ = 0;
  full_ = false;
}

size_t TraceRing::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

TraceSpan::TraceSpan(std::string name, std::string detail, TraceRing* ring) {
  if (!Enabled()) return;  // inert span: id 0, nothing recorded
  ring_ = ring != nullptr ? ring : &TraceRing::Global();
  id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  parent_id_ = t_current_span;
  saved_current_ = t_current_span;
  t_current_span = id_;
  name_ = std::move(name);
  detail_ = std::move(detail);
  start_ = std::chrono::steady_clock::now();
}

TraceSpan::~TraceSpan() {
  if (id_ == 0) return;
  t_current_span = saved_current_;
  SpanRecord span;
  span.id = id_;
  span.parent_id = parent_id_;
  span.name = std::move(name_);
  span.detail = std::move(detail_);
  span.start_seconds =
      std::chrono::duration<double>(start_ - TraceEpoch()).count();
  span.duration_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_)
          .count();
  ring_->Record(std::move(span));
}

}  // namespace marioh::obs
