#ifndef MMM_BENCH_SUITE_SPAN_RECORDER_H_
#define MMM_BENCH_SUITE_SPAN_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace mmm::bench {

/// \brief One timed interval of a traced run.
///
/// A request's root span is the benchmark's call into a public function
/// (`serve.recover`, `core.save`, ...); every span opened on the same thread
/// while it is open (the Env calls of `TracingEnv`) is its descendant and
/// carries its id as `request`.
struct Span {
  uint64_t id = 0;
  /// Enclosing span on the same thread; 0 for a request's root span.
  uint64_t parent = 0;
  /// Id of the root span this span belongs to.
  uint64_t request = 0;
  /// "<module>.<operation>"; always a string literal.
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  /// Bytes moved by the operation, where it moves any.
  uint64_t bytes = 0;
  uint32_t thread = 0;

  uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// \brief Keeps the spans of a traced run in memory, one buffer per thread,
/// and writes them out when the run ends.
///
/// Recording appends to the calling thread's own buffer, so client threads
/// never contend; Collect and Clear must only run while no thread records.
/// A process has one recorder (the thread buffers are found through a
/// thread_local shared by all instances).
class SpanRecorder {
 public:
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const Span& span) { ThreadBuffer()->spans.push_back(span); }

  /// Every recorded span, in no particular order.
  std::vector<Span> Collect() const {
    MutexLock lock(mu_);
    std::vector<Span> all;
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
    return all;
  }

  /// Drops every recorded span (the buffers stay registered).
  void Clear() {
    MutexLock lock(mu_);
    for (const auto& buffer : buffers_) buffer->spans.clear();
  }

  /// Writes `spans` as one JSON object: {"spans": [{...}, ...]}.
  static Status Dump(const std::vector<Span>& spans, const std::string& path) {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return Status::IOError("cannot write trace ", path);
    std::fputs("{\"spans\": [\n", file);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(file,
                   "%s{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                   "\"name\": \"%s\", \"thread\": %u, \"start_ns\": %llu, "
                   "\"end_ns\": %llu, \"bytes\": %llu}",
                   i == 0 ? "" : ",\n", static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.name, s.thread,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<unsigned long long>(s.bytes));
    }
    std::fputs("\n]}\n", file);
    if (std::fclose(file) != 0) return Status::IOError("cannot write trace ", path);
    return Status::OK();
  }

 private:
  struct Buffer {
    uint32_t thread = 0;
    std::vector<Span> spans;
  };

  Buffer* ThreadBuffer() {
    thread_local Buffer* buffer = nullptr;
    if (buffer == nullptr) {
      MutexLock lock(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      buffer = buffers_.back().get();
      buffer->thread = static_cast<uint32_t>(buffers_.size());
    }
    return buffer;
  }

  friend class ScopedSpan;

  std::atomic<uint64_t> next_id_{1};
  mutable Mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_ MMM_GUARDED_BY(mu_);
};

/// \brief Records one span from construction to destruction, parented to
/// the span open on this thread when it started. No-op unless `record` is
/// set and `recorder` is not null.
class ScopedSpan {
 public:
  /// True while a recorded span is open on this thread. Layer decorators
  /// pass it as `record`, so a request's children are recorded exactly
  /// when the request is.
  static bool InRecordedSpan() { return current_span_ != 0; }

  ScopedSpan(SpanRecorder* recorder, const char* name, bool record) {
    if (recorder == nullptr || !record) return;
    recorder_ = recorder;
    span_.id = recorder->NextId();
    span_.parent = current_span_;
    span_.request = current_span_ == 0 ? span_.id : current_request_;
    span_.name = name;
    span_.thread = recorder->ThreadBuffer()->thread;
    saved_request_ = current_request_;
    current_span_ = span_.id;
    current_request_ = span_.request;
    span_.start_ns = WallClock::NowNanos();
  }

  ~ScopedSpan() {
    if (recorder_ == nullptr) return;
    span_.end_ns = WallClock::NowNanos();
    current_span_ = span_.parent;
    current_request_ = saved_request_;
    recorder_->Record(span_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void AddBytes(uint64_t bytes) { span_.bytes += bytes; }

 private:
  static inline thread_local uint64_t current_span_ = 0;
  static inline thread_local uint64_t current_request_ = 0;

  SpanRecorder* recorder_ = nullptr;
  Span span_;
  uint64_t saved_request_ = 0;
};

}  // namespace mmm::bench

#endif  // MMM_BENCH_SUITE_SPAN_RECORDER_H_
