#ifndef MMM_BENCH_SUITE_TRACING_ENV_H_
#define MMM_BENCH_SUITE_TRACING_ENV_H_

#include "bench/suite/span_recorder.h"
#include "storage/env.h"

namespace mmm::bench {

/// \brief Env decorator that records a span around every filesystem call.
///
/// The benchmark hands it to ModelSetManager::Options::env, so the storage
/// layer is observed from outside without touching the library: each call
/// becomes a child of whatever request span is open on the calling thread
/// (the write pipeline runs on the calling thread at its default of one
/// lane). Reads and writes carry their byte counts; directory and metadata
/// calls are recorded as `storage.env.meta`. Calls made outside a recorded
/// request only forward.
class TracingEnv : public Env {
 public:
  TracingEnv(Env* base, SpanRecorder* recorder)
      : base_(base), recorder_(recorder) {}

  Status WriteFile(const std::string& path,
                   std::span<const uint8_t> data) override {
    ScopedSpan span(recorder_, "storage.env.write", ScopedSpan::InRecordedSpan());
    span.AddBytes(data.size());
    return base_->WriteFile(path, data);
  }

  Status AppendToFile(const std::string& path,
                      std::span<const uint8_t> data) override {
    ScopedSpan span(recorder_, "storage.env.write", ScopedSpan::InRecordedSpan());
    span.AddBytes(data.size());
    return base_->AppendToFile(path, data);
  }

  Result<std::vector<uint8_t>> ReadFile(const std::string& path) override {
    ScopedSpan span(recorder_, "storage.env.read", ScopedSpan::InRecordedSpan());
    Result<std::vector<uint8_t>> data = base_->ReadFile(path);
    if (data.ok()) span.AddBytes(data.ValueOrDie().size());
    return data;
  }

  Result<std::vector<uint8_t>> ReadFileRange(const std::string& path,
                                             uint64_t offset,
                                             uint64_t length) override {
    ScopedSpan span(recorder_, "storage.env.read", ScopedSpan::InRecordedSpan());
    Result<std::vector<uint8_t>> data = base_->ReadFileRange(path, offset, length);
    if (data.ok()) span.AddBytes(data.ValueOrDie().size());
    return data;
  }

  Result<bool> FileExists(const std::string& path) override {
    ScopedSpan span(recorder_, "storage.env.meta", ScopedSpan::InRecordedSpan());
    return base_->FileExists(path);
  }

  Result<uint64_t> FileSize(const std::string& path) override {
    ScopedSpan span(recorder_, "storage.env.meta", ScopedSpan::InRecordedSpan());
    return base_->FileSize(path);
  }

  Status DeleteFile(const std::string& path) override {
    ScopedSpan span(recorder_, "storage.env.meta", ScopedSpan::InRecordedSpan());
    return base_->DeleteFile(path);
  }

  Status CreateDirs(const std::string& path) override {
    ScopedSpan span(recorder_, "storage.env.meta", ScopedSpan::InRecordedSpan());
    return base_->CreateDirs(path);
  }

  Status RemoveDirs(const std::string& path) override {
    ScopedSpan span(recorder_, "storage.env.meta", ScopedSpan::InRecordedSpan());
    return base_->RemoveDirs(path);
  }

  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    ScopedSpan span(recorder_, "storage.env.meta", ScopedSpan::InRecordedSpan());
    return base_->ListDir(path);
  }

 private:
  Env* base_;
  SpanRecorder* recorder_;
};

}  // namespace mmm::bench

#endif  // MMM_BENCH_SUITE_TRACING_ENV_H_
