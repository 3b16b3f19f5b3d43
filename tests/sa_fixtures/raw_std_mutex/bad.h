// Fixture: raw std::mutex (and friends) must be flagged outside
// common/thread_annotations.h.
#pragma once
#include <mutex>

class Counter {
 public:
  void Bump();

 private:
  std::mutex mu_;
  int n_ = 0;
};
