// Fixture: a justified raw std::mutex lints clean.
#pragma once
#include <mutex>

class Counter {
 public:
  void Bump();

 private:
  // MMMSA(raw-std-mutex): fixture interoperates with a non-wrapped cv
  std::mutex mu_;
  int n_ = 0;
};
