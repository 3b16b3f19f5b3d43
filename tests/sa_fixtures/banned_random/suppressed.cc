// Fixture: the same violations carry justified suppressions, so the file
// must lint clean.
#include <random>

int Roll() {
  // MMMSA(banned-random): fixture exercising the suppression syntax
  std::mt19937 gen(42);
  return static_cast<int>(gen());
}

long Now() { return time(nullptr); }  // MMMSA(banned-random): fixture
