// Fixture: a suppressed back edge lints clean. A real repo would break the
// cycle instead; the suppression records why it is tolerated meanwhile.
#pragma once
#include "b.h"  // MMMSA(include-cycle): fixture demonstrating suppression

struct A {
  int value = 0;
};
