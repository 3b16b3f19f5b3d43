// Fixture: second leg; the suppression lives on whichever edge the scanner
// reports as the back edge, so both carry one.
#pragma once
#include "a.h"  // MMMSA(include-cycle): fixture demonstrating suppression

struct B {
  int value = 0;
};
