// Fixture: either an MMM_GUARDED_BY annotation or a justified suppression
// satisfies the rule.
#pragma once

class Mutex;

#define MMM_GUARDED_BY(x)

class Annotated {
 private:
  Mutex mu_;
  int count_ MMM_GUARDED_BY(mu_) = 0;
};

class Suppressed {
 private:
  Mutex mu_;  // MMMSA(mutex-missing-guard): serializes calls into a C library
};
