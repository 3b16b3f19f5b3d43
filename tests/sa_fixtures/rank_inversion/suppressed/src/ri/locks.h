// The bad variant with an MMMSA suppression on the inverting acquisition.
#ifndef SA_FIXTURE_RANK_INVERSION_SUPPRESSED_H_
#define SA_FIXTURE_RANK_INVERSION_SUPPRESSED_H_

class Inverted {
 public:
  void Publish() {
    MutexLock inner_first(high_);
    // MMMSA(lock-order): seeded fixture, inversion is the point
    MutexLock outer_second(low_);
    ++epoch_;
  }

 private:
  Mutex low_ MMM_LOCK_RANK(10);
  Mutex high_ MMM_LOCK_RANK(20);
  int epoch_ MMM_GUARDED_BY(high_) = 0;
};

#endif  // SA_FIXTURE_RANK_INVERSION_SUPPRESSED_H_
