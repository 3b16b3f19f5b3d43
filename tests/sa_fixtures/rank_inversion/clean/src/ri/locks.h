// The same pair acquired in rank order: clean.
#ifndef SA_FIXTURE_RANK_INVERSION_CLEAN_H_
#define SA_FIXTURE_RANK_INVERSION_CLEAN_H_

class Inverted {
 public:
  void Publish() {
    MutexLock outer_first(low_);
    MutexLock inner_second(high_);
    ++epoch_;
  }

 private:
  Mutex low_ MMM_LOCK_RANK(10);
  Mutex high_ MMM_LOCK_RANK(20);
  int epoch_ MMM_GUARDED_BY(high_) = 0;
};

#endif  // SA_FIXTURE_RANK_INVERSION_CLEAN_H_
