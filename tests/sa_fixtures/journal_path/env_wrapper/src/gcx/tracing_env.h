// Env wrappers outside src/storage/: each DeleteFile override forwards to
// the Env it wraps. Overriding the primitive implements deletion rather than
// calling it, so journal-path stays silent — also for a wrapper of a wrapper.

class Env {
 public:
  virtual int DeleteFile(const char* path) = 0;
};

class CountingEnv : public Env {
 public:
  int DeleteFile(const char* path) override {
    ++deletes_;
    return base_->DeleteFile(path);
  }

 private:
  Env* base_ = nullptr;
  int deletes_ = 0;
};

class AuditedEnv final : public CountingEnv {
 public:
  int DeleteFile(const char* path) override {
    return CountingEnv::DeleteFile(path);
  }
};
