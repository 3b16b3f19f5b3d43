// The env_wrapper shape in a class that is not an Env: its DeleteFile is a
// caller of the primitive, not an implementation of it, so the unjournaled
// delete is still flagged.

class Env {
 public:
  virtual int DeleteFile(const char* path) = 0;
};

class BlobCache {
 public:
  int DeleteFile(const char* path) { return env_->DeleteFile(path); }

 private:
  Env* env_ = nullptr;
};
