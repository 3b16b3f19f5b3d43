// Fixture: suppressed discards lint clean.
struct Batch {
  int Commit();
};

struct Env {
  int DeleteFile(const char* path);
};

void Drop(Batch* batch, Env* env) {
  batch->Commit();  // MMMSA(discarded-status): best-effort flush in fixture
  // MMMSA(discarded-status): removal failure is benign here
  (void)env->DeleteFile("x");  // MMMSA(journal-path): scratch file, no blob
}
