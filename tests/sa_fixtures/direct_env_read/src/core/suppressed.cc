// Fixture: suppressed direct reads lint clean.
struct Env;

int Recover(Env* env) {
  // MMMSA(direct-env-read): fixture reads a debug dump, not a store blob
  int s = env->ReadFile("blob");
  if (s != 0) return s;
  // MMMSA(direct-env-read): fixture probes a sidecar outside the store
  s = env->ReadFileRange("blob", 0, 64);
  return s;
}
