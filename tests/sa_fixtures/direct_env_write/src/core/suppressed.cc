// Fixture: suppressed direct writes lint clean.
struct Env;

int Save(Env* env) {
  // MMMSA(direct-env-write): fixture writes a debug dump, not a save blob
  int s = env->WriteFile("blob", "payload");
  if (s != 0) return s;
  // MMMSA(direct-env-write): fixture appends outside the commit protocol
  s = env->AppendToFile("manifest", "entry");
  return s;
}
