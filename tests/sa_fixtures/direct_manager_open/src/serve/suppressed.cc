// Fixture: a justified suppression lints clean.
struct ModelSetManager {
  struct Options;
  static int Open(const Options& options);
};

int ServeFrom(const ModelSetManager::Options& options) {
  // MMMSA(direct-manager-open): fixture models a sanctioned standalone tool
  return ModelSetManager::Open(options);
}
