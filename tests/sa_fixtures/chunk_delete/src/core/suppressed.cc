// Fixture: suppressed chunk deletes analyze clean; deleting a non-chunk
// blob never matches in the first place.
struct FileStore;

int Gc(FileStore* store, const char* hex) {
  // MMMSA(chunk-delete): fixture repairs a store with a corrupt index
  int s = store->Delete(ChunkBlobName(hex));  // MMMSA(journal-path): same repair
  if (s != 0) return s;
  return store->Delete("set-000001.params.bin");
}
