// Fixture: a suppressed pack delete analyzes clean; deleting a blob that
// merely contains "pack" never matches in the first place.
struct FileStore;

int Gc(FileStore* store, unsigned long id) {
  // MMMSA(chunk-delete): fixture drops a pack whose index is unreadable
  int s = store->Delete(PackBlobName(id));  // MMMSA(journal-path): same drop
  if (s != 0) return s;
  return store->Delete("set-000001-backpack.params.bin");
}
