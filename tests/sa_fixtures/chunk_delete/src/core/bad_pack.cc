// Fixture: deleting a `pack-` blob from outside src/cas/ drops every chunk
// it holds, live ones included, and must be flagged, whether the name comes
// from PackBlobName, the prefix constant, or a literal.
struct FileStore;

int Gc(FileStore* store, unsigned long id) {
  int s = store->Delete(PackBlobName(id));
  if (s != 0) return s;
  s = store->DeleteFile(kCasPackPrefix + std::to_string(id));
  if (s != 0) return s;
  return store->Delete("pack-0000000000000001");
}
