#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/rng.h"
#include "serialize/crc32.h"
#include "storage/document_store.h"
#include "storage/env.h"
#include "storage/file_store.h"
#include "storage/journal.h"
#include "tests/test_util.h"

namespace mmm {
namespace {

using testing::TempDir;

std::span<const uint8_t> AsBytes(std::string_view s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

// ---------------------------------------------------------------------------
// Env implementations, exercised uniformly.

enum class EnvKind { kPosix, kInMemory };

class EnvSweep : public ::testing::TestWithParam<EnvKind> {
 protected:
  EnvSweep() : temp_("env") {
    if (GetParam() == EnvKind::kPosix) {
      env_ = Env::Default();
      root_ = temp_.path();
    } else {
      env_ = &in_memory_;
      root_ = "/mem";
      in_memory_.CreateDirs(root_).Check();
    }
  }

  TempDir temp_;
  InMemoryEnv in_memory_;
  Env* env_ = nullptr;
  std::string root_;
};

TEST_P(EnvSweep, WriteReadRoundTrip) {
  std::string path = root_ + "/file.bin";
  ASSERT_OK(env_->WriteFile(path, AsBytes("hello")));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> data, env_->ReadFile(path));
  EXPECT_EQ(std::string(data.begin(), data.end()), "hello");
}

TEST_P(EnvSweep, WriteOverwrites) {
  std::string path = root_ + "/file.bin";
  ASSERT_OK(env_->WriteFile(path, AsBytes("aaaa")));
  ASSERT_OK(env_->WriteFile(path, AsBytes("bb")));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> data, env_->ReadFile(path));
  EXPECT_EQ(data.size(), 2u);
}

TEST_P(EnvSweep, AppendAccumulates) {
  std::string path = root_ + "/log";
  ASSERT_OK(env_->AppendToFile(path, AsBytes("one;")));
  ASSERT_OK(env_->AppendToFile(path, AsBytes("two;")));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> data, env_->ReadFile(path));
  EXPECT_EQ(std::string(data.begin(), data.end()), "one;two;");
}

TEST_P(EnvSweep, EmptyFileRoundTrip) {
  std::string path = root_ + "/empty";
  ASSERT_OK(env_->WriteFile(path, {}));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> data, env_->ReadFile(path));
  EXPECT_TRUE(data.empty());
}

TEST_P(EnvSweep, MissingFileIsNotFound) {
  EXPECT_TRUE(env_->ReadFile(root_ + "/missing").status().IsNotFound());
  EXPECT_FALSE(env_->FileExists(root_ + "/missing").ValueOrDie());
}

// Both Envs report a missing path to FileSize as NotFound, so FileStore's
// OpenStream surfaces NotFound exactly like Get without a second probe.
TEST_P(EnvSweep, MissingFileSizeIsNotFound) {
  EXPECT_TRUE(env_->FileSize(root_ + "/missing").status().IsNotFound());
  FileStore store(env_, root_ + "/store");
  ASSERT_OK(store.Open());
  EXPECT_TRUE(store.OpenStream("missing").status().IsNotFound());
  EXPECT_TRUE(store.Get("missing").status().IsNotFound());
}

TEST_P(EnvSweep, FileSizeAndExists) {
  std::string path = root_ + "/sized";
  ASSERT_OK(env_->WriteFile(path, AsBytes("12345")));
  EXPECT_TRUE(env_->FileExists(path).ValueOrDie());
  EXPECT_EQ(env_->FileSize(path).ValueOrDie(), 5u);
}

TEST_P(EnvSweep, ReadFileRange) {
  std::string path = root_ + "/ranged";
  ASSERT_OK(env_->WriteFile(path, AsBytes("0123456789")));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> mid, env_->ReadFileRange(path, 3, 4));
  EXPECT_EQ(std::string(mid.begin(), mid.end()), "3456");
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> all, env_->ReadFileRange(path, 0, 10));
  EXPECT_EQ(all.size(), 10u);
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> none, env_->ReadFileRange(path, 5, 0));
  EXPECT_TRUE(none.empty());
}

TEST_P(EnvSweep, ReadFileRangePastEndFails) {
  std::string path = root_ + "/ranged2";
  ASSERT_OK(env_->WriteFile(path, AsBytes("abc")));
  EXPECT_TRUE(env_->ReadFileRange(path, 2, 5).status().IsOutOfRange());
  EXPECT_TRUE(env_->ReadFileRange(root_ + "/missing", 0, 1).status().IsNotFound());
}

// The unified ReadFileRange contract (env.h): bounds are checked overflow-
// safely, so an `offset + length` that wraps uint64 is OutOfRange instead
// of slipping past the end check.
TEST_P(EnvSweep, ReadFileRangeOverflowSafeBounds) {
  std::string path = root_ + "/ranged3";
  ASSERT_OK(env_->WriteFile(path, AsBytes("abc")));
  const uint64_t huge = std::numeric_limits<uint64_t>::max();
  EXPECT_TRUE(env_->ReadFileRange(path, huge, 2).status().IsOutOfRange());
  EXPECT_TRUE(env_->ReadFileRange(path, 2, huge).status().IsOutOfRange());
  EXPECT_TRUE(env_->ReadFileRange(path, huge, huge).status().IsOutOfRange());
  EXPECT_TRUE(env_->ReadFileRange(path, huge - 1, 2).status().IsOutOfRange());
}

// Zero-length reads succeed at every offset <= size — including exactly at
// EOF, which is what a StreamFile that consumed the whole file relies on —
// while offset > size is OutOfRange even when length == 0.
TEST_P(EnvSweep, ReadFileRangeZeroLengthContract) {
  std::string path = root_ + "/ranged4";
  ASSERT_OK(env_->WriteFile(path, AsBytes("abc")));
  for (uint64_t offset : {0u, 1u, 3u}) {
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> none,
                         env_->ReadFileRange(path, offset, 0));
    EXPECT_TRUE(none.empty()) << "offset " << offset;
  }
  EXPECT_TRUE(env_->ReadFileRange(path, 4, 0).status().IsOutOfRange());
  std::string empty_path = root_ + "/ranged-empty";
  ASSERT_OK(env_->WriteFile(empty_path, {}));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> none,
                       env_->ReadFileRange(empty_path, 0, 0));
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(env_->ReadFileRange(empty_path, 1, 0).status().IsOutOfRange());
}

// A multi-MiB file round-trips byte-exact through one ReadFile and through
// back-to-back ReadFileRange windows (an odd window size, so the last one
// is short), the access pattern of a StreamFile.
TEST_P(EnvSweep, LargeFileRoundTripsWholeAndWindowed) {
  std::vector<uint8_t> payload(3 * 1024 * 1024 + 12345);
  Rng rng(/*seed=*/41);
  for (uint8_t& b : payload) b = static_cast<uint8_t>(rng.NextBounded(256));
  std::string path = root_ + "/large";
  ASSERT_OK(env_->WriteFile(path, payload));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> whole, env_->ReadFile(path));
  EXPECT_TRUE(whole == payload);

  const uint64_t window = 256 * 1024 + 7;
  std::vector<uint8_t> windowed;
  for (uint64_t offset = 0; offset < payload.size(); offset += window) {
    const uint64_t take = std::min<uint64_t>(window, payload.size() - offset);
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> piece,
                         env_->ReadFileRange(path, offset, take));
    ASSERT_EQ(piece.size(), take);
    windowed.insert(windowed.end(), piece.begin(), piece.end());
  }
  EXPECT_TRUE(windowed == payload);
}

// A directory is never read as a file: both reads fail rather than return
// bytes, whatever the range.
TEST_P(EnvSweep, ReadingADirectoryFails) {
  std::string dir = root_ + "/dir";
  ASSERT_OK(env_->CreateDirs(dir));
  ASSERT_OK(env_->WriteFile(dir + "/inside", AsBytes("x")));
  EXPECT_FALSE(env_->ReadFile(dir).ok());
  EXPECT_FALSE(env_->ReadFileRange(dir, 0, 0).ok());
  EXPECT_FALSE(env_->ReadFileRange(dir, 0, 1).ok());
}

TEST_P(EnvSweep, DeleteRemoves) {
  std::string path = root_ + "/gone";
  ASSERT_OK(env_->WriteFile(path, AsBytes("x")));
  ASSERT_OK(env_->DeleteFile(path));
  EXPECT_FALSE(env_->FileExists(path).ValueOrDie());
}

TEST_P(EnvSweep, ListDirSortsNames) {
  ASSERT_OK(env_->WriteFile(root_ + "/b", AsBytes("1")));
  ASSERT_OK(env_->WriteFile(root_ + "/a", AsBytes("2")));
  ASSERT_OK(env_->WriteFile(root_ + "/c", AsBytes("3")));
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> names, env_->ListDir(root_));
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "c"}));
}

INSTANTIATE_TEST_SUITE_P(Envs, EnvSweep,
                         ::testing::Values(EnvKind::kPosix, EnvKind::kInMemory));

TEST(FaultInjectionEnvTest, FailsScheduledWrites) {
  InMemoryEnv base;
  FaultInjectionEnv env(&base);
  env.FailWritesAfter(2);
  EXPECT_OK(env.WriteFile("/a", AsBytes("1")));
  EXPECT_OK(env.WriteFile("/b", AsBytes("2")));
  EXPECT_TRUE(env.WriteFile("/c", AsBytes("3")).IsIOError());
  EXPECT_TRUE(env.AppendToFile("/d", AsBytes("4")).IsIOError());
  env.Heal();
  EXPECT_OK(env.WriteFile("/e", AsBytes("5")));
  EXPECT_EQ(env.write_count(), 5);
}

// The decorator inherits the ranged-read contract from its base env, so
// fault-injection sweeps exercise exactly the semantics production sees.
TEST(FaultInjectionEnvTest, RangeContractPassesThrough) {
  InMemoryEnv base;
  FaultInjectionEnv env(&base);
  ASSERT_OK(base.CreateDirs("/mem"));
  ASSERT_OK(env.WriteFile("/mem/f", AsBytes("abc")));
  const uint64_t huge = std::numeric_limits<uint64_t>::max();
  EXPECT_TRUE(env.ReadFileRange("/mem/f", huge, 2).status().IsOutOfRange());
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> none,
                       env.ReadFileRange("/mem/f", 3, 0));
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(env.ReadFileRange("/mem/f", 4, 0).status().IsOutOfRange());
}

// ---------------------------------------------------------------------------
// FileStore

TEST(FileStoreTest, PutGetRoundTrip) {
  InMemoryEnv env;
  FileStore store(&env, "/store");
  ASSERT_OK(store.Open());
  ASSERT_OK(store.PutString("blob", "payload"));
  EXPECT_EQ(store.GetString("blob").ValueOrDie(), "payload");
  EXPECT_TRUE(store.Exists("blob").ValueOrDie());
  EXPECT_FALSE(store.Exists("other").ValueOrDie());
}

TEST(FileStoreTest, RejectsBadNames) {
  InMemoryEnv env;
  FileStore store(&env, "/store");
  ASSERT_OK(store.Open());
  EXPECT_TRUE(store.PutString("", "x").IsInvalidArgument());
  EXPECT_TRUE(store.PutString("a/b", "x").IsInvalidArgument());
  EXPECT_TRUE(store.Get("../escape").status().IsInvalidArgument());
}

TEST(FileStoreTest, TracksStats) {
  InMemoryEnv env;
  FileStore store(&env, "/store");
  ASSERT_OK(store.Open());
  ASSERT_OK(store.PutString("a", "12345"));
  ASSERT_OK(store.PutString("b", "123"));
  store.Get("a").ValueOrDie();
  EXPECT_EQ(store.stats().write_ops, 2u);
  EXPECT_EQ(store.stats().bytes_written, 8u);
  EXPECT_EQ(store.stats().read_ops, 1u);
  EXPECT_EQ(store.stats().bytes_read, 5u);
  store.ResetStats();
  EXPECT_EQ(store.stats().write_ops, 0u);
}

TEST(FileStoreTest, ChargesLatencyToSimulatedClock) {
  InMemoryEnv env;
  SimulatedClock clock;
  StoreLatencyModel latency{1000, 2.0};  // 1 us + 2 ns/B
  FileStore store(&env, "/store", latency, &clock);
  ASSERT_OK(store.Open());
  ASSERT_OK(store.PutString("a", std::string(500, 'x')));
  EXPECT_EQ(clock.nanos(), 1000u + 1000u);
  store.Get("a").ValueOrDie();
  EXPECT_EQ(clock.nanos(), 2u * 2000u);
}

TEST(FileStoreTest, GetRangeAndSize) {
  InMemoryEnv env;
  SimulatedClock clock;
  FileStore store(&env, "/store", {1000, 1.0}, &clock);
  ASSERT_OK(store.Open());
  ASSERT_OK(store.PutString("blob", "abcdefghij"));
  EXPECT_EQ(store.Size("blob").ValueOrDie(), 10u);
  uint64_t before = clock.nanos();
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> range, store.GetRange("blob", 2, 3));
  EXPECT_EQ(std::string(range.begin(), range.end()), "cde");
  // Ranged reads are charged only for the bytes moved.
  EXPECT_EQ(clock.nanos() - before, 1000u + 3u);
  EXPECT_TRUE(store.GetRange("blob", 8, 5).status().IsOutOfRange());
}

// OpenStream is cost-model-equivalent to Get: one read op and the full
// byte count charged at open, no extra charge per window — so flipping a
// read path between the two leaves StoreStats and the simulated clock
// identical.
TEST(FileStoreTest, OpenStreamMatchesGetAccounting) {
  InMemoryEnv env;
  SimulatedClock clock;
  FileStore store(&env, "/store", {1000, 2.0}, &clock);
  ASSERT_OK(store.Open());
  std::string payload(1000, 'x');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + i % 26);
  }
  ASSERT_OK(store.PutString("blob", payload));

  StoreStats before = store.stats();
  uint64_t nanos_before = clock.nanos();
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> whole, store.Get("blob"));
  StoreStats get_delta = store.stats() - before;
  uint64_t get_nanos = clock.nanos() - nanos_before;

  before = store.stats();
  nanos_before = clock.nanos();
  ASSERT_OK_AND_ASSIGN(StreamFile stream, store.OpenStream("blob", 64));
  EXPECT_EQ(stream.size(), payload.size());
  std::vector<uint8_t> streamed;
  while (!stream.done()) {
    ASSERT_OK_AND_ASSIGN(std::span<const uint8_t> window, stream.Next());
    EXPECT_LE(window.size(), 64u);
    streamed.insert(streamed.end(), window.begin(), window.end());
  }
  StoreStats stream_delta = store.stats() - before;
  uint64_t stream_nanos = clock.nanos() - nanos_before;

  EXPECT_EQ(streamed, whole);  // windows concatenate bit-exactly
  EXPECT_EQ(stream_delta.read_ops, get_delta.read_ops);
  EXPECT_EQ(stream_delta.bytes_read, get_delta.bytes_read);
  EXPECT_EQ(stream_nanos, get_nanos);

  // A drained stream keeps answering empty windows.
  ASSERT_OK_AND_ASSIGN(std::span<const uint8_t> after_eof, stream.Next());
  EXPECT_TRUE(after_eof.empty());
  // Missing names surface as NotFound, exactly like Get.
  EXPECT_TRUE(store.OpenStream("missing").status().IsNotFound());
  EXPECT_TRUE(store.Get("missing").status().IsNotFound());
}

// A ranged stream is charged like GetRange of its range — one op and the
// range's bytes at open — however much of it the reader then skips, and it
// moves forward only.
TEST(FileStoreTest, RangedOpenStreamChargesLikeGetRange) {
  InMemoryEnv env;
  SimulatedClock clock;
  FileStore store(&env, "/store", {1000, 2.0}, &clock);
  ASSERT_OK(store.Open());
  std::string payload(1000, 'x');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + i % 26);
  }
  ASSERT_OK(store.PutString("blob", payload));

  StoreStats before = store.stats();
  uint64_t nanos_before = clock.nanos();
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> range,
                       store.GetRange("blob", 100, 300));
  StoreStats range_delta = store.stats() - before;
  uint64_t range_nanos = clock.nanos() - nanos_before;

  before = store.stats();
  nanos_before = clock.nanos();
  ASSERT_OK_AND_ASSIGN(StreamFile stream,
                       store.OpenStream("blob", 100, 300, 64));
  EXPECT_EQ(stream.size(), 300u);
  ASSERT_OK(stream.Skip(10));
  ASSERT_OK_AND_ASSIGN(std::span<const uint8_t> piece, stream.Next(5));
  EXPECT_EQ(std::string(piece.begin(), piece.end()), payload.substr(110, 5));
  ASSERT_OK(stream.Skip(200));
  ASSERT_OK_AND_ASSIGN(std::span<const uint8_t> tail, stream.Next());
  EXPECT_EQ(std::string(tail.begin(), tail.end()), payload.substr(315, 64));
  EXPECT_TRUE(stream.Skip(1000).IsOutOfRange());
  StoreStats stream_delta = store.stats() - before;
  EXPECT_EQ(stream_delta.read_ops, range_delta.read_ops);
  EXPECT_EQ(stream_delta.bytes_read, range_delta.bytes_read);
  EXPECT_EQ(clock.nanos() - nanos_before, range_nanos);

  EXPECT_TRUE(store.OpenStream("blob", 900, 101, 64).status().IsOutOfRange());
  EXPECT_TRUE(store.OpenStream("missing", 0, 1, 64).status().IsNotFound());
}

TEST(FileStoreTest, ListsBlobs) {
  InMemoryEnv env;
  FileStore store(&env, "/store");
  ASSERT_OK(store.Open());
  ASSERT_OK(store.PutString("z", "1"));
  ASSERT_OK(store.PutString("a", "2"));
  EXPECT_EQ(store.List().ValueOrDie(), (std::vector<std::string>{"a", "z"}));
  ASSERT_OK(store.Delete("a"));
  EXPECT_EQ(store.List().ValueOrDie(), (std::vector<std::string>{"z"}));
}

// ---------------------------------------------------------------------------
// DocumentStore

JsonValue MakeDoc(const std::string& id, int value) {
  JsonValue doc = JsonValue::Object();
  doc.Set("_id", id);
  doc.Set("value", value);
  return doc;
}

TEST(DocumentStoreTest, InsertGetRoundTrip) {
  InMemoryEnv env;
  DocumentStore store(&env, "/wal");
  ASSERT_OK(store.Open());
  ASSERT_OK(store.Insert("sets", MakeDoc("s1", 7)));
  ASSERT_OK_AND_ASSIGN(JsonValue doc, store.Get("sets", "s1"));
  EXPECT_EQ(doc.GetInt64("value").ValueOrDie(), 7);
}

TEST(DocumentStoreTest, RequiresObjectWithId) {
  InMemoryEnv env;
  DocumentStore store(&env, "/wal");
  ASSERT_OK(store.Open());
  EXPECT_TRUE(store.Insert("c", JsonValue(3)).IsInvalidArgument());
  JsonValue no_id = JsonValue::Object();
  no_id.Set("x", 1);
  EXPECT_TRUE(store.Insert("c", no_id).IsInvalidArgument());
}

TEST(DocumentStoreTest, RejectsDuplicateIds) {
  InMemoryEnv env;
  DocumentStore store(&env, "/wal");
  ASSERT_OK(store.Open());
  ASSERT_OK(store.Insert("c", MakeDoc("dup", 1)));
  EXPECT_TRUE(store.Insert("c", MakeDoc("dup", 2)).IsAlreadyExists());
  // Same id in a different collection is fine.
  EXPECT_OK(store.Insert("d", MakeDoc("dup", 3)));
}

TEST(DocumentStoreTest, GetMissing) {
  InMemoryEnv env;
  DocumentStore store(&env, "/wal");
  ASSERT_OK(store.Open());
  EXPECT_TRUE(store.Get("nope", "x").status().IsNotFound());
  ASSERT_OK(store.Insert("c", MakeDoc("a", 1)));
  EXPECT_TRUE(store.Get("c", "missing").status().IsNotFound());
}

TEST(DocumentStoreTest, FindByFieldEquality) {
  InMemoryEnv env;
  DocumentStore store(&env, "/wal");
  ASSERT_OK(store.Open());
  for (int i = 0; i < 5; ++i) {
    JsonValue doc = MakeDoc("m" + std::to_string(i), i);
    doc.Set("set_id", i < 3 ? "s1" : "s2");
    ASSERT_OK(store.Insert("models", doc));
  }
  ASSERT_OK_AND_ASSIGN(std::vector<JsonValue> found,
                       store.Find("models", "set_id", JsonValue("s1")));
  ASSERT_EQ(found.size(), 3u);
  EXPECT_EQ(found[0].GetString("_id").ValueOrDie(), "m0");
  EXPECT_EQ(found[2].GetString("_id").ValueOrDie(), "m2");
}

TEST(DocumentStoreTest, AllAndCount) {
  InMemoryEnv env;
  DocumentStore store(&env, "/wal");
  ASSERT_OK(store.Open());
  EXPECT_EQ(store.Count("c"), 0u);
  ASSERT_OK(store.Insert("c", MakeDoc("a", 1)));
  ASSERT_OK(store.Insert("c", MakeDoc("b", 2)));
  EXPECT_EQ(store.Count("c"), 2u);
  EXPECT_EQ(store.All("c").ValueOrDie().size(), 2u);
  EXPECT_EQ(store.Collections(), (std::vector<std::string>{"c"}));
}

TEST(DocumentStoreTest, PersistsAcrossReopen) {
  InMemoryEnv env;
  {
    DocumentStore store(&env, "/wal");
    ASSERT_OK(store.Open());
    ASSERT_OK(store.Insert("sets", MakeDoc("s1", 1)));
    ASSERT_OK(store.Insert("models", MakeDoc("m1", 2)));
  }
  DocumentStore reopened(&env, "/wal");
  ASSERT_OK(reopened.Open());
  EXPECT_EQ(reopened.Get("sets", "s1").ValueOrDie().GetInt64("value").ValueOrDie(),
            1);
  EXPECT_EQ(reopened.Count("models"), 1u);
  // Duplicate detection survives reopen.
  EXPECT_TRUE(reopened.Insert("sets", MakeDoc("s1", 9)).IsAlreadyExists());
}

TEST(DocumentStoreTest, TornTailIsDroppedOnRecovery) {
  InMemoryEnv env;
  {
    DocumentStore store(&env, "/wal");
    ASSERT_OK(store.Open());
    ASSERT_OK(store.Insert("c", MakeDoc("a", 1)));
    ASSERT_OK(store.Insert("c", MakeDoc("b", 2)));
  }
  // Simulate a crash mid-append: an incomplete record without a newline.
  std::string torn = R"({"collection":"c","doc":{"_id":"cc","va)";
  ASSERT_OK(env.AppendToFile(
      "/wal", {reinterpret_cast<const uint8_t*>(torn.data()), torn.size()}));
  DocumentStore recovered(&env, "/wal");
  ASSERT_OK(recovered.Open());
  EXPECT_EQ(recovered.Count("c"), 2u);  // torn record dropped
  EXPECT_TRUE(recovered.Get("c", "cc").status().IsNotFound());
  // The store accepts new writes after recovery.
  EXPECT_OK(recovered.Insert("c", MakeDoc("d", 3)));
}

TEST(DocumentStoreTest, MidFileGarbageStillFailsOpen) {
  InMemoryEnv env;
  std::string wal = "garbage line\n";
  JsonValue record = JsonValue::Object();
  record.Set("collection", "c");
  record.Set("doc", MakeDoc("a", 1));
  wal += record.Dump() + "\n";
  ASSERT_OK(env.WriteFile(
      "/wal", {reinterpret_cast<const uint8_t*>(wal.data()), wal.size()}));
  DocumentStore store(&env, "/wal");
  EXPECT_TRUE(store.Open().IsCorruption());
}

TEST(DocumentStoreTest, CompactShrinksWalAndPreservesState) {
  InMemoryEnv env;
  DocumentStore store(&env, "/wal");
  ASSERT_OK(store.Open());
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(store.Insert("c", MakeDoc("d" + std::to_string(i), i)));
  }
  for (int i = 0; i < 15; ++i) {
    ASSERT_OK(store.Remove("c", "d" + std::to_string(i)));
  }
  uint64_t before = store.WalBytes().ValueOrDie();
  ASSERT_OK(store.Compact());
  uint64_t after = store.WalBytes().ValueOrDie();
  EXPECT_LT(after, before / 2);
  EXPECT_EQ(store.Count("c"), 5u);

  // The compacted log reloads to the same state.
  DocumentStore reopened(&env, "/wal");
  ASSERT_OK(reopened.Open());
  EXPECT_EQ(reopened.Count("c"), 5u);
  EXPECT_EQ(reopened.Get("c", "d17").ValueOrDie().GetInt64("value").ValueOrDie(),
            17);
  EXPECT_TRUE(reopened.Get("c", "d3").status().IsNotFound());
}

TEST(DocumentStoreTest, CompactEmptyStoreWritesEmptyWal) {
  InMemoryEnv env;
  DocumentStore store(&env, "/wal");
  ASSERT_OK(store.Open());
  ASSERT_OK(store.Compact());
  EXPECT_EQ(store.WalBytes().ValueOrDie(), 0u);
}

TEST(DocumentStoreTest, CorruptWalFailsOpen) {
  InMemoryEnv env;
  std::string garbage = "not json\n";
  ASSERT_OK(env.WriteFile("/wal", {reinterpret_cast<const uint8_t*>(garbage.data()),
                                   garbage.size()}));
  DocumentStore store(&env, "/wal");
  EXPECT_TRUE(store.Open().IsCorruption());
}

TEST(DocumentStoreTest, ChargesLatencyPerOperation) {
  InMemoryEnv env;
  SimulatedClock clock;
  StoreLatencyModel latency{10000, 0.0};
  DocumentStore store(&env, "/wal", latency, &clock);
  ASSERT_OK(store.Open());
  ASSERT_OK(store.Insert("c", MakeDoc("a", 1)));
  store.Get("c", "a").ValueOrDie();
  EXPECT_EQ(clock.nanos(), 20000u);
}

// Every query charges each document it returns the size of its Dump(),
// whether the document was inserted in this session or replayed from the
// WAL, also after a removal shifted the documents and Compact rewrote the
// log.
TEST(DocumentStoreTest, QueriesChargeEachDocumentsDumpSize) {
  InMemoryEnv env;
  JsonValue replayed = MakeDoc("old", 1);
  replayed.Set("note", "quoted \"text\"\n and a tab\t");
  {
    DocumentStore store(&env, "/wal");
    ASSERT_OK(store.Open());
    ASSERT_OK(store.Insert("c", MakeDoc("gone", 2)));
    ASSERT_OK(store.Insert("c", replayed));
  }
  DocumentStore store(&env, "/wal");
  ASSERT_OK(store.Open());
  JsonValue fresh = MakeDoc("new", 3);
  JsonValue values = JsonValue::Array();
  values.Append(0.25);
  values.Append(-7);
  fresh.Set("values", std::move(values));
  ASSERT_OK(store.Insert("c", fresh));
  ASSERT_OK(store.Remove("c", "gone"));
  ASSERT_OK(store.Compact());

  auto bytes_read = [&store](const auto& query) {
    const uint64_t before = store.stats().bytes_read;
    query();
    return store.stats().bytes_read - before;
  };
  const uint64_t old_bytes = replayed.Dump().size();
  const uint64_t new_bytes = fresh.Dump().size();
  EXPECT_EQ(bytes_read([&] {
              EXPECT_EQ(store.Get("c", "old").ValueOrDie().Dump().size(),
                        old_bytes);
            }),
            old_bytes);
  EXPECT_EQ(bytes_read([&] {
              EXPECT_EQ(store.Get("c", "new").ValueOrDie().Dump().size(),
                        new_bytes);
            }),
            new_bytes);
  EXPECT_EQ(bytes_read([&] {
              EXPECT_EQ(store.Find("c", "value", JsonValue(3)).ValueOrDie()
                            .size(),
                        1u);
            }),
            new_bytes);
  EXPECT_EQ(bytes_read([&] {
              EXPECT_EQ(store.All("c").ValueOrDie().size(), 2u);
            }),
            old_bytes + new_bytes);
}

// ---------------------------------------------------------------------------
// Commit journal size

TEST(CommitJournalTest, FinishingTheLastPendingEntryEmptiesTheLog) {
  InMemoryEnv env;
  const std::string path = "/commit.journal";
  CommitJournal journal(&env, path);
  ASSERT_OK(journal.Open());
  auto begin = [&](const std::string& set_id) {
    return journal.Begin(set_id, "update", {{set_id + ".bin"}}, {});
  };
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK_AND_ASSIGN(uint64_t txn, begin("set-" + std::to_string(i)));
    ASSERT_OK(journal.MarkCommitted(txn));
    ASSERT_OK(journal.MarkFinished(txn));
    ASSERT_OK_AND_ASSIGN(uint64_t size, env.FileSize(path));
    EXPECT_EQ(size, 0u) << "after commit " << i;
  }

  // While an entry is pending, each later finish rewrites the log to that
  // entry's records: the pending entry survives for the next replay and the
  // file does not grow with the commits that finish around it.
  ASSERT_OK_AND_ASSIGN(uint64_t pending, begin("set-pending"));
  ASSERT_OK(journal.MarkCommitted(pending));
  ASSERT_OK_AND_ASSIGN(uint64_t pending_size, env.FileSize(path));
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK_AND_ASSIGN(uint64_t other,
                         begin("set-other-" + std::to_string(i)));
    ASSERT_OK(journal.MarkCommitted(other));
    ASSERT_OK(journal.MarkFinished(other));
    ASSERT_OK_AND_ASSIGN(uint64_t size, env.FileSize(path));
    EXPECT_EQ(size, pending_size) << "after commit " << i;
  }
  CommitJournal reopened(&env, path);
  ASSERT_OK(reopened.Open());
  EXPECT_EQ(reopened.pending_entries(), 1u);
  EXPECT_EQ(reopened.PendingBlobs(),
            std::vector<std::string>{"set-pending.bin"});

  // Draining it empties the log again.
  ASSERT_OK(journal.MarkFinished(pending));
  ASSERT_OK_AND_ASSIGN(uint64_t size, env.FileSize(path));
  EXPECT_EQ(size, 0u);
  EXPECT_EQ(journal.pending_entries(), 0u);
}

TEST(CommitJournalTest, AnEntryNeverFinishedKeepsTheLogAtItsRecords) {
  // A failed save leaves its entry pending for the rest of the process.
  // Later commits must neither grow the log nor lose that entry's intents.
  InMemoryEnv env;
  const std::string path = "/commit.journal";
  CommitJournal journal(&env, path);
  ASSERT_OK(journal.Open());
  ASSERT_OK(journal.Begin("set-failed", "update", {{"failed.bin"}}, {})
                .status());
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> failed_records,
                       env.ReadFile(path));
  for (int i = 0; i < 8; ++i) {
    std::string set_id = "set-" + std::to_string(i);
    ASSERT_OK_AND_ASSIGN(uint64_t txn,
                         journal.Begin(set_id, "update", {{set_id + ".bin"}},
                                       {}));
    ASSERT_OK(journal.MarkCommitted(txn));
    ASSERT_OK(journal.MarkFinished(txn));
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> log, env.ReadFile(path));
    EXPECT_EQ(log, failed_records) << "after commit " << i;
  }

  CommitJournal reopened(&env, path);
  ASSERT_OK(reopened.Open());
  EXPECT_EQ(reopened.pending_entries(), 1u);
  EXPECT_EQ(reopened.PendingBlobs(), std::vector<std::string>{"failed.bin"});
}

TEST(CommitJournalTest, ReplaysALogWithCrcsInItsBeginRecords) {
  // Logs written before blob CRCs moved to the commit record carry each
  // blob's CRC in `begin` and a bare `commit` mark. Such a log still
  // replays: an entry without a commit mark is rolled back by name, and a
  // committed one is rolled forward, its blobs checked against the CRCs
  // its `begin` declared.
  InMemoryEnv env;
  FileStore files(&env, "/blobs");
  ASSERT_OK(files.Open());
  DocumentStore docs(&env, "/docs.wal");
  ASSERT_OK(docs.Open());
  const std::vector<uint8_t> rolled = {1, 2, 3};
  const std::vector<uint8_t> kept = {4, 5, 6, 7};
  const std::vector<uint8_t> damaged = {8, 9};
  ASSERT_OK(files.Put("rolled.bin", rolled));
  ASSERT_OK(files.Put("kept.bin", kept));
  ASSERT_OK(files.Put("damaged.bin", damaged));
  const auto crc = [](const std::vector<uint8_t>& bytes) {
    return std::to_string(Crc32::Compute(bytes));
  };
  const std::string log =
      R"({"txn":1,"state":"begin","set_id":"set-r","approach":"baseline",)"
      R"("blobs":[{"name":"rolled.bin","crc":)" + crc(rolled) + "}],"
      R"("docs":[{"collection":"sets","doc":{"_id":"set-r"}}]})" "\n"
      R"({"txn":2,"state":"begin","set_id":"set-k","approach":"baseline",)"
      R"("blobs":[{"name":"kept.bin","crc":)" + crc(kept) + "}],"
      R"("docs":[{"collection":"sets","doc":{"_id":"set-k"}}]})" "\n"
      R"({"txn":2,"state":"commit"})" "\n"
      R"({"txn":3,"state":"begin","set_id":"set-d","approach":"baseline",)"
      R"("blobs":[{"name":"damaged.bin","crc":)" + crc(kept) + "}],"
      R"("docs":[{"collection":"sets","doc":{"_id":"set-d"}}]})" "\n"
      R"({"txn":3,"state":"commit"})" "\n";
  ASSERT_OK(env.WriteFile(
      "/commit.journal",
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(log.data()),
                               log.size())));

  CommitJournal journal(&env, "/commit.journal");
  ASSERT_OK(journal.Open());
  EXPECT_EQ(journal.pending_entries(), 3u);
  ASSERT_OK_AND_ASSIGN(RepairReport report, journal.Replay(&files, &docs));
  EXPECT_EQ(report.rolled_back, 1u);
  EXPECT_EQ(report.completed, 2u);
  EXPECT_EQ(report.docs_inserted, 2u);
  EXPECT_FALSE(files.Exists("rolled.bin").ValueOrDie());
  EXPECT_TRUE(files.Exists("kept.bin").ValueOrDie());
  EXPECT_TRUE(docs.Get("sets", "set-k").ok());
  EXPECT_FALSE(docs.Get("sets", "set-r").ok());
  ASSERT_EQ(report.problems.size(), 1u);
  EXPECT_NE(report.problems[0].find("damaged.bin"), std::string::npos)
      << report.problems[0];
  EXPECT_NE(report.problems[0].find("journaled crc"), std::string::npos);
}

TEST(CommitJournalTest, CommitRecordCarriesTheCrcsOfTheBlobsThatLanded) {
  // Today's records: `begin` names blobs, `commit` lists those that landed
  // with their CRCs. A declared blob that never landed (a CAS commit's
  // unused pack name) is not checked on roll-forward.
  InMemoryEnv env;
  FileStore files(&env, "/blobs");
  ASSERT_OK(files.Open());
  DocumentStore docs(&env, "/docs.wal");
  ASSERT_OK(docs.Open());
  const std::vector<uint8_t> landed = {1, 2, 3};
  ASSERT_OK(files.Put("landed.bin", landed));
  {
    CommitJournal journal(&env, "/commit.journal");
    ASSERT_OK(journal.Open());
    JsonValue doc = JsonValue::Object();
    doc.Set("_id", "set-1");
    ASSERT_OK_AND_ASSIGN(
        uint64_t txn,
        journal.Begin("set-1", "baseline", {{"pack-unused"}, {"landed.bin"}},
                      {{"sets", doc}}));
    ASSERT_OK(journal.MarkCommitted(
        txn, {{"landed.bin", Crc32::Compute(landed)}}));
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> raw,
                         env.ReadFile("/commit.journal"));
    const std::string text(raw.begin(), raw.end());
    const size_t newline = text.find('\n');
    ASSERT_NE(newline, std::string::npos);
    const std::string begin = text.substr(0, newline);
    const std::string commit = text.substr(newline + 1);
    EXPECT_EQ(begin.find("\"crc\""), std::string::npos) << begin;
    EXPECT_NE(commit.find("\"crc\""), std::string::npos) << commit;
    EXPECT_EQ(commit.find("pack-unused"), std::string::npos) << commit;
  }
  // The process stopped before the document landed: replay rolls forward.
  CommitJournal journal(&env, "/commit.journal");
  ASSERT_OK(journal.Open());
  ASSERT_OK_AND_ASSIGN(RepairReport report, journal.Replay(&files, &docs));
  EXPECT_TRUE(report.clean()) << report.problems.front();
  EXPECT_EQ(report.completed, 1u);
  EXPECT_TRUE(docs.Get("sets", "set-1").ok());
}

TEST(StoreStatsTest, Arithmetic) {
  StoreStats a{10, 5, 100, 50};
  StoreStats b{4, 2, 40, 20};
  StoreStats diff = a - b;
  EXPECT_EQ(diff.write_ops, 6u);
  EXPECT_EQ(diff.bytes_read, 30u);
  StoreStats sum = a + b;
  EXPECT_EQ(sum.write_ops, 14u);
  EXPECT_EQ(sum.bytes_written, 140u);
}

}  // namespace
}  // namespace mmm
