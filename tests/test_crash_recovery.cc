// Exhaustive crash-point sweep of every approach's save path.
//
// For each approach and lane count, a probe world first runs the whole
// workload against a healed FaultInjectionEnv to learn how many env writes
// each save issues. The sweep then re-runs the workload in a fresh world per
// write index k, arms the fault so the k-th write of the target save (and
// everything after it) fails, and asserts the crash contract after reopening:
//
//  - the journal replay reports a clean repair,
//  - the store validates and has no orphan blobs (fsck-clean),
//  - every previously saved set still recovers bit-exactly,
//  - the interrupted save either vanished completely (rollback) or recovers
//    bit-exactly (commit) — never a set with wrong bytes.
//
// Because FaultInjectionEnv numbers batched writes in staging order (see
// WriteOrderGroup in storage/env.h), the sweep is deterministic and the
// write counts are identical at lanes=1 and lanes=4.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "cas/manifest.h"
#include "cas/pack.h"
#include "core/gc.h"
#include "core/inspect.h"
#include "core/manager.h"
#include "core/mmlib_base.h"
#include "fleet/plan.h"
#include "fleet/simulator.h"
#include "tests/test_util.h"
#include "workload/scenario.h"

namespace mmm {
namespace {

ScenarioConfig SweepScenario() {
  // 4 models, half fully and a quarter partially retrained per cycle, with a
  // tiny training load: big enough that every save stages several blobs,
  // small enough that a sweep world costs milliseconds.
  ScenarioConfig config = ScenarioConfig::Battery(4);
  config.full_update_fraction = 0.5;
  config.partial_update_fraction = 0.25;
  config.samples_per_dataset = 32;
  return config;
}

/// One isolated store universe: scenario + fault-injected in-memory env +
/// manager. Worlds with the same seed config replay bit-identical workloads.
struct World {
  World() : fault(&base) {}

  Status Open(ApproachType type, size_t lanes) {
    approach = type;
    scenario = std::make_unique<MultiModelScenario>(config);
    MMM_RETURN_NOT_OK(scenario->Init());
    return Reopen(lanes);
  }

  /// Opens a fresh manager over the same env (journal replay runs here).
  Status Reopen(size_t lanes) {
    manager.reset();
    ModelSetManager::Options options;
    options.root_dir = "/store";
    options.env = &fault;
    options.resolver = scenario.get();
    options.pipeline.lanes = lanes;
    options.cas = cas;
    MMM_ASSIGN_OR_RETURN(manager, ModelSetManager::Open(options));
    return Status::OK();
  }

  Result<SaveResult> SaveInitial() {
    return manager->SaveInitial(approach, scenario->current_set());
  }

  Result<SaveResult> SaveDerived(const std::string& base_id,
                                 const ModelSetUpdateInfo& update) {
    ModelSetUpdateInfo derived = update;
    derived.base_set_id = base_id;
    return manager->SaveDerived(approach, scenario->current_set(), derived);
  }

  InMemoryEnv base;
  FaultInjectionEnv fault;
  ScenarioConfig config = SweepScenario();
  ApproachType approach;
  /// Off by default (the seed contract); CAS sweeps turn it on before Open.
  CasOptions cas;
  std::unique_ptr<MultiModelScenario> scenario;
  std::unique_ptr<ModelSetManager> manager;
};

void ExpectSetEquals(const ModelSet& recovered, const ModelSet& expected,
                     const std::string& label) {
  ASSERT_EQ(recovered.models.size(), expected.models.size()) << label;
  ASSERT_EQ(recovered.spec, expected.spec) << label;
  for (size_t m = 0; m < recovered.models.size(); ++m) {
    ASSERT_EQ(recovered.models[m].size(), expected.models[m].size()) << label;
    for (size_t p = 0; p < recovered.models[m].size(); ++p) {
      ASSERT_EQ(recovered.models[m][p].first, expected.models[m][p].first)
          << label;
      ASSERT_TRUE(
          recovered.models[m][p].second.Equals(expected.models[m][p].second))
          << label << ": model " << m << " param "
          << recovered.models[m][p].first;
    }
  }
}

/// The in-process fsck: journal repair clean, store validates, no orphans.
void ExpectStoreConsistent(World* world, const std::string& label) {
  const RepairReport& repair = world->manager->repair_report();
  EXPECT_TRUE(repair.clean()) << label << ": " << repair.problems.size()
                              << " repair problem(s), first: "
                              << (repair.problems.empty()
                                      ? ""
                                      : repair.problems.front());
  ASSERT_OK_AND_ASSIGN(StoreValidationReport validation,
                       world->manager->ValidateStore());
  EXPECT_TRUE(validation.ok())
      << label << ": "
      << (validation.problems.empty() ? "" : validation.problems.front());
  ASSERT_OK_AND_ASSIGN(OrphanReport orphans,
                       FindOrphanBlobs(world->manager->context()));
  EXPECT_TRUE(orphans.clean())
      << label << ": "
      << (orphans.clean() ? "" : orphans.orphan_blobs.front());
}

/// Asserts the interrupted save either fully vanished or fully committed.
void ExpectRollbackOrCommit(World* world, const std::string& set_id,
                            const ModelSet& expected,
                            const std::string& label) {
  auto doc = world->manager->doc_store()->Get(kSetCollection, set_id);
  if (!doc.ok()) {
    // Rollback: the set must be completely gone — FindOrphanBlobs (run by
    // ExpectStoreConsistent) already proved no blob of it survived.
    EXPECT_TRUE(doc.status().IsNotFound()) << label << ": " << doc.status();
    return;
  }
  // Commit: the set must recover bit-exactly.
  ASSERT_OK_AND_ASSIGN(ModelSet recovered, world->manager->Recover(set_id));
  ExpectSetEquals(recovered, expected, label + " (committed)");
}

struct ProbeCounts {
  int64_t before_initial = 0;
  int64_t initial_writes = 0;
  int64_t before_derived = 0;
  int64_t derived_writes = 0;
  std::string initial_id;
  std::string derived_id;
};

/// Runs the whole workload healed and records per-save write counts.
ProbeCounts Probe(ApproachType type, size_t lanes) {
  ProbeCounts counts;
  World world;
  world.Open(type, lanes).Check();
  counts.before_initial = world.fault.write_count();
  auto initial = world.SaveInitial();
  initial.status().Check();
  counts.initial_id = initial.ValueOrDie().set_id;
  counts.initial_writes = world.fault.write_count() - counts.before_initial;

  auto update = world.scenario->AdvanceCycle();
  update.status().Check();
  counts.before_derived = world.fault.write_count();
  auto derived = world.SaveDerived(counts.initial_id, update.ValueOrDie());
  derived.status().Check();
  counts.derived_id = derived.ValueOrDie().set_id;
  counts.derived_writes = world.fault.write_count() - counts.before_derived;
  return counts;
}

class CrashSweep : public ::testing::TestWithParam<ApproachType> {};

TEST_P(CrashSweep, WriteCountsAreLaneInvariant) {
  // The staging-order write numbering is what makes the sweep meaningful at
  // lanes>1: the same fault index must denote the same logical write.
  ProbeCounts serial = Probe(GetParam(), 1);
  ProbeCounts parallel = Probe(GetParam(), 4);
  EXPECT_EQ(serial.initial_writes, parallel.initial_writes);
  EXPECT_EQ(serial.derived_writes, parallel.derived_writes);
  EXPECT_EQ(serial.initial_id, parallel.initial_id);
  EXPECT_EQ(serial.derived_id, parallel.derived_id);
  EXPECT_GE(serial.initial_writes, 4);  // begin + blobs + commit + doc + finish
}

TEST_P(CrashSweep, EveryCrashPointOfInitialSaveRecovers) {
  for (size_t lanes : {size_t{1}, size_t{4}}) {
    ProbeCounts probe = Probe(GetParam(), lanes);
    for (int64_t k = 0; k < probe.initial_writes; ++k) {
      std::string label = ApproachTypeName(GetParam()) + " lanes=" +
                          std::to_string(lanes) + " initial crash@" +
                          std::to_string(k);
      World world;
      ASSERT_OK(world.Open(GetParam(), lanes));
      ASSERT_EQ(world.fault.write_count(), probe.before_initial) << label;
      world.fault.FailWritesAfter(probe.before_initial + k);
      EXPECT_FALSE(world.SaveInitial().ok()) << label;
      world.fault.Heal();
      ASSERT_OK(world.Reopen(lanes));
      ExpectStoreConsistent(&world, label);
      ExpectRollbackOrCommit(&world, probe.initial_id,
                             world.scenario->current_set(), label);
    }
  }
}

TEST_P(CrashSweep, EveryCrashPointOfDerivedSavePreservesBase) {
  for (size_t lanes : {size_t{1}, size_t{4}}) {
    ProbeCounts probe = Probe(GetParam(), lanes);
    for (int64_t k = 0; k < probe.derived_writes; ++k) {
      std::string label = ApproachTypeName(GetParam()) + " lanes=" +
                          std::to_string(lanes) + " derived crash@" +
                          std::to_string(k);
      World world;
      ASSERT_OK(world.Open(GetParam(), lanes));
      ASSERT_OK(world.SaveInitial().status());
      ModelSet initial_state = world.scenario->current_set();  // deep copy
      ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update,
                           world.scenario->AdvanceCycle());
      ASSERT_EQ(world.fault.write_count(), probe.before_derived) << label;
      world.fault.FailWritesAfter(probe.before_derived + k);
      EXPECT_FALSE(world.SaveDerived(probe.initial_id, update).ok()) << label;
      world.fault.Heal();
      ASSERT_OK(world.Reopen(lanes));
      ExpectStoreConsistent(&world, label);
      // The base set must have survived the crash untouched.
      ASSERT_OK_AND_ASSIGN(ModelSet base_recovered,
                           world.manager->Recover(probe.initial_id));
      ExpectSetEquals(base_recovered, initial_state, label + " (base)");
      ExpectRollbackOrCommit(&world, probe.derived_id,
                             world.scenario->current_set(), label);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllApproaches, CrashSweep,
                         ::testing::Values(ApproachType::kMMlibBase,
                                           ApproachType::kBaseline,
                                           ApproachType::kUpdate,
                                           ApproachType::kProvenance),
                         [](const auto& info) {
                           std::string name = ApproachTypeName(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// ---------------------------------------------------------------------------
// Multi-window sweep: a param blob several write windows long reaches the
// Env as one WriteFile and then AppendToFile calls (FileStore's
// BlobWriteStream), so a crash can leave a blob, or a CAS pack, cut off
// after any window. Each such point must roll back or commit like any
// other, and the numbering of (blob, window) writes must not depend on the
// lane count.

struct MultiWindowCase {
  ApproachType approach;
  bool cas;
};

class MultiWindowCrashSweep
    : public ::testing::TestWithParam<MultiWindowCase> {
 protected:
  static Status OpenWorld(World* world, size_t lanes) {
    // 110 FFNN-48 models: a 2.2 MB param blob, three write windows.
    world->config = ScenarioConfig::Battery(110);
    world->config.samples_per_dataset = 16;
    world->cas.enabled = GetParam().cas;
    return world->Open(GetParam().approach, lanes);
  }

  static std::string Label(size_t lanes, int64_t k) {
    return ApproachTypeName(GetParam().approach) +
           (GetParam().cas ? " cas" : "") + " lanes=" + std::to_string(lanes) +
           " crash@" + std::to_string(k);
  }
};

TEST_P(MultiWindowCrashSweep, EveryCrashPointOfAMultiWindowSaveRecovers) {
  std::map<size_t, int64_t> writes_at;
  // lanes -> crash point -> blob -> bytes on disk right after the crash.
  std::map<size_t, std::map<int64_t, std::map<std::string, uint64_t>>> left;
  for (size_t lanes : {size_t{1}, size_t{4}}) {
    World probe;
    ASSERT_OK(OpenWorld(&probe, lanes));
    const int64_t before = probe.fault.write_count();
    ASSERT_OK_AND_ASSIGN(SaveResult saved, probe.SaveInitial());
    const int64_t writes = probe.fault.write_count() - before;
    writes_at[lanes] = writes;
    // begin, >= 3 windows of the param blob (or pack), the other blobs,
    // commit, document, finish.
    ASSERT_GE(writes, 7) << Label(lanes, -1);

    for (int64_t k = 0; k < writes; ++k) {
      const std::string label = Label(lanes, k);
      World world;
      ASSERT_OK(OpenWorld(&world, lanes));
      ASSERT_EQ(world.fault.write_count(), before) << label;
      world.fault.FailWritesAfter(before + k);
      EXPECT_FALSE(world.SaveInitial().ok()) << label;
      world.fault.Heal();
      const std::string root = world.manager->file_store()->root();
      for (const std::string& name : world.base.ListDir(root).ValueOrDie()) {
        left[lanes][k][name] =
            world.base.FileSize(root + "/" + name).ValueOrDie();
      }
      ASSERT_OK(world.Reopen(lanes));
      ExpectStoreConsistent(&world, label);
      ExpectRollbackOrCommit(&world, saved.set_id,
                             world.scenario->current_set(), label);
    }
  }
  EXPECT_EQ(writes_at[1], writes_at[4]);
  // The same fault index cut the same (blob, window) at either lane count.
  EXPECT_TRUE(left[1] == left[4]);
}

INSTANTIATE_TEST_SUITE_P(
    Snapshots, MultiWindowCrashSweep,
    ::testing::Values(MultiWindowCase{ApproachType::kUpdate, false},
                      MultiWindowCase{ApproachType::kBaseline, true}),
    [](const auto& info) {
      return ApproachTypeName(info.param.approach) +
             (info.param.cas ? "_cas" : "_raw");
    });

// ---------------------------------------------------------------------------
// CAS crash sweep: with the content-addressed chunk store on, a save stages
// one pack of new chunks + a manifest instead of one verbatim blob, and the
// derived save dedups against the base's chunks. Crashing at every write
// must leave the refcount index consistent with the store (CasStore::Audit
// runs inside ValidateStore), the base recoverable from the base's pack the
// rollback must not touch, and no orphaned pack behind (replay rolls back
// the pack of a commit that never reached its commit mark).

CasOptions SweepCasOptions() {
  // Chunks small enough that the 4-model battery blobs split into several
  // chunks (so crashes land between chunk writes), big enough to keep the
  // per-point write count — and so the sweep's cost — bounded.
  CasOptions cas;
  cas.enabled = true;
  cas.min_chunk_bytes = 256;
  cas.avg_chunk_bytes = 1024;
  cas.max_chunk_bytes = 4096;
  cas.min_blob_bytes = 512;
  return cas;
}

/// Probe twin of Probe() with CAS enabled.
ProbeCounts ProbeCas(ApproachType type, size_t lanes) {
  ProbeCounts counts;
  World world;
  world.cas = SweepCasOptions();
  world.Open(type, lanes).Check();
  counts.before_initial = world.fault.write_count();
  auto initial = world.SaveInitial();
  initial.status().Check();
  counts.initial_id = initial.ValueOrDie().set_id;
  counts.initial_writes = world.fault.write_count() - counts.before_initial;
  // The sweep is vacuous unless the save actually chunked something.
  if (world.manager->cas()->ManifestNames().empty()) {
    Status::Internal("CAS probe save produced no manifests").Check();
  }

  auto update = world.scenario->AdvanceCycle();
  update.status().Check();
  counts.before_derived = world.fault.write_count();
  auto derived = world.SaveDerived(counts.initial_id, update.ValueOrDie());
  derived.status().Check();
  counts.derived_id = derived.ValueOrDie().set_id;
  counts.derived_writes = world.fault.write_count() - counts.before_derived;
  return counts;
}

class CasCrashSweep : public ::testing::TestWithParam<ApproachType> {};

TEST_P(CasCrashSweep, EveryCrashPointKeepsChunkRefcountsConsistent) {
  for (size_t lanes : {size_t{1}, size_t{4}}) {
    ProbeCounts probe = ProbeCas(GetParam(), lanes);
    ASSERT_GT(probe.derived_writes, 0) << "probe saved nothing";
    for (int64_t k = 0; k < probe.derived_writes; ++k) {
      std::string label = ApproachTypeName(GetParam()) + " cas lanes=" +
                          std::to_string(lanes) + " derived crash@" +
                          std::to_string(k);
      World world;
      world.cas = SweepCasOptions();
      ASSERT_OK(world.Open(GetParam(), lanes));
      ASSERT_OK(world.SaveInitial().status());
      ModelSet initial_state = world.scenario->current_set();  // deep copy
      ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update,
                           world.scenario->AdvanceCycle());
      ASSERT_EQ(world.fault.write_count(), probe.before_derived) << label;
      world.fault.FailWritesAfter(probe.before_derived + k);
      EXPECT_FALSE(world.SaveDerived(probe.initial_id, update).ok()) << label;
      world.fault.Heal();
      ASSERT_OK(world.Reopen(lanes));
      ASSERT_NE(world.manager->cas(), nullptr) << label;
      // ValidateStore runs CasStore::Audit: refcounts == live manifest refs,
      // every referenced chunk in a pack with matching hash; FindOrphanBlobs
      // proves no untracked pack survived the reopen.
      ExpectStoreConsistent(&world, label);
      // The base's chunks survived the rollback (shared-chunk safety).
      ASSERT_OK_AND_ASSIGN(ModelSet base_recovered,
                           world.manager->Recover(probe.initial_id));
      ExpectSetEquals(base_recovered, initial_state, label + " (base)");
      ExpectRollbackOrCommit(&world, probe.derived_id,
                             world.scenario->current_set(), label);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllApproaches, CasCrashSweep,
                         ::testing::Values(ApproachType::kMMlibBase,
                                           ApproachType::kBaseline,
                                           ApproachType::kUpdate,
                                           ApproachType::kProvenance),
                         [](const auto& info) {
                           std::string name = ApproachTypeName(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// Pack-repack and migration crash sweeps. A GC whose sweep leaves the
// older snapshot's pack under half live repacks it (one journaled pack
// write); an open over a store in the per-chunk-file layout packs the chunk
// files (one journaled commit that writes the pack and deletes the files).
// Crashing at every write of either must leave a store that reopens
// fsck-clean, with every surviving set bit-exact and no chunk file left.

/// Drops `set_id`'s documents (the set and, for MMlib-base, its per-model
/// documents) so its blobs become orphans; the CAS work of the GC then all
/// happens inside SweepOrphanBlobs, the window the repack sweep crashes.
Status DropSetDocuments(ModelSetManager* manager, const std::string& set_id) {
  DocumentStore* docs = manager->doc_store();
  if (docs->Count(kMmlibModelCollection) > 0) {
    MMM_ASSIGN_OR_RETURN(std::vector<JsonValue> models,
                         docs->All(kMmlibModelCollection));
    for (const JsonValue& model : models) {
      MMM_ASSIGN_OR_RETURN(std::string id, model.GetString("_id"));
      if (id.rfind(set_id, 0) != 0) continue;
      MMM_RETURN_NOT_OK(docs->Remove(kMmlibModelCollection, id));
    }
  }
  return docs->Remove(kSetCollection, set_id);
}

std::vector<std::string> PackNames(World* world) {
  std::vector<std::string> packs;
  for (const std::string& name :
       world->manager->file_store()->List().ValueOrDie()) {
    if (IsPackBlobName(name)) packs.push_back(name);
  }
  return packs;
}

/// Two independent snapshots, the second two retraining cycles on, so the
/// second shares only a few of the first's chunks.
struct RepackWorld {
  Status Prepare(ApproachType type, size_t lanes) {
    world.cas = SweepCasOptions();
    MMM_RETURN_NOT_OK(world.Open(type, lanes));
    MMM_ASSIGN_OR_RETURN(SaveResult first, world.SaveInitial());
    old_id = first.set_id;
    old_packs = PackNames(&world);
    MMM_RETURN_NOT_OK(world.scenario->AdvanceCycle().status());
    MMM_RETURN_NOT_OK(world.scenario->AdvanceCycle().status());
    MMM_ASSIGN_OR_RETURN(SaveResult second, world.SaveInitial());
    kept_id = second.set_id;
    return DropSetDocuments(world.manager.get(), old_id);
  }

  World world;
  std::string old_id;
  std::string kept_id;
  std::vector<std::string> old_packs;
};

TEST_P(CasCrashSweep, EveryCrashPointOfARepackKeepsTheStoreConsistent) {
  for (size_t lanes : {size_t{1}, size_t{4}}) {
    int64_t before = 0;
    int64_t writes = 0;
    {
      RepackWorld probe;
      ASSERT_OK(probe.Prepare(GetParam(), lanes));
      before = probe.world.fault.write_count();
      ASSERT_OK(SweepOrphanBlobs(probe.world.manager->context()).status());
      writes = probe.world.fault.write_count() - before;
      // The sweep is vacuous unless the old pack was repacked, not dropped.
      const std::vector<std::string> packs = PackNames(&probe.world);
      ASSERT_EQ(probe.old_packs.size(), 1u);
      ASSERT_EQ(std::count(packs.begin(), packs.end(), probe.old_packs[0]), 0);
      ASSERT_EQ(packs.size(), 2u) << "no repack: the old pack was all dead";
    }
    for (int64_t k = 0; k < writes; ++k) {
      std::string label = ApproachTypeName(GetParam()) + " lanes=" +
                          std::to_string(lanes) + " repack crash@" +
                          std::to_string(k);
      RepackWorld crash;
      ASSERT_OK(crash.Prepare(GetParam(), lanes));
      const ModelSet kept_state = crash.world.scenario->current_set();
      ASSERT_EQ(crash.world.fault.write_count(), before) << label;
      crash.world.fault.FailWritesAfter(before + k);
      EXPECT_FALSE(SweepOrphanBlobs(crash.world.manager->context()).ok())
          << label;
      crash.world.fault.Heal();
      ASSERT_OK(crash.world.Reopen(lanes));
      ExpectStoreConsistent(&crash.world, label);
      ASSERT_OK_AND_ASSIGN(ModelSet recovered,
                           crash.world.manager->Recover(crash.kept_id));
      ExpectSetEquals(recovered, kept_state, label);
    }
  }
}

/// Saves an initial and a derived set, then rewrites the closed store in
/// the per-chunk-file layout: each pack's chunks become `cas-<hex>` files.
struct LegacyWorld {
  Status Prepare(ApproachType type, size_t lanes) {
    world.cas = SweepCasOptions();
    MMM_RETURN_NOT_OK(world.Open(type, lanes));
    MMM_ASSIGN_OR_RETURN(SaveResult first, world.SaveInitial());
    states.emplace_back(first.set_id, world.scenario->current_set());
    MMM_ASSIGN_OR_RETURN(ModelSetUpdateInfo update,
                         world.scenario->AdvanceCycle());
    MMM_ASSIGN_OR_RETURN(SaveResult second,
                         world.SaveDerived(first.set_id, update));
    states.emplace_back(second.set_id, world.scenario->current_set());
    world.manager.reset();
    const std::string blobs = "/store/blobs";
    MMM_ASSIGN_OR_RETURN(std::vector<std::string> names,
                         world.fault.ListDir(blobs));
    for (const std::string& name : names) {
      if (!IsPackBlobName(name)) continue;
      MMM_ASSIGN_OR_RETURN(std::vector<PackEntry> entries,
                           ReadPackIndex(&world.fault, blobs + "/" + name));
      MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> pack,
                           world.fault.ReadFile(blobs + "/" + name));
      for (const PackEntry& entry : entries) {
        MMM_RETURN_NOT_OK(world.fault.WriteFile(
            blobs + "/" + ChunkBlobName(entry.hash_hex),
            std::span<const uint8_t>(pack.data() + entry.offset,
                                     entry.length)));
      }
      MMM_RETURN_NOT_OK(world.fault.DeleteFile(blobs + "/" + name));
    }
    return Status::OK();
  }

  World world;
  std::vector<std::pair<std::string, ModelSet>> states;
};

TEST_P(CasCrashSweep, EveryCrashPointOfChunkFileMigrationRecovers) {
  for (size_t lanes : {size_t{1}, size_t{4}}) {
    int64_t before = 0;
    int64_t writes = 0;
    {
      LegacyWorld probe;
      ASSERT_OK(probe.Prepare(GetParam(), lanes));
      before = probe.world.fault.write_count();
      ASSERT_OK(probe.world.Reopen(lanes));
      writes = probe.world.fault.write_count() - before;
      ASSERT_EQ(PackNames(&probe.world).size(), 1u);
    }
    for (int64_t k = 0; k < writes; ++k) {
      std::string label = ApproachTypeName(GetParam()) + " lanes=" +
                          std::to_string(lanes) + " migration crash@" +
                          std::to_string(k);
      LegacyWorld crash;
      ASSERT_OK(crash.Prepare(GetParam(), lanes));
      ASSERT_EQ(crash.world.fault.write_count(), before) << label;
      crash.world.fault.FailWritesAfter(before + k);
      EXPECT_FALSE(crash.world.Reopen(lanes).ok()) << label;
      crash.world.fault.Heal();
      ASSERT_OK(crash.world.Reopen(lanes));
      ExpectStoreConsistent(&crash.world, label);
      for (const std::string& name :
           crash.world.manager->file_store()->List().ValueOrDie()) {
        EXPECT_FALSE(IsChunkBlobName(name)) << label << ": " << name;
      }
      for (const auto& [id, state] : crash.states) {
        ASSERT_OK_AND_ASSIGN(ModelSet recovered,
                             crash.world.manager->Recover(id));
        ExpectSetEquals(recovered, state, label + " " + id);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Compaction crash sweep: the chain compactor's journaled rebase commits get
// the same exhaustive treatment as the save paths. A probe world learns how
// many env writes a full CompactChains pass issues (two rebase commits for
// this chain shape), then the sweep crashes a fresh world at every write
// index. After healing and reopening, the store must be fsck-clean and every
// set of the chain must recover bit-exactly — compaction is metadata motion,
// so no crash may ever change recovered bytes.

CompactionPolicy SweepCompactionPolicy() {
  CompactionPolicy policy;
  policy.max_chain_depth = 1;
  return policy;
}

struct CompactionProbe {
  int64_t before_compact = 0;
  int64_t compact_writes = 0;
  std::vector<std::string> ids;
};

/// Grows an update chain (depths 0..4) whose compaction at max_chain_depth=1
/// plans two rebases; `states` (optional) receives each save's bit-exact
/// fleet state keyed by set id.
void BuildCompactionWorkload(World* world,
                             std::vector<std::string>* ids,
                             std::map<std::string, ModelSet>* states) {
  auto initial = world->SaveInitial();
  initial.status().Check();
  ids->push_back(initial.ValueOrDie().set_id);
  if (states != nullptr) {
    (*states)[ids->back()] = world->scenario->current_set();
  }
  for (int i = 0; i < 4; ++i) {
    auto update = world->scenario->AdvanceCycle();
    update.status().Check();
    auto derived = world->SaveDerived(ids->back(), update.ValueOrDie());
    derived.status().Check();
    ids->push_back(derived.ValueOrDie().set_id);
    if (states != nullptr) {
      (*states)[ids->back()] = world->scenario->current_set();
    }
  }
}

CompactionProbe ProbeCompaction(size_t lanes) {
  CompactionProbe probe;
  World world;
  world.Open(ApproachType::kUpdate, lanes).Check();
  BuildCompactionWorkload(&world, &probe.ids, nullptr);
  probe.before_compact = world.fault.write_count();
  auto report = world.manager->CompactChains(SweepCompactionPolicy());
  report.status().Check();
  if (report.ValueOrDie().sets_rebased != 2u) {
    Status::Internal("probe expected 2 rebases").Check();
  }
  probe.compact_writes = world.fault.write_count() - probe.before_compact;
  return probe;
}

TEST(CompactionCrashSweep, WriteCountsAreLaneInvariant) {
  CompactionProbe serial = ProbeCompaction(1);
  CompactionProbe parallel = ProbeCompaction(4);
  EXPECT_EQ(serial.compact_writes, parallel.compact_writes);
  EXPECT_EQ(serial.ids, parallel.ids);
  // Two journaled commits: begin + snapshot blobs + commit + docs + finish
  // each.
  EXPECT_GE(serial.compact_writes, 8);
}

TEST(CompactionCrashSweep, EveryCrashPointLeavesStoreCleanAndBitExact) {
  for (size_t lanes : {size_t{1}, size_t{4}}) {
    CompactionProbe probe = ProbeCompaction(lanes);
    for (int64_t k = 0; k < probe.compact_writes; ++k) {
      std::string label =
          "lanes=" + std::to_string(lanes) + " compact crash@" +
          std::to_string(k);
      World world;
      ASSERT_OK(world.Open(ApproachType::kUpdate, lanes));
      std::vector<std::string> ids;
      std::map<std::string, ModelSet> states;
      BuildCompactionWorkload(&world, &ids, &states);
      ASSERT_EQ(ids, probe.ids) << label;
      ASSERT_EQ(world.fault.write_count(), probe.before_compact) << label;
      world.fault.FailWritesAfter(probe.before_compact + k);
      EXPECT_FALSE(world.manager->CompactChains(SweepCompactionPolicy()).ok())
          << label;
      world.fault.Heal();
      ASSERT_OK(world.Reopen(lanes));
      ExpectStoreConsistent(&world, label);
      // Unlike an interrupted save, an interrupted compaction has no
      // vanishing outcome: every set existed before the pass and must
      // recover the exact same bytes after the crash, whether its rebase
      // rolled back or committed.
      for (const std::string& id : ids) {
        ASSERT_OK_AND_ASSIGN(ModelSet recovered, world.manager->Recover(id));
        ExpectSetEquals(recovered, states.at(id), label + " set " + id);
      }
      // And the healed store compacts to completion.
      ASSERT_OK_AND_ASSIGN(CompactionReport report,
                           world.manager->CompactChains(
                               SweepCompactionPolicy()));
      EXPECT_TRUE(report.skipped.empty()) << label;
      for (const std::string& id : ids) {
        ASSERT_OK_AND_ASSIGN(ChainInspection chain,
                             InspectChain(world.manager->context(), id));
        EXPECT_LE(chain.depth, 1u) << label << " set " << id;
        EXPECT_TRUE(chain.depth_matches()) << label << " set " << id;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Recovery-path unit coverage the sweep cannot reach directly.

TEST(CrashRecoveryTest, CleanWorldReportsEmptyRepair) {
  World world;
  ASSERT_OK(world.Open(ApproachType::kBaseline, 1));
  ASSERT_OK(world.SaveInitial().status());
  ASSERT_OK(world.Reopen(1));
  EXPECT_EQ(world.manager->repair_report().entries_scanned, 0u);
  EXPECT_FALSE(world.manager->repair_report().repaired_anything());
  ExpectStoreConsistent(&world, "clean world");
}

TEST(CrashRecoveryTest, CommittedButUnfinishedEntryIsRolledForward) {
  // Crash between the commit mark and the finish mark: the doc inserts are
  // journaled intents, so replay must materialize the set document.
  World world;
  ASSERT_OK(world.Open(ApproachType::kBaseline, 1));
  int64_t base = world.fault.write_count();
  // Writes: begin(0) blobs(1,2) commit(3) doc(4) finish(5) — fail the doc
  // insert, so the entry is committed but incomplete.
  world.fault.FailWritesAfter(base + 4);
  auto saved = world.SaveInitial();
  EXPECT_FALSE(saved.ok());
  EXPECT_EQ(world.manager->doc_store()->Count(kSetCollection), 0u);
  world.fault.Heal();
  ASSERT_OK(world.Reopen(1));
  EXPECT_EQ(world.manager->repair_report().completed, 1u);
  EXPECT_EQ(world.manager->repair_report().docs_inserted, 1u);
  EXPECT_EQ(world.manager->doc_store()->Count(kSetCollection), 1u);
  ExpectStoreConsistent(&world, "rolled forward");
}

TEST(CrashRecoveryTest, UncommittedEntryIsRolledBack) {
  World world;
  ASSERT_OK(world.Open(ApproachType::kBaseline, 1));
  int64_t base = world.fault.write_count();
  world.fault.FailWritesAfter(base + 2);  // fail the second blob write
  EXPECT_FALSE(world.SaveInitial().ok());
  world.fault.Heal();
  // The first staged blob landed before the crash and is now orphaned...
  ASSERT_OK_AND_ASSIGN(auto blobs, world.manager->file_store()->List());
  EXPECT_EQ(blobs.size(), 1u);
  ASSERT_OK(world.Reopen(1));
  // ...until replay rolls the entry back.
  EXPECT_EQ(world.manager->repair_report().rolled_back, 1u);
  EXPECT_EQ(world.manager->repair_report().blobs_deleted, 1u);
  ASSERT_OK_AND_ASSIGN(blobs, world.manager->file_store()->List());
  EXPECT_TRUE(blobs.empty());
  ExpectStoreConsistent(&world, "rolled back");
}

TEST(CrashRecoveryTest, PendingJournalBlobsAreLiveForGC) {
  // A failed save leaves its journal entry pending in-process; the orphan
  // scan must not treat its surviving blobs as sweepable — their fate
  // belongs to the next replay.
  World world;
  ASSERT_OK(world.Open(ApproachType::kBaseline, 1));
  int64_t base = world.fault.write_count();
  world.fault.FailWritesAfter(base + 2);
  EXPECT_FALSE(world.SaveInitial().ok());
  world.fault.Heal();
  EXPECT_EQ(world.manager->journal()->pending_entries(), 1u);
  ASSERT_OK_AND_ASSIGN(OrphanReport orphans,
                       FindOrphanBlobs(world.manager->context()));
  EXPECT_TRUE(orphans.clean());
}

TEST(CrashRecoveryTest, TornJournalTailIsDropped) {
  // A crash mid-append leaves half a begin record; reopening must treat the
  // journal as ending before it.
  World world;
  ASSERT_OK(world.Open(ApproachType::kBaseline, 1));
  ASSERT_OK(world.SaveInitial().status());
  std::string torn = "{\"txn\":99,\"state\":\"begi";
  ASSERT_OK(world.base.AppendToFile(
      "/store/commit.journal",
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(torn.data()),
                               torn.size())));
  ASSERT_OK(world.Reopen(1));
  EXPECT_TRUE(world.manager->repair_report().clean());
  EXPECT_EQ(world.manager->doc_store()->Count(kSetCollection), 1u);
  ExpectStoreConsistent(&world, "torn tail");
}

TEST(CrashRecoveryTest, FleetSimulatorCrashSweepHoldsTheContract) {
  // The sweeps above enumerate every crash point *within* one save; the
  // fleet simulator sweeps the orthogonal dimension — *which* save of a
  // long interleaved lifecycle (mixed approaches, deletes, retention,
  // compaction) crashes mid-commit — and checks the same contract through
  // its oracles after every reopen: clean journal repair, fsck-clean
  // store, bit-exact recoveries of every survivor, and an inventory that
  // reconciles with the shadow model (rolled forward or fully rolled
  // back, never a torn set). Varying crash_seed and crash_window moves
  // both which saves are armed and where inside the commit they fail.
  FleetPlanConfig config;
  config.seed = 14;
  config.steps = 40;
  config.checkpoint_interval = 20;
  FleetPlan plan = FleetPlan::Generate(config);

  uint64_t total_crashes = 0;
  for (uint64_t crash_seed : {17, 18, 19}) {
    for (uint64_t crash_window : {2, 6}) {
      FleetSimOptions options;
      options.inject_crashes = true;
      options.crash_seed = crash_seed;
      options.crash_window = crash_window;
      options.crash_percent = 50;
      FleetSimulator simulator(plan, options);
      ASSERT_OK_AND_ASSIGN(FleetRunReport report, simulator.Run());
      std::string problems;
      for (const FleetProblem& problem : report.problems) {
        problems += problem.op + ": " + problem.detail + "\n";
      }
      ASSERT_TRUE(report.ok()) << "crash_seed=" << crash_seed
                               << " window=" << crash_window << ":\n"
                               << problems;
      total_crashes += report.crashes_injected;
    }
  }
  // The armed points must actually fire; the draws are deterministic, so
  // this cannot flake.
  EXPECT_GT(total_crashes, 0u);
}

}  // namespace
}  // namespace mmm
