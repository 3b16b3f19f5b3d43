#include "fleet/simulator.h"

#include <algorithm>
#include <map>
#include <set>

#include "cas/manifest.h"
#include "cas/pack.h"
#include "cluster/coordinator.h"
#include "common/strings.h"
#include "core/gc.h"
#include "serve/service.h"
#include "storage/env.h"

namespace mmm {
namespace {

std::string JoinIds(const std::set<std::string>& ids) {
  std::string out;
  for (const std::string& id : ids) {
    if (!out.empty()) out += ",";
    out += id;
  }
  return out;
}

}  // namespace

/// The live world one run executes against, plus the shadow state predicting
/// it. Rebuilt at the start of every Run/RunOps; kept for inspection after.
struct FleetSimulator::World {
  enum class OpOutcome { kExecuted, kSkipped, kStop };

  World(const FleetPlanConfig& plan_config, const FleetSimOptions& opts,
        FleetContentEngine* content_engine)
      : config(plan_config), options(opts), engine(content_engine),
        fault(&base_env) {}

  const FleetPlanConfig& config;
  FleetSimOptions options;
  FleetContentEngine* engine;

  InMemoryEnv base_env;
  FaultInjectionEnv fault;

  /// Un-sharded backend (options.shards == 0). The service wraps the
  /// manager, so declaration order doubles as destruction order.
  std::unique_ptr<ModelSetManager> manager;
  std::unique_ptr<ModelSetService> service;
  /// Sharded backend (options.shards >= 1).
  std::unique_ptr<Coordinator> cluster;

  FleetSymbolicState shadow;
  /// ordinal -> bound set id; stale entries of dead ordinals are kept (they
  /// are harmless and record history), `ordinal_of` always points at the
  /// newest binding of an id.
  std::map<uint64_t, std::string> id_of;
  std::map<std::string, uint64_t> ordinal_of;
  size_t grown_shards = 0;

  FleetRunReport report;

  // --- binding -------------------------------------------------------------

  bool Bound(uint64_t ordinal) const { return id_of.count(ordinal) != 0; }

  void Bind(uint64_t ordinal, const std::string& id) {
    id_of[ordinal] = id;
    ordinal_of[id] = ordinal;
  }

  /// True when the op's set reference is executable: bound and alive.
  bool Usable(uint64_t ordinal) const {
    return Bound(ordinal) && shadow.Alive(ordinal);
  }

  bool Problem(size_t step, const FleetOp& op, std::string detail) {
    report.problems.push_back({step, op.Render(), std::move(detail)});
    report.failing_step = step;
    return false;
  }

  // --- backend -------------------------------------------------------------

  Status OpenBackend() {
    if (options.shards == 0) {
      service.reset();
      manager.reset();
      ModelSetManager::Options manager_options;
      manager_options.root_dir = "/fleet";
      manager_options.env = &fault;
      manager_options.resolver = engine;
      manager_options.pipeline.lanes = options.lanes;
      manager_options.cas = options.cas;
      // Modeled store latency on (simulated clock, no real waiting) so the
      // recover_modeled_nanos stream carries real per-request costs.
      manager_options.profile = SetupProfile::Server();
      // MMMSA(direct-manager-open): fresh in-memory world per run.
      MMM_ASSIGN_OR_RETURN(manager, ModelSetManager::Open(manager_options));
      ModelSetServiceOptions service_options;
      service_options.workers = options.workers;
      service_options.cache_enabled = options.cache_enabled;
      service_options.cache_capacity_bytes = options.cache_capacity_bytes;
      service = std::make_unique<ModelSetService>(manager.get(),
                                                  service_options);
      return Status::OK();
    }
    cluster.reset();
    ClusterOptions cluster_options;
    cluster_options.root_dir = "/fleet";
    cluster_options.env = &fault;
    cluster_options.shard_count = options.shards;
    cluster_options.resolver = engine;
    cluster_options.pipeline.lanes = options.lanes;
    cluster_options.cas = options.cas;
    cluster_options.profile = SetupProfile::Server();
    cluster_options.service.workers = options.workers;
    cluster_options.service.cache_enabled = options.cache_enabled;
    cluster_options.service.cache_capacity_bytes =
        options.cache_capacity_bytes;
    MMM_ASSIGN_OR_RETURN(cluster, Coordinator::Open(std::move(cluster_options)));
    return Status::OK();
  }

  Result<std::vector<SetSummary>> ListAll() {
    if (cluster == nullptr) return manager->ListSets();
    std::vector<SetSummary> all;
    for (const std::string& name : cluster->ShardNames()) {
      Shard* shard = cluster->shard(name);
      if (shard == nullptr) {
        return Status::Internal("shard ", name, " vanished");
      }
      MMM_ASSIGN_OR_RETURN(std::vector<SetSummary> some,
                           shard->manager()->ListSets());
      all.insert(all.end(), some.begin(), some.end());
    }
    return all;
  }

  std::vector<ServeResult> ReplayIds(const std::vector<std::string>& ids,
                                     std::vector<ModelSet>* recovered) {
    return cluster != nullptr ? cluster->Replay(ids, recovered)
                              : service->Replay(ids, recovered);
  }

  /// "" when the store is fully fsck-clean (journal repair + validation +
  /// orphan scan, all shards), else the first problem.
  std::string FsckProblem() {
    if (cluster != nullptr) {
      Result<ClusterFsckReport> fsck = cluster->Fsck();
      if (!fsck.ok()) return fsck.status().ToString();
      const ClusterFsckReport& report = fsck.ValueOrDie();
      if (report.clean()) return "";
      if (!report.problems.empty()) return report.problems.front();
      for (const ShardFsck& shard : report.shards) {
        if (!shard.repair.clean()) {
          return "shard " + shard.shard + ": journal repair not clean";
        }
        if (!shard.validation.ok()) {
          return "shard " + shard.shard + ": " + shard.validation.problems.front();
        }
        if (!shard.orphans.clean()) {
          return "shard " + shard.shard + ": orphan blobs";
        }
      }
      return "cluster fsck not clean";
    }
    if (!manager->repair_report().clean()) return "journal repair not clean";
    Result<StoreValidationReport> validation = manager->ValidateStore();
    if (!validation.ok()) return validation.status().ToString();
    if (!validation.ValueOrDie().ok()) {
      return validation.ValueOrDie().problems.front();
    }
    Result<OrphanReport> orphans = FindOrphanBlobs(manager->context());
    if (!orphans.ok()) return orphans.status().ToString();
    if (!orphans.ValueOrDie().clean()) {
      return StringFormat("%zu orphan blobs",
                          orphans.ValueOrDie().orphan_blobs.size());
    }
    return "";
  }

  // --- chunk-refcount shadow (CAS runs) ------------------------------------

  /// Re-reads `ordinal`'s chunk references from the CAS index after an
  /// operation that (re)wrote its blobs. Manifests are attributed by blob
  /// name prefix: every artifact blob name starts with its set's id, and
  /// ids are fixed-width, so no id prefixes another. Un-sharded worlds only
  /// (no-op otherwise).
  void ObserveChunkOwnership(uint64_t ordinal) {
    if (manager == nullptr || manager->cas() == nullptr) return;
    const std::string& id = id_of[ordinal];
    std::map<std::string, uint64_t> refs;
    for (const std::string& name : manager->cas()->ManifestNames()) {
      if (name.rfind(id, 0) != 0) continue;
      std::optional<std::vector<CasChunkRef>> chunks =
          manager->cas()->ManifestChunks(name);
      if (!chunks.has_value()) continue;
      for (const CasChunkRef& ref : *chunks) ++refs[ref.hash_hex];
    }
    shadow.SetChunkOwnership(ordinal, std::move(refs));
  }

  /// "" when the CAS refcount index, the store's pack listing, and the
  /// shadow's summed per-set ownership all agree; else the first
  /// divergence. Runs after every executed op of an un-sharded CAS world.
  std::string ChunkOracleProblem() {
    if (manager == nullptr || manager->cas() == nullptr) return "";
    std::map<std::string, uint64_t> predicted = shadow.PredictedChunkRefs();
    std::map<std::string, uint64_t> actual =
        manager->cas()->ChunkRefsSnapshot();
    for (const auto& [hex, refs] : predicted) {
      auto it = actual.find(hex);
      if (it == actual.end()) {
        return StringFormat("index lost chunk %s (shadow predicts refs=%llu)",
                            hex.substr(0, 12).c_str(),
                            static_cast<unsigned long long>(refs));
      }
      if (it->second != refs) {
        return StringFormat("chunk %s has refs=%llu, shadow predicts %llu",
                            hex.substr(0, 12).c_str(),
                            static_cast<unsigned long long>(it->second),
                            static_cast<unsigned long long>(refs));
      }
    }
    for (const auto& [hex, refs] : actual) {
      if (predicted.count(hex) == 0) {
        return StringFormat(
            "index tracks chunk %s (refs=%llu) no live set's manifests "
            "reference",
            hex.substr(0, 12).c_str(),
            static_cast<unsigned long long>(refs));
      }
    }
    // The store must hold exactly the packs the index locates live chunks
    // in: a missing one is data loss, an extra one is a dead pack a sweep
    // or repack failed to reclaim, and a `cas-` chunk file is a chunk the
    // open-time migration failed to pack.
    Result<std::vector<std::string>> listed = manager->file_store()->List();
    if (!listed.ok()) return listed.status().ToString();
    std::set<std::string> packs;
    for (const std::string& name : listed.ValueOrDie()) {
      if (IsPackBlobName(name)) packs.insert(name);
      if (IsChunkBlobName(name)) return "store holds chunk file " + name;
    }
    std::set<std::string> live_packs;
    for (const auto& [hex, where] :
         manager->cas()->ChunkLocationsSnapshot()) {
      const std::string pack = PackBlobName(where.pack);
      if (where.pack == 0 || packs.count(pack) == 0) {
        return "store lost the pack of referenced chunk " + hex.substr(0, 12);
      }
      live_packs.insert(pack);
    }
    for (const std::string& pack : packs) {
      if (live_packs.count(pack) == 0) {
        return "pack " + pack + " holds no live chunk but survived a sweep";
      }
    }
    return "";
  }

  // --- save path (with optional crash injection) ---------------------------

  OpOutcome ExecSave(const FleetOp& op, size_t step) {
    const bool derived = op.kind == FleetOpKind::kSaveDerived;
    const ModelSet* content = nullptr;
    ModelSetUpdateInfo update;
    if (derived) {
      if (!Usable(op.base)) return OpOutcome::kSkipped;
      Result<const ModelSet*> made = engine->DerivedSet(op.ordinal, op.base);
      if (!made.ok()) {
        Problem(step, op, "content engine: " + made.status().ToString());
        return OpOutcome::kStop;
      }
      content = made.ValueOrDie();
      update = engine->UpdateFor(op.ordinal, op.base);
      update.base_set_id = id_of[op.base];
    } else {
      Result<const ModelSet*> made = engine->InitialSet(op.ordinal);
      if (!made.ok()) {
        Problem(step, op, "content engine: " + made.status().ToString());
        return OpOutcome::kStop;
      }
      content = made.ValueOrDie();
    }

    bool armed = false;
    if (options.inject_crashes) {
      // Keyed by ordinal, not step index: a minimized subsequence replays
      // the identical crash decision for every surviving save.
      Rng crash_rng = Rng(options.crash_seed).Fork("fleet-crash", op.ordinal);
      if (crash_rng.NextBounded(100) < options.crash_percent) {
        armed = true;
        fault.FailWritesAfter(fault.write_count() + 1 +
                              static_cast<int64_t>(crash_rng.NextBounded(
                                  std::max<uint64_t>(1, options.crash_window))));
      }
    }

    Result<SaveResult> saved =
        derived ? (cluster != nullptr
                       ? cluster->SaveDerived(op.approach, *content, update)
                       : manager->SaveDerived(op.approach, *content, update))
                : (cluster != nullptr
                       ? cluster->SaveInitial(op.approach, *content)
                       : manager->SaveInitial(op.approach, *content));
    if (armed) fault.Heal();

    if (saved.ok()) {
      ++report.saves;
      const SaveResult& result = saved.ValueOrDie();
      Bind(op.ordinal, result.set_id);
      shadow.ApplySave(op);
      ObserveChunkOwnership(op.ordinal);
      if (result.chain_depth != shadow.at(op.ordinal).depth) {
        Problem(step, op,
                StringFormat("save reported chain depth %llu, shadow predicts "
                             "%llu",
                             static_cast<unsigned long long>(result.chain_depth),
                             static_cast<unsigned long long>(
                                 shadow.at(op.ordinal).depth)));
        return OpOutcome::kStop;
      }
      return OpOutcome::kExecuted;
    }
    if (!armed) {
      Problem(step, op, "save failed: " + saved.status().ToString());
      return OpOutcome::kStop;
    }
    ++report.crashes_injected;
    return ReopenAfterCrash(op, step) ? OpOutcome::kExecuted : OpOutcome::kStop;
  }

  /// Heals, reopens the world through the commit-journal replay, asserts it
  /// fsck-clean, and reconciles the shadow with the store: the crashed save
  /// either rolled forward (exactly one id we never saw — bind it) or rolled
  /// back (nothing new). Pins do not survive the service restart.
  bool ReopenAfterCrash(const FleetOp& op, size_t step) {
    Status reopened = OpenBackend();
    if (!reopened.ok()) {
      return Problem(step, op,
                     "reopen after crash failed: " + reopened.ToString());
    }
    std::string fsck = FsckProblem();
    if (!fsck.empty()) {
      return Problem(step, op, "post-crash fsck: " + fsck);
    }
    Result<std::vector<SetSummary>> listed = ListAll();
    if (!listed.ok()) {
      return Problem(step, op,
                     "post-crash inventory: " + listed.status().ToString());
    }
    std::set<std::string> live_bound;
    for (const auto& [ordinal, id] : id_of) {
      if (shadow.Alive(ordinal)) live_bound.insert(id);
    }
    std::set<std::string> present;
    std::vector<std::string> unknown;
    for (const SetSummary& summary : listed.ValueOrDie()) {
      present.insert(summary.id);
      if (!live_bound.count(summary.id)) unknown.push_back(summary.id);
    }
    if (unknown.size() > 1) {
      return Problem(step, op, StringFormat("crash left %zu unknown sets",
                                            unknown.size()));
    }
    if (unknown.size() == 1) {
      // The crashed commit had reached its commit mark; replay rolled it
      // forward. The store's new set is the crashed save's.
      ++report.saves;
      Bind(op.ordinal, unknown.front());
      shadow.ApplySave(op);
      ObserveChunkOwnership(op.ordinal);
    }
    for (const std::string& id : live_bound) {
      if (!present.count(id)) {
        return Problem(step, op, "crash lost live set " + id);
      }
    }
    for (uint64_t pinned : shadow.Pinned()) shadow.Unpin(pinned);
    return true;
  }

  // --- serving / GC / compaction ops ---------------------------------------

  OpOutcome ExecRecoverBurst(const FleetOp& op, size_t step) {
    std::vector<std::string> ids;
    std::vector<uint64_t> ordinals;
    for (uint64_t target : op.targets) {
      if (Usable(target)) {
        ids.push_back(id_of[target]);
        ordinals.push_back(target);
      }
    }
    if (ids.empty()) return OpOutcome::kSkipped;
    std::vector<ModelSet> recovered;
    std::vector<ServeResult> results = ReplayIds(ids, &recovered);
    for (size_t i = 0; i < ids.size(); ++i) {
      if (!results[i].status.ok()) {
        Problem(step, op,
                "recovery of " + ids[i] + " failed: " +
                    results[i].status.ToString());
        return OpOutcome::kStop;
      }
      std::string diff = DiffSets(recovered[i], engine->ExpectedSet(ordinals[i]));
      if (!diff.empty()) {
        Problem(step, op, "recovery of " + ids[i] + " not bit-exact: " + diff);
        return OpOutcome::kStop;
      }
      report.recover_modeled_nanos.push_back(results[i].modeled_store_nanos);
      ++report.recoveries;
    }
    return OpOutcome::kExecuted;
  }

  OpOutcome ExecPin(const FleetOp& op, size_t step) {
    if (!Usable(op.target) || !options.cache_enabled) return OpOutcome::kSkipped;
    const FleetSymbolicState::SymSet& target = shadow.at(op.target);
    // Only update-approach sets are pinnable; a differential variant of the
    // plan under another approach deterministically skips its pin ops.
    if (target.approach != ApproachType::kUpdate || target.pinned) {
      return OpOutcome::kSkipped;
    }
    const std::string& id = id_of[op.target];
    Status status = cluster != nullptr ? cluster->PinSet(id)
                                       : service->PinSet(id);
    if (!status.ok()) {
      Problem(step, op, "pin of " + id + " failed: " + status.ToString());
      return OpOutcome::kStop;
    }
    shadow.Pin(op.target);
    return OpOutcome::kExecuted;
  }

  OpOutcome ExecUnpin(const FleetOp& op, size_t step) {
    if (!Usable(op.target) || !shadow.at(op.target).pinned) {
      return OpOutcome::kSkipped;
    }
    const std::string& id = id_of[op.target];
    Status status = cluster != nullptr ? cluster->UnpinSet(id)
                                       : service->UnpinSet(id);
    if (!status.ok()) {
      Problem(step, op, "unpin of " + id + " failed: " + status.ToString());
      return OpOutcome::kStop;
    }
    shadow.Unpin(op.target);
    return OpOutcome::kExecuted;
  }

  OpOutcome ExecDelete(const FleetOp& op, size_t step) {
    if (!Usable(op.target)) return OpOutcome::kSkipped;
    const std::string& id = id_of[op.target];
    bool dependents = shadow.HasDependents(op.target);
    std::vector<uint64_t> guarded = shadow.PinProtected();
    bool pin_blocked =
        std::binary_search(guarded.begin(), guarded.end(), op.target);

    DeleteOptions delete_options;
    delete_options.cascade = op.cascade;
    Result<DeleteReport> result =
        cluster != nullptr ? cluster->DeleteSet(id, delete_options)
                           : service->DeleteSet(id, delete_options);

    if ((!op.cascade && dependents) || pin_blocked) {
      // The shadow predicts a refusal (dependent sets without cascade, or
      // pin protection); the system agreeing to delete would be the bug.
      if (result.ok()) {
        Problem(step, op,
                pin_blocked ? "pin-protected delete succeeded"
                            : "delete with dependents succeeded without "
                              "cascade");
        return OpOutcome::kStop;
      }
      return OpOutcome::kExecuted;
    }
    if (!result.ok()) {
      Problem(step, op, "delete failed: " + result.status().ToString());
      return OpOutcome::kStop;
    }
    std::vector<uint64_t> closure = op.cascade
                                        ? shadow.DeleteClosure(op.target)
                                        : std::vector<uint64_t>{op.target};
    std::set<std::string> expect;
    for (uint64_t ordinal : closure) expect.insert(id_of[ordinal]);
    std::set<std::string> got(result.ValueOrDie().deleted_set_ids.begin(),
                              result.ValueOrDie().deleted_set_ids.end());
    if (got != expect) {
      Problem(step, op, "delete collected {" + JoinIds(got) +
                            "}, shadow predicts {" + JoinIds(expect) + "}");
      return OpOutcome::kStop;
    }
    shadow.ApplyDelete(closure);
    ++report.deletes;
    report.packs_repacked += result.ValueOrDie().packs_repacked;
    return OpOutcome::kExecuted;
  }

  OpOutcome ExecRetain(const FleetOp& op, size_t step) {
    std::vector<uint64_t> keep;
    std::vector<std::string> keep_ids;
    for (uint64_t target : op.targets) {
      if (Usable(target)) {
        keep.push_back(target);
        keep_ids.push_back(id_of[target]);
      }
    }
    if (keep.empty()) return OpOutcome::kSkipped;

    std::set<std::string> expect;
    {
      std::vector<uint64_t> survivors = shadow.RetainSurvivors(keep);
      std::set<uint64_t> kept(survivors.begin(), survivors.end());
      for (uint64_t live : shadow.Live()) {
        if (!kept.count(live)) expect.insert(id_of[live]);
      }
    }
    Result<DeleteReport> result = cluster != nullptr
                                      ? cluster->RetainOnly(keep_ids)
                                      : service->RetainOnly(keep_ids);
    if (!result.ok()) {
      Problem(step, op, "retain failed: " + result.status().ToString());
      return OpOutcome::kStop;
    }
    std::set<std::string> got(result.ValueOrDie().deleted_set_ids.begin(),
                              result.ValueOrDie().deleted_set_ids.end());
    if (got != expect) {
      Problem(step, op, "retain collected {" + JoinIds(got) +
                            "}, shadow predicts {" + JoinIds(expect) + "}");
      return OpOutcome::kStop;
    }
    shadow.ApplyRetain(keep);
    ++report.retains;
    report.packs_repacked += result.ValueOrDie().packs_repacked;
    return OpOutcome::kExecuted;
  }

  OpOutcome ExecCompact(const FleetOp& op, size_t step) {
    std::set<std::string> expect;
    for (uint64_t ordinal : shadow.ApplyCompact(op.target)) {
      expect.insert(id_of[ordinal]);
    }
    CompactionPolicy policy;
    policy.max_chain_depth = op.target;
    Result<CompactionReport> result =
        cluster != nullptr ? cluster->CompactChains(policy)
                           : service->CompactChains(policy);
    if (!result.ok()) {
      Problem(step, op, "compaction failed: " + result.status().ToString());
      return OpOutcome::kStop;
    }
    const CompactionReport& report_value = result.ValueOrDie();
    if (!report_value.skipped.empty()) {
      Problem(step, op, "compaction skipped a planned rebase: " +
                            report_value.skipped.front());
      return OpOutcome::kStop;
    }
    std::set<std::string> got(report_value.rebased_set_ids.begin(),
                              report_value.rebased_set_ids.end());
    if (got != expect) {
      Problem(step, op, "compaction rebased {" + JoinIds(got) +
                            "}, shadow predicts {" + JoinIds(expect) + "}");
      return OpOutcome::kStop;
    }
    // A rebase rewrites the set's blobs as a fresh full snapshot: its chunk
    // ownership changed wholesale, so re-observe before the chunk oracle.
    for (const std::string& id : got) {
      ObserveChunkOwnership(ordinal_of[id]);
    }
    ++report.compactions;
    return OpOutcome::kExecuted;
  }

  // --- cluster control-plane ops -------------------------------------------

  OpOutcome ExecKillShard(const FleetOp& op, size_t step) {
    if (cluster == nullptr) return OpOutcome::kSkipped;
    std::vector<std::string> names = cluster->ShardNames();
    const std::string victim = names[op.target % names.size()];

    // Pins on the victim die with its process state; note them before the
    // replacement shard opens with an empty pin table.
    std::vector<uint64_t> lost_pins;
    for (uint64_t pinned : shadow.Pinned()) {
      Result<std::string> owner = cluster->OwnerOf(id_of[pinned]);
      if (owner.ok() && owner.ValueOrDie() == victim) {
        lost_pins.push_back(pinned);
      }
    }

    // Node loss: the subtree goes dark, then the surviving durable bytes
    // are mounted again and the coordinator fails over onto them.
    Result<ClusterStatus> status = cluster->StatusReport();
    if (status.ok()) {
      for (const ShardStatus& shard : status.ValueOrDie().shards) {
        if (shard.name == victim) fault.FailPathsUnder(shard.root_dir);
      }
    }
    fault.HealPaths();
    Result<RepairReport> repaired = cluster->FailOver(victim);
    if (!repaired.ok()) {
      Problem(step, op, "failover of " + victim + " failed: " +
                            repaired.status().ToString());
      return OpOutcome::kStop;
    }
    if (!repaired.ValueOrDie().clean()) {
      Problem(step, op, "failover journal replay of " + victim + " not clean");
      return OpOutcome::kStop;
    }
    for (uint64_t pinned : lost_pins) shadow.Unpin(pinned);
    ++report.failovers;
    return OpOutcome::kExecuted;
  }

  OpOutcome ExecAddShard(const FleetOp& op, size_t step) {
    if (cluster == nullptr) return OpOutcome::kSkipped;
    std::string name = StringFormat(
        "grown-%llu", static_cast<unsigned long long>(grown_shards));
    Status status = cluster->AddShard(name);
    if (!status.ok()) {
      Problem(step, op, "add-shard failed: " + status.ToString());
      return OpOutcome::kStop;
    }
    ++grown_shards;
    ++report.shards_added;
    return OpOutcome::kExecuted;
  }

  OpOutcome ExecRebalance(const FleetOp& op, size_t step) {
    if (cluster == nullptr) return OpOutcome::kSkipped;
    Result<RebalanceReport> result = cluster->Rebalance();
    if (!result.ok()) {
      Problem(step, op, "rebalance failed: " + result.status().ToString());
      return OpOutcome::kStop;
    }
    // Moves may be skipped for pinned sets; with no pins anywhere, a skip is
    // a defect.
    if (!result.ValueOrDie().skipped.empty() && shadow.Pinned().empty()) {
      Problem(step, op,
              "rebalance skipped without pins: " +
                  result.ValueOrDie().skipped.front());
      return OpOutcome::kStop;
    }
    // Rebalance flattens chains holding misplaced sets (which chains depends
    // on the ring, not on anything the shadow models), so re-base the
    // shadow's kind/depth on the store — inventory equality still holds.
    Result<std::vector<SetSummary>> listed = ListAll();
    if (!listed.ok()) {
      Problem(step, op,
              "post-rebalance inventory: " + listed.status().ToString());
      return OpOutcome::kStop;
    }
    for (const SetSummary& summary : listed.ValueOrDie()) {
      auto it = ordinal_of.find(summary.id);
      if (it == ordinal_of.end()) {
        Problem(step, op, "rebalance produced unknown set " + summary.id);
        return OpOutcome::kStop;
      }
      shadow.Resync(it->second, summary.kind == "full", summary.chain_depth);
    }
    ++report.rebalances;
    return OpOutcome::kExecuted;
  }

  // --- checkpoint audit -----------------------------------------------------

  OpOutcome ExecCheckpoint(const FleetOp& op, size_t step) {
    // 1. Inventory: the store holds exactly the shadow's live sets.
    Result<std::vector<SetSummary>> listed = ListAll();
    if (!listed.ok()) {
      Problem(step, op, "inventory: " + listed.status().ToString());
      return OpOutcome::kStop;
    }
    std::map<std::string, const SetSummary*> by_id;
    for (const SetSummary& summary : listed.ValueOrDie()) {
      by_id[summary.id] = &summary;
    }
    std::vector<uint64_t> live = shadow.Live();
    if (by_id.size() != live.size()) {
      Problem(step, op,
              StringFormat("store holds %zu sets, shadow predicts %zu",
                           by_id.size(), live.size()));
      return OpOutcome::kStop;
    }
    FleetRunReport::StorageSample sample;
    sample.step = step;
    sample.live_sets = live.size();
    for (uint64_t ordinal : live) {
      auto found = by_id.find(id_of[ordinal]);
      if (found == by_id.end()) {
        Problem(step, op, "store lost live set " + id_of[ordinal]);
        return OpOutcome::kStop;
      }
      const SetSummary& summary = *found->second;
      const FleetSymbolicState::SymSet& predicted = shadow.at(ordinal);
      if (summary.chain_depth != predicted.depth ||
          (summary.kind == "full") != predicted.is_full ||
          summary.approach != ApproachTypeName(predicted.approach)) {
        Problem(step, op,
                StringFormat("set %s is kind=%s depth=%llu approach=%s; "
                             "shadow predicts full=%d depth=%llu approach=%s",
                             summary.id.c_str(), summary.kind.c_str(),
                             static_cast<unsigned long long>(summary.chain_depth),
                             summary.approach.c_str(), predicted.is_full ? 1 : 0,
                             static_cast<unsigned long long>(predicted.depth),
                             ApproachTypeName(predicted.approach).c_str()));
        return OpOutcome::kStop;
      }
      // 2. Recorded depth matches the measured chain walk.
      Result<ChainInspection> inspected = InspectChainOf(summary.id);
      if (!inspected.ok()) {
        Problem(step, op, "chain walk of " + summary.id + ": " +
                              inspected.status().ToString());
        return OpOutcome::kStop;
      }
      if (!inspected.ValueOrDie().depth_matches()) {
        Problem(step, op,
                StringFormat("set %s records depth %llu but measures %llu",
                             summary.id.c_str(),
                             static_cast<unsigned long long>(
                                 inspected.ValueOrDie().recorded_depth),
                             static_cast<unsigned long long>(
                                 inspected.ValueOrDie().depth)));
        return OpOutcome::kStop;
      }
      sample.artifact_bytes += summary.artifact_bytes;
      if (summary.kind == "full") {
        sample.full_artifact_bytes += summary.artifact_bytes;
        ++sample.full_sets;
      }
    }
    report.storage.push_back(sample);

    // 3. Pins: the services' pin tables match the shadow exactly.
    std::set<std::string> pinned_ids;
    if (cluster != nullptr) {
      Result<ClusterStatus> status = cluster->StatusReport();
      if (!status.ok()) {
        Problem(step, op, "status report: " + status.status().ToString());
        return OpOutcome::kStop;
      }
      for (const ShardStatus& shard : status.ValueOrDie().shards) {
        pinned_ids.insert(shard.stats.pinned_sets.begin(),
                          shard.stats.pinned_sets.end());
      }
    } else {
      std::vector<std::string> pinned = service->PinnedSets();
      pinned_ids.insert(pinned.begin(), pinned.end());
    }
    std::set<std::string> expect_pinned;
    for (uint64_t pinned : shadow.Pinned()) expect_pinned.insert(id_of[pinned]);
    if (pinned_ids != expect_pinned) {
      Problem(step, op, "pinned sets {" + JoinIds(pinned_ids) +
                            "}, shadow predicts {" + JoinIds(expect_pinned) +
                            "}");
      return OpOutcome::kStop;
    }

    // 4. Integrity: journal repair, validation, orphan scan.
    std::string fsck = FsckProblem();
    if (!fsck.empty()) {
      Problem(step, op, "fsck: " + fsck);
      return OpOutcome::kStop;
    }

    // 5. Deep audit: every live set recovers bit-exactly via serving.
    if (options.deep_checkpoints && !live.empty()) {
      std::vector<std::string> ids;
      for (uint64_t ordinal : live) ids.push_back(id_of[ordinal]);
      std::vector<ModelSet> recovered;
      std::vector<ServeResult> results = ReplayIds(ids, &recovered);
      for (size_t i = 0; i < ids.size(); ++i) {
        if (!results[i].status.ok()) {
          Problem(step, op, "audit recovery of " + ids[i] + " failed: " +
                                results[i].status.ToString());
          return OpOutcome::kStop;
        }
        std::string diff = DiffSets(recovered[i], engine->ExpectedSet(live[i]));
        if (!diff.empty()) {
          Problem(step, op,
                  "audit recovery of " + ids[i] + " not bit-exact: " + diff);
          return OpOutcome::kStop;
        }
        report.recover_modeled_nanos.push_back(results[i].modeled_store_nanos);
        ++report.recoveries;
      }
    }
    return OpOutcome::kExecuted;
  }

  Result<ChainInspection> InspectChainOf(const std::string& id) {
    if (cluster == nullptr) {
      return InspectChain(manager->context(), id);
    }
    MMM_ASSIGN_OR_RETURN(std::string owner, cluster->OwnerOf(id));
    Shard* shard = cluster->shard(owner);
    if (shard == nullptr) return Status::Internal("shard ", owner, " vanished");
    return InspectChain(shard->manager()->context(), id);
  }

  // --- dispatch -------------------------------------------------------------

  OpOutcome ExecuteOp(const FleetOp& op, size_t step) {
    switch (op.kind) {
      case FleetOpKind::kSaveInitial:
      case FleetOpKind::kSaveDerived:
        return ExecSave(op, step);
      case FleetOpKind::kRecoverBurst:
        return ExecRecoverBurst(op, step);
      case FleetOpKind::kPinSet:
        return ExecPin(op, step);
      case FleetOpKind::kUnpinSet:
        return ExecUnpin(op, step);
      case FleetOpKind::kDeleteSet:
        return ExecDelete(op, step);
      case FleetOpKind::kRetainOnly:
        return ExecRetain(op, step);
      case FleetOpKind::kCompactChains:
        return ExecCompact(op, step);
      case FleetOpKind::kCheckpoint:
        return ExecCheckpoint(op, step);
      case FleetOpKind::kKillShard:
        return ExecKillShard(op, step);
      case FleetOpKind::kAddShard:
        return ExecAddShard(op, step);
      case FleetOpKind::kRebalance:
        return ExecRebalance(op, step);
    }
    return OpOutcome::kSkipped;
  }
};

// --- FleetSimulator ---------------------------------------------------------

FleetSimulator::FleetSimulator(FleetPlan plan, FleetSimOptions options)
    : plan_(std::move(plan)), options_(std::move(options)) {
  FleetContentEngine::Config content;
  content.seed = plan_.config.seed;
  content.models_per_set = plan_.config.models_per_set;
  content.samples_per_dataset = plan_.config.samples_per_dataset;
  content.full_update_fraction = plan_.config.full_update_fraction;
  content.partial_update_fraction = plan_.config.partial_update_fraction;
  engine_ = std::make_unique<FleetContentEngine>(content);
}

FleetSimulator::~FleetSimulator() = default;

Result<FleetRunReport> FleetSimulator::Run() { return RunOps(plan_.ops); }

Result<FleetRunReport> FleetSimulator::RunOps(const std::vector<FleetOp>& ops) {
  world_ = std::make_unique<World>(plan_.config, options_, engine_.get());
  MMM_RETURN_NOT_OK(world_->OpenBackend());
  for (size_t step = 0; step < ops.size(); ++step) {
    World::OpOutcome outcome = world_->ExecuteOp(ops[step], step);
    if (outcome == World::OpOutcome::kStop) break;
    if (outcome == World::OpOutcome::kSkipped) {
      ++world_->report.ops_skipped;
      continue;
    }
    ++world_->report.ops_executed;
    // Per-step chunk-refcount oracle (no-op unless CAS is on, un-sharded).
    std::string chunk_problem = world_->ChunkOracleProblem();
    if (!chunk_problem.empty()) {
      world_->Problem(step, ops[step], "chunk oracle: " + chunk_problem);
      break;
    }
    if (options_.synthetic_fault) {
      std::string injected = options_.synthetic_fault(ops[step], step);
      if (!injected.empty()) {
        world_->Problem(step, ops[step], "synthetic: " + injected);
        break;
      }
    }
  }
  world_->report.live_sets_final = world_->shadow.Live().size();
  return world_->report;
}

Result<ModelSet> FleetSimulator::RecoverOrdinal(uint64_t ordinal) {
  if (world_ == nullptr) return Status::InvalidArgument("no run yet");
  if (!world_->Usable(ordinal)) {
    return Status::NotFound("ordinal ", std::to_string(ordinal),
                            " is not live");
  }
  const std::string& id = world_->id_of[ordinal];
  if (world_->cluster != nullptr) return world_->cluster->Recover(id);
  return world_->service->Recover(id);
}

Result<std::vector<SetSummary>> FleetSimulator::LiveSummaries() {
  if (world_ == nullptr) return Status::InvalidArgument("no run yet");
  MMM_ASSIGN_OR_RETURN(std::vector<SetSummary> listed, world_->ListAll());
  std::sort(listed.begin(), listed.end(),
            [&](const SetSummary& a, const SetSummary& b) {
              return world_->ordinal_of[a.id] < world_->ordinal_of[b.id];
            });
  return listed;
}

std::vector<uint64_t> FleetSimulator::LiveOrdinals() const {
  if (world_ == nullptr) return {};
  return world_->shadow.Live();
}

}  // namespace mmm
