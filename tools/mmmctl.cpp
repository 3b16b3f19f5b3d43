// mmmctl — command-line inspector for a multi-model-management store.
//
//   mmmctl <store-dir> list                 list every saved set
//   mmmctl <store-dir> lineage <set-id>     show a set's delta/prov chain
//   mmmctl <store-dir> validate             full integrity check
//   mmmctl <store-dir> fsck                 crash-recovery check: report the
//                                           open-time journal replay, validate
//                                           every set, and list orphan blobs
//   mmmctl <store-dir> show <set-id>        metadata + artifact sizes
//   mmmctl <store-dir> export <set-id> <out-dir>
//                                           recover a set and write one
//                                           state-dict blob per model
//   mmmctl <store-dir> compact [--max-depth N] [--dry-run]
//                                           rebase over-deep delta/prov chains
//                                           onto fresh full snapshots (bounding
//                                           recovery TTR), fold the metadata
//                                           log, and fsck the result
//   mmmctl <store-dir> cas-stats            content-addressed chunk store
//                                           report: unique chunks, dedup
//                                           ratio, refcount histogram,
//                                           orphans (requires a store saved
//                                           with Options::cas enabled)
//   mmmctl <store-dir> serve-replay [requests] [workers] [cache-mb] [theta]
//                                           replay a Zipfian recovery trace
//                                           over every saved set through the
//                                           serving layer and report cache
//                                           hit rate + recovery cost
//   mmmctl <root-dir> cluster init [shards] create a sharded cluster
//   mmmctl <root-dir> cluster status        per-shard sets/bytes/misplacement
//   mmmctl <root-dir> cluster rebalance     move misplaced sets to ring owners
//   mmmctl <root-dir> cluster kill-shard <name>
//                                           fail a shard over to a replacement
//                                           (journal replay over its subtree)
//   mmmctl <root-dir> cluster add-shard <name>
//                                           grow the ring (rebalance separately)
//   mmmctl <out-dir> fleet-sim [steps] [seed] [shards] [workers]
//                              [--crashes] [--cas]
//                                           run the deterministic fleet-
//                                           lifecycle simulator (in-memory
//                                           world, invariant oracles at every
//                                           step); on a violation, minimize
//                                           the failing trace with ddmin and
//                                           write <out-dir>/fleet-repro.json
//
// Export works for full-snapshot and Update chains; Provenance chains
// additionally need the external data owner, which a generic CLI does not
// have — exporting such sets reports an error explaining that.
//
// Every command-line shape error prints the one-line usage string to stderr
// and exits 64 (EX_USAGE); runtime failures print "error: ..." and exit
// nonzero.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cas/cas_store.h"
#include "cluster/coordinator.h"
#include "common/strings.h"
#include "fleet/minimize.h"
#include "fleet/simulator.h"
#include "core/blob_formats.h"
#include "core/gc.h"
#include "core/manager.h"
#include "serve/service.h"
#include "serve/trace.h"

using namespace mmm;  // NOLINT — tool code

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Single usage line for every command-shape error (wrong argument count,
/// unknown command, unknown flag), exit code 64 (EX_USAGE).
int Usage() {
  std::fprintf(stderr,
               "usage: mmmctl <store-dir> "
               "{list | lineage <set-id> | validate | fsck | show <set-id> | "
               "export <set-id> <out-dir> | delete <set-id> [--cascade] | "
               "retain <set-id>... | compact [--max-depth N] [--dry-run] | "
               "cas-stats | "
               "serve-replay [requests] [workers] [cache-mb] [theta] | "
               "cluster {init [shards] | status | rebalance | "
               "kill-shard <name> | add-shard <name>} | "
               "fleet-sim [steps] [seed] [shards] [workers] "
               "[--crashes] [--cas]}\n");
  return 64;
}

void PrintSummaryHeader() {
  std::printf("%-24s %-11s %-6s %-8s %7s %6s %10s  %s\n", "set id", "approach",
              "kind", "family", "models", "depth", "bytes", "base");
}

void PrintSummary(const SetSummary& s) {
  std::printf("%-24s %-11s %-6s %-8s %7llu %6llu %10s  %s\n", s.id.c_str(),
              s.approach.c_str(), s.kind.c_str(), s.family.c_str(),
              static_cast<unsigned long long>(s.num_models),
              static_cast<unsigned long long>(s.chain_depth),
              HumanBytes(s.artifact_bytes).c_str(), s.base_set_id.c_str());
}

int CmdList(ModelSetManager* manager) {
  auto sets = manager->ListSets();
  if (!sets.ok()) return Fail(sets.status());
  PrintSummaryHeader();
  uint64_t total = 0;
  for (const SetSummary& s : sets.ValueOrDie()) {
    PrintSummary(s);
    total += s.artifact_bytes;
  }
  std::printf("%zu sets, %s of artifacts\n", sets.ValueOrDie().size(),
              HumanBytes(total).c_str());
  return 0;
}

int CmdLineage(ModelSetManager* manager, const std::string& set_id) {
  auto chain = manager->Lineage(set_id);
  if (!chain.ok()) return Fail(chain.status());
  PrintSummaryHeader();
  for (const SetSummary& s : chain.ValueOrDie()) PrintSummary(s);
  return 0;
}

int CmdValidate(ModelSetManager* manager) {
  auto report = manager->ValidateStore();
  if (!report.ok()) return Fail(report.status());
  const StoreValidationReport& r = report.ValueOrDie();
  std::printf("checked %zu sets, %zu blobs, %s\n", r.sets_checked,
              r.blobs_checked, HumanBytes(r.bytes_checked).c_str());
  if (r.ok()) {
    std::printf("store is healthy\n");
    return 0;
  }
  for (const std::string& problem : r.problems) {
    std::printf("PROBLEM: %s\n", problem.c_str());
  }
  return 2;
}

int CmdFsck(ModelSetManager* manager) {
  // Opening the store already replayed the commit journal; report what the
  // replay repaired, then cross-check both stores against each other.
  const RepairReport& repair = manager->repair_report();
  if (repair.entries_scanned == 0) {
    std::printf("journal: clean (no interrupted commits)\n");
  } else {
    std::printf(
        "journal: %zu interrupted commit(s) — %zu rolled back, %zu completed "
        "(%zu blobs deleted, %zu docs removed, %zu docs inserted)\n",
        repair.entries_scanned, repair.rolled_back, repair.completed,
        repair.blobs_deleted, repair.docs_removed, repair.docs_inserted);
  }
  bool healthy = repair.clean();
  for (const std::string& problem : repair.problems) {
    std::printf("PROBLEM: %s\n", problem.c_str());
  }

  auto report = manager->ValidateStore();
  if (!report.ok()) return Fail(report.status());
  const StoreValidationReport& r = report.ValueOrDie();
  std::printf("checked %zu sets, %zu blobs, %s\n", r.sets_checked,
              r.blobs_checked, HumanBytes(r.bytes_checked).c_str());
  healthy = healthy && r.ok();
  for (const std::string& problem : r.problems) {
    std::printf("PROBLEM: %s\n", problem.c_str());
  }

  auto orphans = FindOrphanBlobs(manager->context());
  if (!orphans.ok()) return Fail(orphans.status());
  const OrphanReport& o = orphans.ValueOrDie();
  if (o.clean()) {
    std::printf("no orphan blobs\n");
  } else {
    healthy = false;
    for (const std::string& blob : o.orphan_blobs) {
      std::printf("PROBLEM: orphan blob '%s'\n", blob.c_str());
    }
    std::printf("%zu orphan blob(s), %s unaccounted\n", o.orphan_blobs.size(),
                HumanBytes(o.orphan_bytes).c_str());
  }

  if (healthy) {
    std::printf("store is consistent\n");
    return 0;
  }
  return 2;
}

int CmdCasStats(ModelSetManager* manager) {
  CasStore* cas = manager->cas();
  if (cas == nullptr) {
    // Opening a store that holds the CAS marker re-enables CAS
    // automatically, so reaching here means this store never used CAS.
    std::fprintf(stderr,
                 "store has no content-addressed chunk index (save with "
                 "Options::cas enabled first)\n");
    return 1;
  }
  auto stats_or = cas->ComputeStats();
  if (!stats_or.ok()) return Fail(stats_or.status());
  const CasStore::Stats& stats = stats_or.ValueOrDie();
  std::printf("manifests: %llu (%s of logical payload)\n",
              static_cast<unsigned long long>(stats.manifests),
              HumanBytes(stats.manifest_raw_bytes).c_str());
  std::printf("unique chunks: %llu (%s stored), %llu references\n",
              static_cast<unsigned long long>(stats.unique_chunks),
              HumanBytes(stats.chunk_bytes).c_str(),
              static_cast<unsigned long long>(stats.total_refs));
  std::printf("dedup ratio: %.2fx (logical bytes / stored chunk bytes)\n",
              stats.dedup_ratio());
  std::printf("refcount histogram:\n");
  for (const auto& [refs, chunks] : stats.refcount_histogram) {
    std::printf("  %6llu ref(s): %llu chunk(s)\n",
                static_cast<unsigned long long>(refs),
                static_cast<unsigned long long>(chunks));
  }
  std::printf("packs: %llu (%s), live fraction %.3f, dead bytes %s\n",
              static_cast<unsigned long long>(stats.packs),
              HumanBytes(stats.pack_bytes).c_str(), stats.live_fraction(),
              HumanBytes(stats.dead_bytes).c_str());
  if (stats.orphan_packs != 0) {
    std::printf("PROBLEM: %llu untracked pack or chunk blob(s)\n",
                static_cast<unsigned long long>(stats.orphan_packs));
  }
  std::vector<std::string> problems;
  Status audit = cas->Audit(&problems);
  if (!audit.ok()) return Fail(audit);
  for (const std::string& problem : problems) {
    std::printf("PROBLEM: %s\n", problem.c_str());
  }
  if (stats.orphan_packs == 0 && problems.empty()) {
    std::printf("chunk index is consistent\n");
    return 0;
  }
  return 2;
}

int CmdShow(ModelSetManager* manager, const std::string& set_id) {
  auto doc = manager->doc_store()->Get(kSetCollection, set_id);
  if (!doc.ok()) return Fail(doc.status());
  std::printf("%s\n", doc.ValueOrDie().DumpPretty().c_str());
  return 0;
}

int CmdExport(ModelSetManager* manager, const std::string& set_id,
              const std::string& out_dir) {
  RecoverStats stats;
  auto recovered = manager->Recover(set_id, &stats);
  if (!recovered.ok()) return Fail(recovered.status());
  const ModelSet& set = recovered.ValueOrDie();
  Status st = Env::Default()->CreateDirs(out_dir);
  if (!st.ok()) return Fail(st);
  for (size_t m = 0; m < set.models.size(); ++m) {
    std::vector<uint8_t> blob = EncodeStateDict(set.models[m]);
    std::string path = StringFormat("%s/model-%05zu.sd", out_dir.c_str(), m);
    st = Env::Default()->WriteFile(path, blob);
    if (!st.ok()) return Fail(st);
  }
  std::printf("exported %zu models of %s to %s (walked %llu sets)\n",
              set.models.size(), set.spec.family.c_str(), out_dir.c_str(),
              static_cast<unsigned long long>(stats.sets_recovered));
  return 0;
}

int CmdDelete(ModelSetManager* manager, const std::string& set_id,
              bool cascade) {
  DeleteOptions options;
  options.cascade = cascade;
  auto report = DeleteSet(manager->context(), set_id, options);
  if (!report.ok()) return Fail(report.status());
  std::printf("deleted %zu set(s), %zu blobs, reclaimed %s\n",
              report.ValueOrDie().sets_deleted,
              report.ValueOrDie().blobs_deleted,
              HumanBytes(report.ValueOrDie().bytes_reclaimed).c_str());
  return 0;
}

int CmdRetain(ModelSetManager* manager, const std::vector<std::string>& keep) {
  auto report = RetainOnly(manager->context(), keep);
  if (!report.ok()) return Fail(report.status());
  std::printf("deleted %zu set(s), reclaimed %s\n",
              report.ValueOrDie().sets_deleted,
              HumanBytes(report.ValueOrDie().bytes_reclaimed).c_str());
  return 0;
}

int CmdServeReplay(ModelSetManager* manager, size_t requests, size_t workers,
                   uint64_t cache_mb, double theta) {
  auto sets = manager->ListSets();
  if (!sets.ok()) return Fail(sets.status());
  // Newest sets first: in a versioned store the latest versions are the hot
  // ones, so they get the head of the Zipfian distribution. Provenance delta
  // sets are excluded: recovering them replays training against the external
  // data owner, which a generic CLI does not have (same limitation as
  // 'export').
  std::vector<std::string> ids;
  size_t skipped_prov = 0;
  for (const SetSummary& s : sets.ValueOrDie()) {
    if (s.kind == "prov") {
      skipped_prov += 1;
      continue;
    }
    ids.push_back(s.id);
  }
  std::reverse(ids.begin(), ids.end());
  if (skipped_prov != 0) {
    std::printf(
        "skipping %zu provenance delta set(s): replay needs the external "
        "data owner\n",
        skipped_prov);
  }
  if (ids.empty()) {
    std::fprintf(stderr, "store has no saved sets\n");
    return 1;
  }

  ModelSetServiceOptions options;
  options.workers = workers;
  options.cache_enabled = cache_mb > 0;
  options.cache_capacity_bytes = cache_mb << 20;
  ModelSetService service(manager, options);

  std::vector<std::string> trace =
      BuildZipfianTrace(ids, requests, theta, /*seed=*/7);
  std::vector<ServeResult> results = service.Replay(trace);

  size_t failed = 0;
  CacheRequestStats cache;
  uint64_t modeled = 0;
  std::vector<uint64_t> wall;
  wall.reserve(results.size());
  std::vector<std::string> failure_reasons;  // distinct, e.g. provenance
                                             // replay without a data owner
  for (const ServeResult& r : results) {
    if (!r.status.ok()) {
      failed += 1;
      std::string reason = r.set_id + ": " + r.status.ToString();
      if (std::find(failure_reasons.begin(), failure_reasons.end(), reason) ==
          failure_reasons.end()) {
        failure_reasons.push_back(reason);
      }
      continue;
    }
    cache += r.cache;
    modeled += r.modeled_store_nanos;
    wall.push_back(r.wall_nanos);
  }
  LatencySummary lat = Summarize(wall);
  LayerCacheStats cs = service.cache_stats();

  std::printf("replayed %zu requests over %zu sets (%zu workers, theta %.2f)\n",
              results.size(), ids.size(), workers, theta);
  if (failed != 0) {
    std::printf("FAILED requests: %zu\n", failed);
    for (const std::string& reason : failure_reasons) {
      std::printf("  %s\n", reason.c_str());
    }
  }
  uint64_t probes = cache.layer_hits + cache.layer_misses;
  std::printf("cache: %s capacity, %llu/%llu layer hits (%.1f%%), "
              "%llu sets served without any store read\n",
              HumanBytes(options.cache_enabled ? options.cache_capacity_bytes : 0).c_str(),
              static_cast<unsigned long long>(cache.layer_hits),
              static_cast<unsigned long long>(probes),
              probes == 0 ? 0.0 : 100.0 * cache.layer_hits / probes,
              static_cast<unsigned long long>(cache.sets_from_cache));
  std::printf("cache residency: %s in %llu entries, %llu evictions\n",
              HumanBytes(cs.bytes_used).c_str(),
              static_cast<unsigned long long>(cs.entries),
              static_cast<unsigned long long>(cs.evictions));
  std::printf("modeled store time: %.3f ms total\n", modeled / 1e6);
  std::printf("wall per request: mean %.3f ms, p50 %.3f ms, p99 %.3f ms, "
              "max %.3f ms\n",
              lat.mean / 1e6, lat.p50 / 1e6, lat.p99 / 1e6, lat.max / 1e6);
  return failed == 0 ? 0 : 2;
}

int CmdCompact(ModelSetManager* manager, const CompactionPolicy& policy) {
  // Phase 1: chain compaction — rebase every over-deep chain onto a fresh
  // full snapshot so recovery stays O(max_chain_depth).
  auto compaction = manager->CompactChains(policy);
  if (!compaction.ok()) return Fail(compaction.status());
  const CompactionReport& c = compaction.ValueOrDie();
  std::printf(
      "%schains: %zu scanned, %zu set(s) rebased, %zu doc(s) rewritten, "
      "%s written, %s reclaimed\n",
      policy.dry_run ? "[dry-run] " : "",
      static_cast<size_t>(c.chains_scanned),
      static_cast<size_t>(c.sets_rebased),
      static_cast<size_t>(c.docs_rewritten), HumanBytes(c.bytes_written).c_str(),
      HumanBytes(c.bytes_reclaimed).c_str());
  for (const std::string& id : c.rebased_set_ids) {
    std::printf("  rebased %s to a full snapshot\n", id.c_str());
  }
  for (const std::string& note : c.skipped) {
    std::printf("  skipped: %s\n", note.c_str());
  }
  if (policy.dry_run) return 0;

  // Phase 2: fold the metadata write-ahead log (rewritten set documents
  // made it grow).
  uint64_t before = manager->doc_store()->WalBytes().ValueOr(0);
  Status st = manager->CompactStore();
  if (!st.ok()) return Fail(st);
  uint64_t after = manager->doc_store()->WalBytes().ValueOr(0);
  std::printf("metadata log: %s -> %s\n", HumanBytes(before).c_str(),
              HumanBytes(after).c_str());

  // Phase 3: verify — compaction must leave the store fsck-clean (every
  // set recoverable, no orphan blobs left behind by the rebases).
  return CmdFsck(manager);
}

Result<std::unique_ptr<Coordinator>> OpenCluster(const std::string& root,
                                                 size_t shard_count) {
  ClusterOptions options;
  options.root_dir = root;
  options.shard_count = shard_count;
  return Coordinator::Open(std::move(options));
}

int CmdClusterInit(const std::string& root, size_t shards) {
  auto cluster = OpenCluster(root, shards);
  if (!cluster.ok()) return Fail(cluster.status());
  std::printf("created cluster at %s with %zu shard(s):\n", root.c_str(),
              cluster.ValueOrDie()->shard_count());
  for (const std::string& name : cluster.ValueOrDie()->ShardNames()) {
    std::printf("  %s\n", name.c_str());
  }
  return 0;
}

int CmdClusterStatus(Coordinator* cluster) {
  auto status = cluster->StatusReport();
  if (!status.ok()) return Fail(status.status());
  const ClusterStatus& s = status.ValueOrDie();
  std::printf("%zu shard(s), %zu set(s), %zu virtual nodes/shard, "
              "%llu failover(s)\n",
              s.shards.size(), s.total_sets, s.virtual_nodes,
              static_cast<unsigned long long>(s.failovers));
  std::printf("%-20s %-12s %6s %10s %10s  %s\n", "shard", "ring key", "sets",
              "misplaced", "bytes", "subtree");
  size_t misplaced = 0;
  for (const ShardStatus& row : s.shards) {
    std::printf("%-20s %-12s %6zu %10zu %10s  %s\n", row.name.c_str(),
                row.ring_key.c_str(), row.sets, row.misplaced_sets,
                HumanBytes(row.artifact_bytes).c_str(), row.root_dir.c_str());
    misplaced += row.misplaced_sets;
  }
  if (misplaced != 0) {
    std::printf("%zu misplaced set(s); run 'cluster rebalance'\n", misplaced);
  }
  return 0;
}

int CmdClusterRebalance(Coordinator* cluster) {
  auto report = cluster->Rebalance();
  if (!report.ok()) return Fail(report.status());
  const RebalanceReport& r = report.ValueOrDie();
  std::printf("rebalanced in %zu pass(es): %zu chain member(s) flattened, "
              "%zu set(s) moved (%s)\n",
              r.passes, r.chains_flattened, r.sets_moved,
              HumanBytes(r.bytes_moved).c_str());
  for (const std::string& note : r.skipped) {
    std::printf("  skipped: %s\n", note.c_str());
  }
  return 0;
}

int CmdClusterKillShard(Coordinator* cluster, const std::string& name) {
  auto replay = cluster->FailOver(name);
  if (!replay.ok()) return Fail(replay.status());
  const RepairReport& r = replay.ValueOrDie();
  std::printf("failed '%s' over to a replacement shard\n", name.c_str());
  if (r.entries_scanned == 0) {
    std::printf("journal replay: clean (no interrupted commits)\n");
  } else {
    std::printf("journal replay: %zu interrupted commit(s) — %zu rolled "
                "back, %zu completed\n",
                r.entries_scanned, r.rolled_back, r.completed);
  }
  for (const std::string& problem : r.problems) {
    std::printf("PROBLEM: %s\n", problem.c_str());
  }
  return r.clean() ? 0 : 2;
}

int CmdClusterAddShard(Coordinator* cluster, const std::string& name) {
  Status st = cluster->AddShard(name);
  if (!st.ok()) return Fail(st);
  std::printf("added shard '%s'; existing sets move on the next "
              "'cluster rebalance'\n",
              name.c_str());
  return 0;
}

int CmdFleetSim(const std::string& out_dir, const FleetPlanConfig& config,
                const FleetSimOptions& options) {
  FleetPlan plan = FleetPlan::Generate(config);
  FleetSimulator simulator(plan, options);
  auto run = simulator.Run();
  if (!run.ok()) return Fail(run.status());
  const FleetRunReport& report = run.ValueOrDie();

  std::printf("fleet-sim seed=%llu steps=%zu shards=%zu workers=%zu "
              "crashes=%s cas=%s\n",
              static_cast<unsigned long long>(config.seed), config.steps,
              options.shards, options.workers,
              options.inject_crashes ? "on" : "off",
              options.cas.enabled ? "on" : "off");
  std::printf("  %zu ops executed, %zu skipped\n", report.ops_executed,
              report.ops_skipped);
  std::printf("  %llu saves, %llu recoveries, %llu deletes, %llu retains, "
              "%llu compactions\n",
              static_cast<unsigned long long>(report.saves),
              static_cast<unsigned long long>(report.recoveries),
              static_cast<unsigned long long>(report.deletes),
              static_cast<unsigned long long>(report.retains),
              static_cast<unsigned long long>(report.compactions));
  if (options.inject_crashes) {
    std::printf("  %llu crashes injected and recovered\n",
                static_cast<unsigned long long>(report.crashes_injected));
  }
  if (options.cas.enabled) {
    std::printf("  %llu packs repacked\n",
                static_cast<unsigned long long>(report.packs_repacked));
  }
  if (options.shards > 0) {
    std::printf("  %llu failovers, %llu shards added, %llu rebalances\n",
                static_cast<unsigned long long>(report.failovers),
                static_cast<unsigned long long>(report.shards_added),
                static_cast<unsigned long long>(report.rebalances));
  }
  std::printf("  %llu live sets at end of horizon\n",
              static_cast<unsigned long long>(report.live_sets_final));
  if (report.ok()) {
    std::printf("all oracles clean\n");
    return 0;
  }

  const FleetProblem& problem = report.problems.front();
  std::printf("ORACLE VIOLATION at step %zu (%s):\n  %s\n", problem.step,
              problem.op.c_str(), problem.detail.c_str());
  std::printf("minimizing failing trace...\n");
  auto minimized = MinimizeFailingTrace(&simulator, plan.ops);
  if (!minimized.ok()) return Fail(minimized.status());
  std::string artifact = RenderRepro(plan, options, minimized.ValueOrDie());
  Status wrote = Env::Default()->CreateDirs(out_dir);
  std::string repro_path = out_dir + "/fleet-repro.json";
  if (wrote.ok()) {
    wrote = Env::Default()->WriteFile(
        repro_path, {reinterpret_cast<const uint8_t*>(artifact.data()),
                     artifact.size()});
  }
  if (!wrote.ok()) return Fail(wrote);
  std::printf("minimized to %zu ops in %zu replays (%s); repro: %s\n",
              minimized.ValueOrDie().ops.size(), minimized.ValueOrDie().runs,
              minimized.ValueOrDie().minimal ? "1-minimal" : "budget hit",
              repro_path.c_str());
  return 2;
}

int ClusterMain(const std::string& root, int argc, char** argv) {
  // argv[0] is the cluster subcommand.
  std::string sub = argv[0];
  if (sub == "init") {
    size_t shards = 1;
    if (argc >= 2) {
      char* end = nullptr;
      shards = std::strtoull(argv[1], &end, 10);
      if (end == argv[1] || *end != '\0' || shards == 0) return Usage();
    }
    return CmdClusterInit(root, shards);
  }
  // Every other subcommand operates on an existing cluster; refuse to
  // conjure one out of a typo'd path.
  auto manifest = Env::Default()->FileExists(root + "/cluster.json");
  if (!manifest.ok()) return Fail(manifest.status());
  if (!manifest.ValueOrDie()) {
    return Fail(Status::NotFound("no cluster manifest under '", root,
                                 "' (run 'mmmctl ", root, " cluster init')"));
  }
  auto cluster = OpenCluster(root, 1);
  if (!cluster.ok()) return Fail(cluster.status());
  if (sub == "status") return CmdClusterStatus(cluster.ValueOrDie().get());
  if (sub == "rebalance") {
    return CmdClusterRebalance(cluster.ValueOrDie().get());
  }
  if (sub == "kill-shard" && argc >= 2) {
    return CmdClusterKillShard(cluster.ValueOrDie().get(), argv[1]);
  }
  if (sub == "add-shard" && argc >= 2) {
    return CmdClusterAddShard(cluster.ValueOrDie().get(), argv[1]);
  }
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::string store_dir = argv[1];
  std::string command = argv[2];

  // 'cluster init' and 'fleet-sim' are the commands allowed to create their
  // directory ('fleet-sim' simulates in memory and only writes a repro
  // artifact there); everything else requires an existing store, so a
  // typo'd path is an error instead of a freshly created empty store.
  bool creates_store =
      (command == "cluster" && argc >= 4 &&
       std::strcmp(argv[3], "init") == 0) ||
      command == "fleet-sim";
  if (!creates_store) {
    auto exists = Env::Default()->FileExists(store_dir);
    if (!exists.ok()) return Fail(exists.status());
    if (!exists.ValueOrDie()) {
      return Fail(Status::NotFound("store directory '", store_dir,
                                   "' does not exist"));
    }
  }

  if (command == "cluster") {
    if (argc < 4) return Usage();
    return ClusterMain(store_dir, argc - 3, argv + 3);
  }

  if (command == "fleet-sim") {
    FleetPlanConfig config;
    FleetSimOptions options;
    int positional = 0;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--crashes") == 0) {
        options.inject_crashes = true;
        continue;
      }
      if (std::strcmp(argv[i], "--cas") == 0) {
        // Small chunk parameters relative to the defaults: the simulator's
        // sets are deliberately tiny (see FleetPlanConfig::models_per_set),
        // so production-sized chunks would leave every blob verbatim and
        // the chunk-refcount oracle vacuous.
        options.cas.enabled = true;
        options.cas.min_chunk_bytes = 256;
        options.cas.avg_chunk_bytes = 1024;
        options.cas.max_chunk_bytes = 4096;
        options.cas.min_blob_bytes = 512;
        continue;
      }
      char* end = nullptr;
      uint64_t value = std::strtoull(argv[i], &end, 10);
      if (end == argv[i] || *end != '\0') return Usage();
      switch (positional++) {
        case 0: config.steps = value; break;
        case 1: config.seed = value; break;
        case 2: options.shards = value; break;
        case 3: options.workers = value; break;
        default: return Usage();
      }
    }
    config.cluster_events = options.shards > 0;
    return CmdFleetSim(store_dir, config, options);
  }

  // Reject unknown commands before touching the store: ModelSetManager::Open
  // would otherwise initialize an empty store at a typo'd invocation.
  static const char* kStoreCommands[] = {
      "list",   "validate", "fsck",   "lineage", "show",         "export",
      "delete", "retain",   "compact", "cas-stats", "serve-replay"};
  bool known = false;
  for (const char* c : kStoreCommands) known = known || command == c;
  if (!known) return Usage();

  ModelSetManager::Options options;
  options.root_dir = store_dir;
  // Single-store CLI commands inspect exactly one un-sharded store; the
  // cluster commands above go through the Coordinator.
  // MMMSA(direct-manager-open): generic single-store inspection CLI.
  auto manager = ModelSetManager::Open(options);
  if (!manager.ok()) return Fail(manager.status());
  if (command == "list") return CmdList(manager.ValueOrDie().get());
  if (command == "validate") return CmdValidate(manager.ValueOrDie().get());
  if (command == "fsck") return CmdFsck(manager.ValueOrDie().get());
  if (command == "cas-stats") return CmdCasStats(manager.ValueOrDie().get());
  if (command == "lineage" && argc >= 4) {
    return CmdLineage(manager.ValueOrDie().get(), argv[3]);
  }
  if (command == "show" && argc >= 4) {
    return CmdShow(manager.ValueOrDie().get(), argv[3]);
  }
  if (command == "export" && argc >= 5) {
    return CmdExport(manager.ValueOrDie().get(), argv[3], argv[4]);
  }
  if (command == "delete" && argc >= 4) {
    bool cascade = argc >= 5 && std::strcmp(argv[4], "--cascade") == 0;
    return CmdDelete(manager.ValueOrDie().get(), argv[3], cascade);
  }
  if (command == "retain" && argc >= 4) {
    std::vector<std::string> keep(argv + 3, argv + argc);
    return CmdRetain(manager.ValueOrDie().get(), keep);
  }
  if (command == "compact") {
    CompactionPolicy policy;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--dry-run") == 0) {
        policy.dry_run = true;
      } else if (std::strcmp(argv[i], "--max-depth") == 0 && i + 1 < argc) {
        policy.max_chain_depth = std::strtoull(argv[++i], nullptr, 10);
      } else {
        return Usage();
      }
    }
    return CmdCompact(manager.ValueOrDie().get(), policy);
  }
  if (command == "serve-replay") {
    size_t requests = argc >= 4 ? std::strtoull(argv[3], nullptr, 10) : 200;
    size_t workers = argc >= 5 ? std::strtoull(argv[4], nullptr, 10) : 4;
    uint64_t cache_mb = argc >= 6 ? std::strtoull(argv[5], nullptr, 10) : 256;
    double theta = argc >= 7 ? std::strtod(argv[6], nullptr) : 0.99;
    return CmdServeReplay(manager.ValueOrDie().get(), requests, workers,
                          cache_mb, theta);
  }
  return Usage();
}
