#ifndef MMM_FLEET_SIMULATOR_H_
#define MMM_FLEET_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/inspect.h"
#include "fleet/content.h"
#include "fleet/plan.h"

namespace mmm {

/// \brief World configuration a fleet plan is replayed against.
struct FleetSimOptions {
  /// 0 = un-sharded world (ModelSetManager + ModelSetService);
  /// >= 1 = Coordinator cluster with that many shards.
  size_t shards = 0;
  /// Service worker lanes (ModelSetServiceOptions::workers). Oracle verdicts
  /// are identical at any worker count: the oracles compare recovered bytes,
  /// inventories, depths, and pins — never scheduling-dependent statistics.
  /// The recover_modeled_nanos measurement is the one exception: which
  /// request warms the shared layer cache first depends on worker
  /// scheduling, so that stream is byte-identical across reruns only at
  /// workers = 1; its length (one entry per served recovery) and every
  /// other report field are invariant at any worker count.
  size_t workers = 1;
  /// Store write-pipeline lanes (StorePipelineOptions::lanes).
  size_t lanes = 1;
  bool cache_enabled = true;
  /// Generous by default so pin admission never fails on capacity (pin
  /// outcomes stay deterministic across cache configurations).
  uint64_t cache_capacity_bytes = 256ull << 20;
  /// Content-addressed chunk store (cas/cas_store.h). Off by default; when
  /// enabled the run adds a chunk-refcount oracle after every executed op:
  /// the shadow's per-set chunk ownership (observed from the manifests each
  /// save/compaction wrote) summed over live sets must equal the CAS index's
  /// refcount snapshot, and the file store must list exactly the packs the
  /// index locates live chunks in — GC must decrement exactly the dead
  /// sets' references, drop exactly the zero-ref chunks, and delete or
  /// repack the packs that leaves dead. The oracle runs in un-sharded
  /// worlds; sharded
  /// runs still open every shard with CAS and audit it through fsck.
  CasOptions cas;
  /// Arm FaultInjectionEnv crash points around saves: a deterministic
  /// per-ordinal draw decides whether a save crashes mid-commit, after which
  /// the world is healed, reopened (journal replay), checked fsck-clean, and
  /// the shadow model reconciled against the store's surviving inventory.
  bool inject_crashes = false;
  uint64_t crash_seed = 17;
  /// Percent of saves armed to crash when inject_crashes is set.
  uint64_t crash_percent = 35;
  /// Writes into the commit a crash point may land on (drawn per ordinal).
  /// Must stay near a save's actual write count — a point past the commit's
  /// last write never fires and the armed save simply succeeds.
  uint64_t crash_window = 6;
  /// Recover and bit-verify every live set at every checkpoint (the
  /// strongest oracle; disable for cheap, long horizons).
  bool deep_checkpoints = true;
  /// Test hook for the minimizer suite: called after each executed op; a
  /// non-empty return is recorded as a synthetic oracle violation.
  std::function<std::string(const FleetOp& op, size_t step)> synthetic_fault;
};

/// \brief One oracle violation (or hard execution error) at a trace step.
struct FleetProblem {
  /// Index into the op sequence the run executed.
  size_t step = 0;
  /// Canonical rendering of the offending op.
  std::string op;
  std::string detail;
};

/// \brief Outcome of replaying one op sequence.
struct FleetRunReport {
  /// First (and only — the run stops there) violation, empty when clean.
  std::vector<FleetProblem> problems;
  bool ok() const { return problems.empty(); }
  /// Step index of the first problem; SIZE_MAX when clean.
  size_t failing_step = static_cast<size_t>(-1);

  size_t ops_executed = 0;
  /// Ops skipped because a referenced ordinal was unbound or dead (the
  /// minimizer's subsequences make this normal, as do crash rollbacks).
  size_t ops_skipped = 0;
  uint64_t saves = 0;
  uint64_t recoveries = 0;
  uint64_t deletes = 0;
  uint64_t retains = 0;
  uint64_t compactions = 0;
  uint64_t crashes_injected = 0;
  /// Packs CAS sweeps repacked (un-sharded CAS runs).
  uint64_t packs_repacked = 0;
  uint64_t failovers = 0;
  uint64_t shards_added = 0;
  uint64_t rebalances = 0;
  uint64_t live_sets_final = 0;

  /// Modeled store nanos of every served recovery, in request order —
  /// exact at any worker count, so reruns compare these verbatim.
  std::vector<uint64_t> recover_modeled_nanos;

  /// Storage trajectory, sampled at checkpoints.
  struct StorageSample {
    size_t step = 0;
    uint64_t live_sets = 0;
    /// Sum of live sets' file-store artifact bytes.
    uint64_t artifact_bytes = 0;
    /// Bytes and count of the full-snapshot subset (the bench derives the
    /// storage ratio vs an all-snapshots store from these).
    uint64_t full_artifact_bytes = 0;
    uint64_t full_sets = 0;
  };
  std::vector<StorageSample> storage;
};

/// \brief Replays fleet plans against a real serving world under invariant
/// oracles.
///
/// The world is built fresh (in-memory env, optionally behind fault
/// injection) at the start of every Run/RunOps, driven one op at a time, and
/// kept alive afterwards for inspection. A lightweight shadow model — the
/// plan's own FleetSymbolicState plus the ordinal→set-id binding — predicts
/// the exact effect of every operation; divergence between prediction and
/// the system under test stops the run with a FleetProblem:
///
///  - every served recovery must be bit-exact against the content engine's
///    memoized expected set, with a successful status;
///  - save results must report the shadow's predicted chain depth;
///  - DeleteSet/RetainOnly must delete exactly the predicted closure, and
///    deletes the shadow predicts to be refused (dependents without cascade,
///    pin protection) must fail;
///  - CompactChains must rebase exactly the predicted set ids, skipping
///    nothing;
///  - at checkpoints: the store inventory equals the shadow's live set,
///    recorded chain depths and kinds match per set (and match the measured
///    walk, InspectChain), pinned sets match, the store is fsck-clean
///    (validation + orphan scan + journal repair report), and optionally
///    every live set is recovered and bit-verified.
///
/// Crash injection: saves may be armed to fail mid-commit at a
/// deterministic write offset; the run then heals the env, reopens the
/// world (commit-journal replay), asserts it fsck-clean, and reconciles the
/// shadow by diffing the store's id inventory — a crashed save that rolled
/// forward binds its ordinal, one that rolled back leaves it dead. Cluster
/// rebalance flattens chains ring-dependently, so after kRebalance the
/// shadow re-syncs per-set kind/depth from the store (inventory equality is
/// still enforced).
///
/// Determinism: one Run is a pure function of (plan, options) in every
/// oracle verdict and counter at any worker count; the per-request
/// recover_modeled_nanos stream is additionally byte-stable at workers = 1
/// (see FleetSimOptions::workers).
class FleetSimulator {
 public:
  explicit FleetSimulator(FleetPlan plan, FleetSimOptions options = {});
  ~FleetSimulator();

  FleetSimulator(const FleetSimulator&) = delete;
  FleetSimulator& operator=(const FleetSimulator&) = delete;

  /// Replays the whole plan from a fresh world.
  Result<FleetRunReport> Run();

  /// Replays an arbitrary subsequence of the plan's ops from a fresh world
  /// (the minimizer's entry point). Ops must originate from this plan.
  Result<FleetRunReport> RunOps(const std::vector<FleetOp>& ops);

  /// \name Post-run inspection (world of the most recent run).
  /// @{

  /// Recovers a live ordinal through the serving path.
  Result<ModelSet> RecoverOrdinal(uint64_t ordinal);
  /// Store inventory: one summary per live set, ascending by ordinal.
  Result<std::vector<SetSummary>> LiveSummaries();
  /// Live ordinals per the shadow model, ascending.
  std::vector<uint64_t> LiveOrdinals() const;
  /// The expected-content engine (shared across runs; memoized sets are
  /// keyed by ordinal, so they are identical for any subsequence).
  FleetContentEngine* content() { return engine_.get(); }
  /// @}

  const FleetPlan& plan() const { return plan_; }
  const FleetSimOptions& options() const { return options_; }

 private:
  struct World;

  FleetPlan plan_;
  FleetSimOptions options_;
  std::unique_ptr<FleetContentEngine> engine_;
  std::unique_ptr<World> world_;
};

}  // namespace mmm

#endif  // MMM_FLEET_SIMULATOR_H_
