#ifndef MMM_FLEET_PLAN_H_
#define MMM_FLEET_PLAN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/manager.h"

namespace mmm {

/// \brief One step of a fleet-lifecycle trace.
///
/// Operations refer to model sets by *save ordinal* — the index of the save
/// operation that (would have) created the set — never by store-assigned id.
/// Ordinals are assigned at plan-generation time and carried on the op, so
/// any subsequence of a plan (the unit the trace minimizer works on) keeps
/// every reference stable: dropping a save simply leaves later references to
/// its ordinal dangling, and the simulator skips those deterministically.
enum class FleetOpKind : int {
  kSaveInitial = 0,   ///< commission a new fleet family (full snapshot)
  kSaveDerived = 1,   ///< OTA retraining wave member: derive from `base`
  kRecoverBurst = 2,  ///< Zipfian burst of recoveries through the service
  kPinSet = 3,        ///< pin a hot set in the layer cache
  kUnpinSet = 4,      ///< release a pin
  kDeleteSet = 5,     ///< decommission one set (optionally cascading)
  kRetainOnly = 6,    ///< retention sweep: keep `targets` + lineage + pins
  kCompactChains = 7, ///< rebase chains deeper than `target`
  kCheckpoint = 8,    ///< fsck + full shadow-model audit
  kKillShard = 9,     ///< cluster: fail shard `target % shards` over
  kAddShard = 10,     ///< cluster: grow the ring by one shard
  kRebalance = 11,    ///< cluster: move misplaced sets to ring owners
};

/// Canonical kind name ("save-initial", "recover", ...).
const char* FleetOpKindName(FleetOpKind kind);

struct FleetOp {
  FleetOpKind kind = FleetOpKind::kCheckpoint;
  /// kSaveInitial / kSaveDerived: this save's ordinal (plan-wide unique).
  uint64_t ordinal = 0;
  /// Saves: the approach the set is saved with.
  ApproachType approach = ApproachType::kMMlibBase;
  /// kSaveDerived: ordinal of the base set.
  uint64_t base = 0;
  /// kPinSet/kUnpinSet/kDeleteSet: target ordinal. kCompactChains: the
  /// policy's max chain depth. kKillShard: raw shard draw (mod shard count
  /// at execution time).
  uint64_t target = 0;
  /// kDeleteSet: delete dependent delta/provenance descendants too.
  bool cascade = false;
  /// kRecoverBurst: recovery target ordinals (Zipfian, newest hottest).
  /// kRetainOnly: ordinals to keep.
  std::vector<uint64_t> targets;

  /// Canonical one-line rendering, e.g. "save-derived o=7 base=3 a=update".
  std::string Render() const;
};

/// \brief Knobs of the deterministic plan generator.
///
/// Two generations from equal configs produce byte-identical plans
/// (FleetPlan::Render compares equal), independent of platform, worker
/// count, or how often generation is repeated.
struct FleetPlanConfig {
  uint64_t seed = 7;
  /// Operations to generate (a trailing checkpoint is always appended).
  size_t steps = 120;
  /// Fleet families commissioned up front (one initial save each).
  size_t families = 3;
  /// Cells per fleet (models per set). Small by default: the simulator's
  /// oracles compare every recovered byte, so horizon length, not set size,
  /// is the dimension long-horizon runs scale.
  size_t models_per_set = 4;
  /// Samples per synthetic retraining dataset (content-engine knob).
  size_t samples_per_dataset = 32;
  /// Fraction of models fully / partially retrained per derived save.
  double full_update_fraction = 0.25;
  double partial_update_fraction = 0.25;
  /// Approaches new families rotate through (family f gets entry f % size).
  std::vector<ApproachType> approaches{
      ApproachType::kMMlibBase, ApproachType::kBaseline, ApproachType::kUpdate,
      ApproachType::kProvenance};
  /// Zipfian skew of recovery targets (newest live set is hottest).
  double theta = 0.99;
  /// Recoveries per kRecoverBurst op.
  size_t burst_len = 8;
  /// Depth bound handed to kCompactChains ops.
  uint64_t compact_max_depth = 3;
  /// Ops between kCheckpoint audits (0 = only the final checkpoint).
  size_t checkpoint_interval = 25;
  /// Every `wave_interval` ops, a staggered OTA retraining wave derives a
  /// new set from every family's newest live version (0 = no waves).
  size_t wave_interval = 30;
  /// Emit kKillShard/kAddShard/kRebalance events (cluster plans only).
  bool cluster_events = false;
};

/// \brief Symbolic model of the store a fleet plan acts on.
///
/// Shared by the plan generator (to emit mostly-valid operations) and by the
/// simulator's shadow oracle (to predict the exact effect of every
/// operation). It mirrors, per saved set: liveness, the recorded base link,
/// whether the set document's kind is "full" (initial saves, Baseline/MMlib
/// saves, and compactor-rebased sets), the recorded chain depth, and pins.
///
/// The GC semantics mirrored here (see core/gc.cc): cascade deletion follows
/// *non-full* children only (full snapshots merely record lineage);
/// RetainOnly keeps the transitive base-link closure of the keep list plus
/// every pinned set; the serving layer refuses to delete any set on a pinned
/// set's full lineage walk.
class FleetSymbolicState {
 public:
  struct SymSet {
    int64_t parent = -1;  ///< base ordinal, -1 for initial saves
    ApproachType approach = ApproachType::kMMlibBase;
    uint64_t family = 0;
    bool alive = false;
    bool is_full = true;
    uint64_t depth = 0;
    bool pinned = false;
  };

  /// Registers a save op's set as alive; computes kind and depth from the
  /// approach and the base's current state. Ordinals must arrive in
  /// increasing order; gaps (skipped saves) are fine.
  void ApplySave(const FleetOp& op);

  /// Marks a save ordinal dead again (a crashed save that rolled back).
  void KillSave(uint64_t ordinal);

  bool Known(uint64_t ordinal) const;
  bool Alive(uint64_t ordinal) const;
  const SymSet& at(uint64_t ordinal) const { return sets_[ordinal]; }

  /// Live ordinals, ascending (== save order == store insertion order).
  std::vector<uint64_t> Live() const;
  /// Live ordinals of `family`, ascending.
  std::vector<uint64_t> LiveOfFamily(uint64_t family) const;
  /// Currently pinned ordinals, ascending.
  std::vector<uint64_t> Pinned() const;

  /// The sets DeleteSet(ordinal, cascade) would delete: the target plus its
  /// transitive live non-full descendants. Ascending.
  std::vector<uint64_t> DeleteClosure(uint64_t ordinal) const;
  /// True if the target has live non-full children (non-cascade delete
  /// would fail with InvalidArgument).
  bool HasDependents(uint64_t ordinal) const;
  /// Every ordinal some pinned set's full lineage walk touches (the serving
  /// layer's pin-fail guard protects exactly these).
  std::vector<uint64_t> PinProtected() const;
  /// The survivors of RetainOnly(keep): base-link closure of keep + pinned.
  std::vector<uint64_t> RetainSurvivors(const std::vector<uint64_t>& keep) const;

  /// Applies a deletion (closure already computed by the caller).
  void ApplyDelete(const std::vector<uint64_t>& closure);
  /// Applies a retention sweep; returns the deleted ordinals, ascending.
  std::vector<uint64_t> ApplyRetain(const std::vector<uint64_t>& keep);
  /// Predicts and applies one compactor pass with the given depth bound:
  /// walking every live chain root-first, a non-full set whose effective
  /// depth exceeds `max_chain_depth` is rebased to a full snapshot (depth 0)
  /// and its descendants' depths are rewritten. Returns the rebased
  /// ordinals, ascending.
  std::vector<uint64_t> ApplyCompact(uint64_t max_chain_depth);

  void Pin(uint64_t ordinal) { sets_[ordinal].pinned = true; }
  void Unpin(uint64_t ordinal) { sets_[ordinal].pinned = false; }

  /// Overrides kind/depth for one set (cluster rebalance flattens chains
  /// ring-dependently; the shadow re-bases on the store's own summaries).
  void Resync(uint64_t ordinal, bool is_full, uint64_t depth);

  /// \name Chunk-refcount shadow (CAS runs, see cas/cas_store.h).
  ///
  /// After every operation that (re)writes a set's blobs — save, crash
  /// roll-forward, compactor rebase — the simulator reads the set's
  /// manifests back from the CAS index and records, per ordinal, how many
  /// references that set holds on each chunk. The shadow then predicts the
  /// store-wide refcount map as the sum over *alive* ordinals, which the
  /// chunk oracle compares against CasStore::ChunkRefsSnapshot() after
  /// every step, along with the file store's pack listing: GC must
  /// decrement exactly the dead sets' references and drop exactly the
  /// chunks that reached zero.
  /// @{
  /// Replaces `ordinal`'s observed chunk references (hex -> refs).
  void SetChunkOwnership(uint64_t ordinal,
                         std::map<std::string, uint64_t> refs);
  /// Predicted store-wide refcounts: sum of ownership over alive ordinals.
  std::map<std::string, uint64_t> PredictedChunkRefs() const;
  /// @}

 private:
  std::vector<SymSet> sets_;  ///< indexed by ordinal
  /// ordinal -> observed chunk references; erased by KillSave (a rolled-back
  /// save wrote nothing durable), ignored for dead ordinals.
  std::map<uint64_t, std::map<std::string, uint64_t>> chunk_refs_;
};

/// \brief A generated fleet-lifecycle trace.
struct FleetPlan {
  FleetPlanConfig config;
  std::vector<FleetOp> ops;
  /// Save ops carry ordinals 0 .. save_count-1.
  uint64_t save_count = 0;

  /// Generates the trace for `config`. Pure: equal configs yield
  /// byte-identical plans.
  static FleetPlan Generate(const FleetPlanConfig& config);

  /// Canonical multi-line rendering (config header + one line per op);
  /// the determinism tests compare this byte-for-byte.
  std::string Render() const;

  /// Copy with every save op's approach forced to `type` (the differential
  /// cross-approach harness: identical structure, different approach).
  FleetPlan WithApproach(ApproachType type) const;
};

}  // namespace mmm

#endif  // MMM_FLEET_PLAN_H_
