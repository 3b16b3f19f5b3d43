// mmmbench — the repository benchmark.
//
// Drives the public API of core (ModelSetManager), serve (ModelSetService)
// and cas from one process, checks every output, and reports time-to-save,
// time-to-recover, GC time and storage per workload (README.md).
//
//   mmmbench --workload=<name> | --all
//            [--seed=<n>] [--seconds=<s>] [--scale=full|tiny]
//            [--trace=<spans.json>] [--json=<envelope.json>] [--commit=<sha>]
//            [--workdir=<dir>] [--require=<BENCHMARK.json>]
//
// Every metric is printed as `name value unit`, with `n=<samples>` where it
// is a statistic of a sample. Without --trace the whole window of --seconds
// runs untraced and gives the end-to-end metrics. With --trace the window
// alternates untraced and traced slices of equal length, so both see the
// same host; untraced requests give the end-to-end metrics, traced ones
// record spans around every public call (and every Env call under it) and
// give the per-layer metrics, and the spans are written to the trace file.
// Exits non-zero if any operation fails or any recovered set differs from
// the one saved.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/suite/report.h"
#include "bench/suite/span_recorder.h"
#include "bench/suite/tracing_env.h"
#include "cas/cas_store.h"
#include "common/rng.h"
#include "core/blob_formats.h"
#include "core/gc.h"
#include "core/manager.h"
#include "serialize/crc32.h"
#include "serialize/sha256.h"
#include "serve/layer_cache.h"
#include "serve/service.h"
#include "serve/trace.h"
#include "workload/scenario.h"

#ifndef MMMBENCH_BUILD_TYPE
#define MMMBENCH_BUILD_TYPE "unknown"
#endif

namespace mmm::bench {
namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// A traced window alternates untraced and traced slices, this many in all.
constexpr int kTraceSlices = 20;

struct Scale {
  const char* name;
  size_t models;
  size_t samples_per_dataset;
};
constexpr Scale kScales[] = {
    {"full", 500, 256},  // 9.99 MB of FFNN-48 parameters per set
    {"tiny", 16, 32},    // the ctest smoke run
};

/// \brief One workload: closed-loop clients over one store.
///
/// Writer version v holds trained cycle v % pool. Versions form chains of
/// `chain_len`: a SaveInitial, then SaveDerived on the previous version.
/// Set-up saves the first chain, or the versions readers start from if
/// there are more. In the window an optional writer keeps saving and every
/// `gc_every` saves retains only the newest `keep` versions; readers
/// recover the newest `read_window` versions.
struct WorkloadSpec {
  const char* name;
  ApproachType approach;
  bool cas;
  size_t pool;
  size_t chain_len;
  bool writer;
  size_t readers;
  size_t gc_every;  ///< 0: no GC
  size_t keep;
  bool compact;  ///< CompactStore after each RetainOnly
  size_t read_window;
  /// Zipfian skew of the reads, newest hottest; 0 draws uniformly.
  double zipf_theta;
  /// Layer-cache capacity in units of one set's cache footprint; 0 turns
  /// the cache off.
  double cache_x_base;

  /// The request the end-to-end op_* metrics time: a save on the
  /// write-only workload, a recovery everywhere else.
  bool op_is_save() const { return readers == 0; }
  size_t clients() const { return (writer ? 1 : 0) + readers; }
  size_t setup_saves() const { return std::max(chain_len, read_window); }
};

// Why these four: README.md, "Workloads".
constexpr WorkloadSpec kWorkloads[] = {
    {.name = "ingest", .approach = ApproachType::kUpdate, .cas = false,
     .pool = 32, .chain_len = 32, .writer = true,
     .readers = 0, .gc_every = 4 * 32, .keep = 32, .compact = true,
     .read_window = 0, .zipf_theta = 0.0, .cache_x_base = 0.0},
    {.name = "recover_cold", .approach = ApproachType::kUpdate, .cas = false,
     .pool = 9, .chain_len = 9, .writer = false,
     .readers = 3, .gc_every = 0, .keep = 0, .compact = false,
     .read_window = 9, .zipf_theta = 0.0, .cache_x_base = 0.5},
    {.name = "recover_hot", .approach = ApproachType::kUpdate, .cas = false,
     .pool = 9, .chain_len = 9, .writer = false,
     .readers = 3, .gc_every = 0, .keep = 0, .compact = false,
     .read_window = 9, .zipf_theta = 0.99, .cache_x_base = 2.0},
    {.name = "cas_mixed", .approach = ApproachType::kBaseline, .cas = true,
     .pool = 16, .chain_len = 1, .writer = true,
     .readers = 2, .gc_every = 16, .keep = 16, .compact = false,
     .read_window = 8, .zipf_theta = 0.99, .cache_x_base = 0.0},
};

uint64_t ThreadCpuNanos() {
  timespec ts{};
  // MMMLINT(banned-random): thread CPU time is reported, never fed back into the workload.
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Resets the process's peak resident set to its current size, so the next
/// PeakRssMb covers only what ran since. False where the kernel does not
/// allow it; the peak then counts from process start.
bool ResetPeakRss() {
  std::FILE* file = std::fopen("/proc/self/clear_refs", "w");
  if (file == nullptr) return false;
  bool written = std::fputs("5", file) >= 0;
  return std::fclose(file) == 0 && written;
}

/// Peak resident set (VmHWM) in MB, from getrusage where /proc is missing.
double PeakRssMb() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file != nullptr) {
    char line[256];
    unsigned long long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, file) != nullptr) {
      found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
    }
    std::fclose(file);
    if (found) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Ms(uint64_t nanos) { return static_cast<double>(nanos) * 1e-6; }

bool SameModel(const StateDict& got, const StateDict& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    const Tensor& a = got[i].second;
    const Tensor& b = want[i].second;
    if (got[i].first != want[i].first || a.shape() != b.shape() ||
        std::memcmp(a.data().data(), b.data().data(), a.data().size_bytes()) != 0) {
      return false;
    }
  }
  return true;
}

bool SameSet(const ModelSet& got, const ModelSet& want) {
  if (!(got.spec == want.spec) || got.models.size() != want.models.size()) {
    return false;
  }
  for (size_t i = 0; i < got.models.size(); ++i) {
    if (!SameModel(got.models[i], want.models[i])) return false;
  }
  return true;
}

/// \brief The trained versions a set-up saves and recovers.
struct Pool {
  /// sets[k]: the deployment after k update cycles (10% of models retrained
  /// per cycle: 5% fully, 5% in their last two layers).
  std::vector<ModelSet> sets;
  uint64_t param_bytes = 0;  ///< parameter bytes of one set
  uint64_t cache_bytes = 0;  ///< LayerCache charge of one set
  double train_ms_per_cycle = 0.0;
};

Result<Pool> TrainPool(const Scale& scale, uint64_t seed, size_t cycles) {
  ScenarioConfig config = ScenarioConfig::Battery(scale.models);
  config.samples_per_dataset = scale.samples_per_dataset;
  config.seed = seed;
  MultiModelScenario scenario(config);
  MMM_RETURN_NOT_OK(scenario.Init());
  Pool pool;
  pool.sets.push_back(scenario.current_set());
  StopWatch watch;
  for (size_t k = 1; k < cycles; ++k) {
    MMM_RETURN_NOT_OK(scenario.AdvanceCycle().status());
    pool.sets.push_back(scenario.current_set());
  }
  pool.train_ms_per_cycle =
      watch.ElapsedSeconds() * 1e3 / static_cast<double>(cycles - 1);
  pool.param_bytes = LayoutNumel(LayoutOf(config.spec)) * sizeof(float) *
                     scale.models;
  for (const StateDict& model : pool.sets[0].models) {
    for (const auto& [key, tensor] : model) {
      pool.cache_bytes += LayerCache::ChargeOf(tensor);
    }
  }
  return pool;
}

/// \brief Phase-fair reader/writer gate around the store.
///
/// DocumentStore has no lock of its own, so a save must not overlap a
/// recovery; readers share the gate and the writer takes it alone. A
/// waiting writer holds back new readers, and a writer that releases the
/// gate lets the readers that waited for it in before it can take the gate
/// again. So a closed-loop writer and closed-loop readers alternate, and
/// neither starves.
class OpGate {
 public:
  void LockShared() {
    MutexLock lock(mu_);
    ++readers_waiting_;
    while (writing_ || (writers_waiting_ > 0 && !readers_turn_)) cv_.Wait(mu_);
    --readers_waiting_;
    ++readers_;
    if (readers_waiting_ == 0) readers_turn_ = false;
  }
  void UnlockShared() {
    MutexLock lock(mu_);
    if (--readers_ == 0) cv_.NotifyAll();
  }
  void Lock() {
    MutexLock lock(mu_);
    ++writers_waiting_;
    while (writing_ || readers_ > 0 || readers_turn_) cv_.Wait(mu_);
    --writers_waiting_;
    writing_ = true;
  }
  void Unlock() {
    MutexLock lock(mu_);
    writing_ = false;
    readers_turn_ = readers_waiting_ > 0;
    cv_.NotifyAll();
  }

 private:
  Mutex mu_;
  CondVar cv_;
  size_t readers_ MMM_GUARDED_BY(mu_) = 0;
  size_t readers_waiting_ MMM_GUARDED_BY(mu_) = 0;
  size_t writers_waiting_ MMM_GUARDED_BY(mu_) = 0;
  bool writing_ MMM_GUARDED_BY(mu_) = false;
  /// Set when a writer leaves with readers waiting; cleared once they are in.
  bool readers_turn_ MMM_GUARDED_BY(mu_) = false;
};

/// Holds an OpGate (if not null) until destruction or Release(), adding
/// the time spent waiting for it to `*wait_ms`.
class GateHold {
 public:
  GateHold(OpGate* gate, bool exclusive, double* wait_ms)
      : gate_(gate), exclusive_(exclusive) {
    if (gate_ == nullptr) return;
    uint64_t start = WallClock::NowNanos();
    exclusive_ ? gate_->Lock() : gate_->LockShared();
    *wait_ms += Ms(WallClock::NowNanos() - start);
  }
  ~GateHold() { Release(); }
  GateHold(const GateHold&) = delete;
  GateHold& operator=(const GateHold&) = delete;

  void Release() {
    if (gate_ == nullptr) return;
    exclusive_ ? gate_->Unlock() : gate_->UnlockShared();
    gate_ = nullptr;
  }

 private:
  OpGate* gate_;
  bool exclusive_;
};

/// Wall, thread-CPU and modeled-store time of one public call.
struct OpTiming {
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
  uint64_t modeled_ns = 0;
};

template <typename Fn>
auto Timed(SpanRecorder* recorder, bool traced, const char* span_name,
           OpTiming* timing, Fn&& fn) {
  ScopedSpan span(recorder, span_name, traced);
  uint64_t modeled = SimulatedClock::ThreadNanos();
  // The wall interval encloses the CPU interval, so wall - cpu >= 0.
  uint64_t wall = WallClock::NowNanos();
  uint64_t cpu = ThreadCpuNanos();
  auto result = fn();
  timing->cpu_ns = ThreadCpuNanos() - cpu;
  timing->wall_ns = WallClock::NowNanos() - wall;
  timing->modeled_ns = SimulatedClock::ThreadNanos() - modeled;
  return result;
}

/// Per-call timings of one kind of public call.
struct Samples {
  std::vector<double> wall_ms, cpu_ms, modeled_ms;

  size_t size() const { return wall_ms.size(); }
  void Add(const OpTiming& t) {
    wall_ms.push_back(Ms(t.wall_ns));
    cpu_ms.push_back(Ms(t.cpu_ns));
    modeled_ms.push_back(Ms(t.modeled_ns));
  }
  void Append(const Samples& other) {
    wall_ms.insert(wall_ms.end(), other.wall_ms.begin(), other.wall_ms.end());
    cpu_ms.insert(cpu_ms.end(), other.cpu_ms.begin(), other.cpu_ms.end());
    modeled_ms.insert(modeled_ms.end(), other.modeled_ms.begin(),
                      other.modeled_ms.end());
  }
};

/// \brief What the clients did; one per client and mode, merged after the
/// window.
struct OpLog {
  Samples reads, saves, gcs;
  std::vector<double> save_full_ms;
  double gate_wait_ms = 0.0;
  uint64_t read_param_bytes = 0;
  uint64_t saved_param_bytes = 0;
  uint64_t sets_walked = 0;
  CacheRequestStats cache;
  /// Store counters of saves and GCs, exact because no read overlaps them.
  StoreStats save_file, save_doc, gc_file;
  uint64_t gc_sets_deleted = 0, gc_blobs_deleted = 0, gc_bytes_reclaimed = 0,
           gc_chunks_swept = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  size_t ops() const { return reads.size() + saves.size() + gcs.size(); }

  void Fail(std::string what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(std::move(what));
  }

  void Merge(const OpLog& other) {
    reads.Append(other.reads);
    saves.Append(other.saves);
    gcs.Append(other.gcs);
    save_full_ms.insert(save_full_ms.end(), other.save_full_ms.begin(),
                        other.save_full_ms.end());
    gate_wait_ms += other.gate_wait_ms;
    read_param_bytes += other.read_param_bytes;
    saved_param_bytes += other.saved_param_bytes;
    sets_walked += other.sets_walked;
    cache += other.cache;
    save_file = save_file + other.save_file;
    save_doc = save_doc + other.save_doc;
    gc_file = gc_file + other.gc_file;
    gc_sets_deleted += other.gc_sets_deleted;
    gc_blobs_deleted += other.gc_blobs_deleted;
    gc_bytes_reclaimed += other.gc_bytes_reclaimed;
    gc_chunks_swept += other.gc_chunks_swept;
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& e : other.errors) {
      if (errors.size() < 5) errors.push_back(e);
    }
  }
};

/// \brief One measured window: the merged client logs per mode plus
/// counters read around the whole window.
struct Window {
  OpLog log[2];             ///< [0] untraced requests, [1] traced requests
  double seconds[2] = {};   ///< wall time of the untraced and traced slices
  double cpu_seconds = 0.0;
  StoreStats file;
  LayerCacheStats cache_before, cache_after;

  OpLog All() const {
    OpLog all = log[0];
    all.Merge(log[1]);
    return all;
  }
  double total_seconds() const { return seconds[0] + seconds[1]; }
};

/// A saved version: its set id and the pool set it holds.
struct Version {
  std::string id;
  size_t content = 0;
};

/// \brief One set-up of a workload and the window run over it.
class WorkloadRun {
 public:
  WorkloadRun(const WorkloadSpec& spec, const Pool& pool, std::string dir,
              SpanRecorder* recorder, uint64_t seed)
      : spec_(spec),
        pool_(pool),
        dir_(std::move(dir)),
        recorder_(recorder),
        env_(Env::Default(), recorder),
        sampler_(std::max<size_t>(spec.read_window, 1), spec.zipf_theta) {
    for (size_t c = 0; c < spec.clients(); ++c) {
      rngs_.push_back(Rng(seed).Fork("client", c));
    }
  }

  ~WorkloadRun() {
    service_.reset();
    manager_.reset();
    Status removed = Env::Default()->RemoveDirs(dir_);
    if (!removed.ok()) std::fprintf(stderr, "%s\n", removed.ToString().c_str());
  }

  WorkloadRun(const WorkloadRun&) = delete;
  WorkloadRun& operator=(const WorkloadRun&) = delete;

  /// Opens the store, saves the first versions, and reads every readable
  /// version once so caches are warm before timing.
  Status Setup(OpLog* log) {
    MMM_RETURN_NOT_OK(Env::Default()->RemoveDirs(dir_));
    ModelSetManager::Options options;
    options.root_dir = dir_;
    options.env = &env_;
    options.profile = SetupProfile::Server();
    options.cas.enabled = spec_.cas;
    MMM_ASSIGN_OR_RETURN(manager_, ModelSetManager::Open(options));
    ModelSetServiceOptions service_options;
    service_options.cache_enabled = spec_.cache_x_base > 0.0;
    service_options.cache_capacity_bytes = static_cast<uint64_t>(
        spec_.cache_x_base * static_cast<double>(pool_.cache_bytes));
    service_ = std::make_unique<ModelSetService>(manager_.get(), service_options);

    while (next_version_ < spec_.setup_saves()) Save(log, /*traced=*/false);
    for (size_t i = 0; i < std::min(spec_.read_window, live_.size()); ++i) {
      ReadOne(live_[live_.size() - 1 - i], log, /*traced=*/false);
    }
    return log->failed == 0 ? Status::OK()
                            : Status::Corruption("set-up failed: ", log->errors[0]);
  }

  /// Runs the clients for `seconds` of wall time. With `trace`, every
  /// second slice of the window is traced.
  Window RunWindow(double seconds, bool trace) {
    Window w;
    w.file = manager_->file_store()->stats();
    w.cache_before = service_->cache_stats();
    double cpu = ProcessCpuSeconds();
    uint64_t start = WallClock::NowNanos();
    uint64_t slice = trace ? static_cast<uint64_t>(seconds * 1e9 / kTraceSlices) : 0;
    uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    std::vector<OpLog> logs(2 * spec_.clients());
    std::vector<std::thread> clients;
    for (size_t c = 0; c < spec_.clients(); ++c) {
      clients.emplace_back([=, this, &logs] {
        Client(c, start, slice, deadline, &logs[2 * c]);
      });
    }
    for (std::thread& t : clients) t.join();
    uint64_t elapsed = WallClock::NowNanos() - start;
    w.cpu_seconds = ProcessCpuSeconds() - cpu;
    w.file = manager_->file_store()->stats() - w.file;
    w.cache_after = service_->cache_stats();
    for (size_t c = 0; c < spec_.clients(); ++c) {
      w.log[0].Merge(logs[2 * c]);
      w.log[1].Merge(logs[2 * c + 1]);
    }
    // Traced slices are the odd ones; the overrun past the deadline belongs
    // to the slice it falls in.
    for (uint64_t t = slice; slice != 0 && t < elapsed; t += 2 * slice) {
      w.seconds[1] += Ms(std::min(slice, elapsed - t)) * 1e-3;
    }
    w.seconds[0] = Ms(elapsed) * 1e-3 - w.seconds[1];
    return w;
  }

  /// Ends the writer's chain and runs a GC, so every run measures a store
  /// in the same state: the newest `keep` versions.
  void Finish(OpLog* log) {
    if (!spec_.writer) return;
    while (next_version_ % spec_.chain_len != 0) Save(log, /*traced=*/false);
    if (spec_.gc_every != 0 && next_version_ % spec_.gc_every != 0) {
      Gc(log, /*traced=*/false);
    }
  }

  /// Physical bytes under the store root per parameter byte of live sets.
  Result<double> SpaceAmp() {
    uint64_t physical = 0;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(dir_)) {
      if (entry.is_regular_file()) physical += entry.file_size();
    }
    MMM_ASSIGN_OR_RETURN(std::vector<SetSummary> sets, manager_->ListSets());
    return Ratio(static_cast<double>(physical),
                 static_cast<double>(sets.size() * pool_.param_bytes));
  }

  /// Recovers the newest version (on ingest the only check that the saved
  /// deltas rebuild the set), then fscks the store: every blob readable
  /// and CRC-clean, chains whole, no orphans.
  void Validate(OpLog* log) {
    ReadOne(live_.back(), log, /*traced=*/false);
    ++log->attempted;
    Result<StoreValidationReport> report = manager_->ValidateStore();
    if (!report.ok()) return log->Fail(report.status().ToString());
    for (const std::string& problem : report.ValueOrDie().problems) log->Fail(problem);
    Result<OrphanReport> orphans = FindOrphanBlobs(manager_->context());
    if (!orphans.ok()) return log->Fail(orphans.status().ToString());
    if (!orphans.ValueOrDie().clean()) log->Fail("store holds orphan blobs");
  }

  ModelSetManager* manager() { return manager_.get(); }

 private:
  /// Client 0 is the writer, if the workload has one; the rest read.
  /// `logs[1]` takes the requests started in a traced slice.
  void Client(size_t index, uint64_t start, uint64_t slice, uint64_t deadline,
              OpLog* logs) {
    Rng* rng = &rngs_[index];
    bool writer = spec_.writer && index == 0;
    for (uint64_t now = start; now < deadline; now = WallClock::NowNanos()) {
      bool traced = slice != 0 && ((now - start) / slice) % 2 == 1;
      writer ? Save(&logs[traced], traced) : Read(rng, &logs[traced], traced);
    }
  }

  /// The gate is needed only where a writer runs beside readers.
  OpGate* gate() { return spec_.writer && spec_.readers > 0 ? &gate_ : nullptr; }

  void Read(Rng* rng, OpLog* log, bool traced) {
    GateHold hold(gate(), /*exclusive=*/false, &log->gate_wait_ms);
    // Drawn under the gate, so no GC can delete it before the read.
    size_t pick = std::min(sampler_.Sample(rng), live_.size() - 1);
    ReadOne(live_[live_.size() - 1 - pick], log, traced, &hold);
  }

  /// Recovers `v` through the service and compares it with the pool set;
  /// releases `hold` (if any) before the comparison.
  void ReadOne(Version v, OpLog* log, bool traced, GateHold* hold = nullptr) {
    ServeResult served;
    OpTiming t;
    Result<ModelSet> got = Timed(recorder_, traced, "serve.recover", &t,
                                 [&] { return service_->Recover(v.id, &served); });
    if (hold != nullptr) hold->Release();
    ++log->attempted;
    if (!got.ok()) return log->Fail("recover " + v.id + ": " + got.status().ToString());
    if (!SameSet(got.ValueOrDie(), pool_.sets[v.content])) {
      return log->Fail("recover " + v.id + ": recovered set differs from the saved one");
    }
    log->reads.Add(t);
    log->read_param_bytes += pool_.param_bytes;
    log->sets_walked += served.sets_walked;
    log->cache += served.cache;
  }

  /// Saves the next writer version, then runs the GC when one is due.
  void Save(OpLog* log, bool traced) {
    GateHold hold(gate(), /*exclusive=*/true, &log->gate_wait_ms);
    size_t v = next_version_++;
    bool full = v % spec_.chain_len == 0;
    const ModelSet& set = pool_.sets[v % spec_.pool];
    StoreStats file = manager_->file_store()->stats();
    StoreStats doc = manager_->doc_store()->stats();
    OpTiming t;
    Result<SaveResult> saved =
        Timed(recorder_, traced, full ? "core.save_full" : "core.save", &t, [&] {
          if (full) return manager_->SaveInitial(spec_.approach, set);
          ModelSetUpdateInfo update;
          update.base_set_id = live_.back().id;
          return manager_->SaveDerived(spec_.approach, set, update);
        });
    ++log->attempted;
    if (!saved.ok()) return log->Fail("save: " + saved.status().ToString());
    log->save_file = log->save_file + (manager_->file_store()->stats() - file);
    log->save_doc = log->save_doc + (manager_->doc_store()->stats() - doc);
    log->saves.Add(t);
    if (full) log->save_full_ms.push_back(Ms(t.wall_ns));
    log->saved_param_bytes += pool_.param_bytes;
    live_.push_back(Version{saved.ValueOrDie().set_id, v % spec_.pool});
    if (spec_.gc_every != 0 && next_version_ % spec_.gc_every == 0) Gc(log, traced);
  }

  /// Retains only the newest `keep` versions. Runs on the writer, inside
  /// its exclusive hold when called from Save.
  void Gc(OpLog* log, bool traced) {
    std::vector<std::string> keep_ids;
    for (size_t i = live_.size() - std::min(spec_.keep, live_.size()); i < live_.size(); ++i) {
      keep_ids.push_back(live_[i].id);
    }
    StoreStats file = manager_->file_store()->stats();
    OpTiming t;
    Result<DeleteReport> report =
        Timed(recorder_, traced, "core.gc", &t, [&]() -> Result<DeleteReport> {
          MMM_ASSIGN_OR_RETURN(DeleteReport r, service_->RetainOnly(keep_ids));
          if (spec_.compact) MMM_RETURN_NOT_OK(manager_->CompactStore());
          return r;
        });
    ++log->attempted;
    if (!report.ok()) return log->Fail("gc: " + report.status().ToString());
    const DeleteReport& r = report.ValueOrDie();
    log->gc_file = log->gc_file + (manager_->file_store()->stats() - file);
    log->gcs.Add(t);
    log->gc_sets_deleted += r.sets_deleted;
    log->gc_blobs_deleted += r.blobs_deleted;
    log->gc_bytes_reclaimed += r.bytes_reclaimed;
    log->gc_chunks_swept += r.chunks_swept;
    for (const std::string& id : r.deleted_set_ids) {
      live_.erase(std::remove_if(live_.begin(), live_.end(),
                                 [&](const Version& v) { return v.id == id; }),
                  live_.end());
    }
  }

  const WorkloadSpec& spec_;
  const Pool& pool_;
  std::string dir_;
  SpanRecorder* recorder_;
  TracingEnv env_;
  ZipfianSampler sampler_;
  std::vector<Rng> rngs_;
  std::unique_ptr<ModelSetManager> manager_;
  std::unique_ptr<ModelSetService> service_;
  OpGate gate_;
  /// Writer state. Only the writer changes it, and only while no reader
  /// holds the gate; without a writer it is fixed after Setup.
  size_t next_version_ = 0;
  std::deque<Version> live_;  ///< oldest first
};

/// Hashing throughput over one set's parameter blob, median of 3 passes.
std::pair<double, double> SerializeMbps(const ModelSet& set) {
  std::vector<uint8_t> blob = EncodeParamBlob(set);
  double mb = static_cast<double>(blob.size()) / 1e6;
  std::vector<double> sha, crc;
  for (int pass = 0; pass < 3; ++pass) {
    StopWatch watch;
    Sha256::Hash(blob);
    sha.push_back(mb / watch.ElapsedSeconds());
    watch.Start();
    Crc32::Compute(blob);
    crc.push_back(mb / watch.ElapsedSeconds());
  }
  return {Quantile(sha, 0.5), Quantile(crc, 0.5)};
}

const Samples& OpSamples(const WorkloadSpec& spec, const OpLog& log) {
  return spec.op_is_save() ? log.saves : log.reads;
}

/// The untraced requests' metrics: the workload's measured request (op_*),
/// then the writer's numbers where saves are not that request.
void AddEndToEnd(const WorkloadSpec& spec, const OpLog& log, double seconds,
                 const std::vector<double>& setup_s, double space_amp, Report* r) {
  const Samples& op = OpSamples(spec, log);
  r->AddSampled("setup_s", Quantile(setup_s, 0.5), "s", setup_s);
  r->AddSampled("op_ms_p50", Quantile(op.wall_ms, 0.5), "ms", op.wall_ms);
  r->AddSampled("op_ms_p90", Quantile(op.wall_ms, 0.9), "ms", op.wall_ms);
  if (op.size() >= 1000) {
    r->AddSampled("op_ms_p99", Quantile(op.wall_ms, 0.99), "ms", op.wall_ms);
  }
  r->Add("ops_per_s", Ratio(static_cast<double>(op.size()), seconds), "1/s");
  r->AddSampled("op_modeled_ms", Mean(op.modeled_ms), "ms", op.modeled_ms);
  r->Add("space_amp", space_amp, "ratio");
  if (!spec.writer) return;
  if (spec.chain_len > 1) {
    r->AddSampled("tts_full_ms_p50", Quantile(log.save_full_ms, 0.5), "ms",
                  log.save_full_ms);
  }
  if (!spec.op_is_save()) {
    r->AddSampled("tts_ms_p50", Quantile(log.saves.wall_ms, 0.5), "ms",
                  log.saves.wall_ms);
    r->AddSampled("tts_modeled_ms", Mean(log.saves.modeled_ms), "ms",
                  log.saves.modeled_ms);
  }
  r->AddSampled("gc_ms_p50", Quantile(log.gcs.wall_ms, 0.5), "ms", log.gcs.wall_ms);
}

/// \brief Sums of the Env spans under one request's root span.
struct EnvUse {
  uint64_t read_calls = 0, read_bytes = 0;
  uint64_t write_calls = 0, write_bytes = 0;
  uint64_t total_ns = 0;
};

/// Per-layer metrics. Spans come from the traced requests; store, cache and
/// CPU counters are read around the whole window, which tracing does not
/// change.
void AddPerLayer(const WorkloadSpec& spec, const Window& w,
                 const std::vector<Span>& spans, Report* r) {
  std::map<uint64_t, EnvUse> env;  // root span id -> Env use under it
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    EnvUse& use = env[s.request];
    use.total_ns += s.duration_ns();
    if (std::strcmp(s.name, "storage.env.read") == 0) {
      ++use.read_calls;
      use.read_bytes += s.bytes;
    } else if (std::strcmp(s.name, "storage.env.write") == 0) {
      ++use.write_calls;
      use.write_bytes += s.bytes;
    }
  }
  // A request's self time is its span minus its Env children, which run
  // one after another on the request's thread, so self + Env = span.
  EnvUse reads_env, saves_env;
  double traced_reads = 0, traced_saves = 0;
  uint64_t root_ns = 0, env_ns = 0;
  std::vector<double> op_self;
  for (const Span& s : spans) {
    if (s.parent != 0) continue;
    const EnvUse& use = env[s.id];
    root_ns += s.duration_ns();
    env_ns += use.total_ns;
    bool read = std::strcmp(s.name, "serve.recover") == 0;
    bool save = !read && std::strcmp(s.name, "core.gc") != 0;
    if (read) {
      ++traced_reads;
      reads_env.read_calls += use.read_calls;
      reads_env.read_bytes += use.read_bytes;
    } else if (save) {
      ++traced_saves;
      saves_env.write_calls += use.write_calls;
      saves_env.write_bytes += use.write_bytes;
    }
    if (spec.op_is_save() ? save : read) op_self.push_back(Ms(s.duration_ns() - use.total_ns));
  }
  OpLog log = w.All();
  double reads = static_cast<double>(log.reads.size());
  double saves = static_cast<double>(log.saves.size());
  double gcs = static_cast<double>(log.gcs.size());
  auto d = [](uint64_t v) { return static_cast<double>(v); };

  // storage: Env calls under each request, FileStore/DocumentStore counters.
  r->Add("storage.env.read_calls_per_req", Ratio(d(reads_env.read_calls), traced_reads), "count");
  r->Add("storage.env.read_bytes_per_req", Ratio(d(reads_env.read_bytes), traced_reads), "bytes");
  r->Add("storage.env.write_calls_per_save", Ratio(d(saves_env.write_calls), traced_saves), "count");
  r->Add("storage.env.write_bytes_per_save", Ratio(d(saves_env.write_bytes), traced_saves), "bytes");
  r->Add("storage.env.share", Ratio(d(env_ns), d(root_ns)), "ratio");
  StoreStats read_file = w.file - log.save_file - log.gc_file;
  r->Add("storage.file.read_ops_per_req", Ratio(d(read_file.read_ops), reads), "count");
  r->Add("storage.file.bytes_read_per_req", Ratio(d(read_file.bytes_read), reads), "bytes");
  r->Add("storage.file.write_ops_per_save", Ratio(d(log.save_file.write_ops), saves), "count");
  r->Add("storage.doc.write_ops_per_save", Ratio(d(log.save_doc.write_ops), saves), "count");
  r->Add("storage.read_amp", Ratio(d(read_file.bytes_read), d(log.read_param_bytes)), "ratio");
  r->Add("storage.write_amp",
         Ratio(d(log.save_file.bytes_written + log.save_doc.bytes_written),
               d(log.saved_param_bytes)),
         "ratio");

  // core: the measured request's span minus its Env children; GC counts.
  r->AddSampled("core.op.self_ms_p50", Quantile(op_self, 0.5), "ms", op_self);
  r->Add("core.recover.sets_walked_mean", Ratio(d(log.sets_walked), reads), "count");
  r->Add("core.gc.sets_deleted", Ratio(d(log.gc_sets_deleted), gcs), "count");
  r->Add("core.gc.blobs_deleted", Ratio(d(log.gc_blobs_deleted), gcs), "count");
  r->Add("core.gc.bytes_reclaimed", Ratio(d(log.gc_bytes_reclaimed), gcs), "bytes");

  // serve: cache effectiveness with base counts.
  const CacheRequestStats& c = log.cache;
  uint64_t layer_probes = c.layer_hits + c.layer_misses;
  uint64_t meta_probes = c.meta_hits + c.meta_misses;
  r->Add("serve.cache.layer_hit_ratio", Ratio(d(c.layer_hits), d(layer_probes)), "ratio");
  r->Add("serve.cache.layer_probes", d(layer_probes), "count");
  r->Add("serve.cache.meta_hit_ratio", Ratio(d(c.meta_hits), d(meta_probes)), "ratio");
  r->Add("serve.cache.meta_probes", d(meta_probes), "count");
  r->Add("serve.cache.sets_from_cache_ratio",
         Ratio(d(c.sets_from_cache), d(log.sets_walked)), "ratio");
  r->Add("serve.cache.sets_walked", d(log.sets_walked), "count");
  r->Add("serve.cache.evictions_per_req",
         Ratio(d(w.cache_after.evictions - w.cache_before.evictions), reads), "count");
  r->Add("serve.cache.rejected_per_req",
         Ratio(d(w.cache_after.rejected - w.cache_before.rejected), reads), "count");
  r->Add("serve.cache.bytes_used", d(w.cache_after.bytes_used), "bytes");
  r->Add("cas.chunks_swept_per_gc", Ratio(d(log.gc_chunks_swept), gcs), "count");

  // proc: CPU and off-CPU (lock waits, I/O, preemption) of the measured
  // request, and of the process.
  const Samples& op = OpSamples(spec, log);
  std::vector<double> offcpu;
  for (size_t i = 0; i < op.size(); ++i) offcpu.push_back(op.wall_ms[i] - op.cpu_ms[i]);
  r->AddSampled("proc.op.cpu_ms_p50", Quantile(op.cpu_ms, 0.5), "ms", op.cpu_ms);
  r->AddSampled("proc.op.offcpu_ms_p50", Quantile(offcpu, 0.5), "ms", offcpu);
  r->AddSampled("proc.op.offcpu_ms_p90", Quantile(offcpu, 0.9), "ms", offcpu);
  double clients = static_cast<double>(spec.clients());
  r->Add("workload.gate_wait_share",
         Ratio(log.gate_wait_ms * 1e-3, w.total_seconds() * clients), "ratio");
  r->Add("proc.cpu_util", Ratio(w.cpu_seconds, w.total_seconds() * clients), "ratio");
  r->Add("proc.cpu_ms_per_op", Ratio(w.cpu_seconds * 1e3, d(log.ops())), "ms");
  // Public calls per second in the traced slices against the untraced ones
  // they alternate with.
  double untraced = Ratio(d(w.log[0].ops()), w.seconds[0]);
  double traced = Ratio(d(w.log[1].ops()), w.seconds[1]);
  r->Add("trace.overhead_pct", 100.0 * (1.0 - Ratio(traced, untraced)), "%");
}

void AddStoreLayers(ModelSetManager* manager, const Pool& pool, Report* r) {
  CasStore::Stats cas;
  if (manager->cas() != nullptr) {
    Result<CasStore::Stats> stats = manager->cas()->ComputeStats();
    if (stats.ok()) cas = stats.ValueOrDie();
  }
  r->Add("cas.dedup_ratio", cas.dedup_ratio(), "ratio");
  r->Add("cas.unique_chunks", static_cast<double>(cas.unique_chunks), "count");
  r->Add("cas.chunk_bytes", static_cast<double>(cas.chunk_bytes), "bytes");
  auto [sha_mbps, crc_mbps] = SerializeMbps(pool.sets[0]);
  r->Add("serialize.sha256_mbps", sha_mbps, "MB/s");
  r->Add("serialize.crc32_mbps", crc_mbps, "MB/s");
}

struct Flags {
  std::vector<const WorkloadSpec*> workloads;
  uint64_t seed = 1;
  double seconds = 20.0;
  const Scale* scale = &kScales[0];
  std::string trace_path;
  std::string json_path;
  std::string commit = "unknown";
  std::string workdir = "mmmbench-work";
  std::string require_path;
};

/// Names of BENCHMARK.json's end_to_end metrics, plus its per_layer ones
/// when `per_layer` is set.
Result<std::vector<std::string>> RequiredMetrics(const std::string& path,
                                                 bool per_layer) {
  MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, Env::Default()->ReadFile(path));
  MMM_ASSIGN_OR_RETURN(
      JsonValue doc,
      JsonValue::Parse(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                                        bytes.size())));
  std::vector<std::string> names;
  for (const char* key : {"end_to_end", "per_layer"}) {
    if (!per_layer && std::strcmp(key, "per_layer") == 0) break;
    MMM_ASSIGN_OR_RETURN(const JsonValue* list, doc.Get(key));
    for (const JsonValue& metric : list->array_items()) {
      MMM_ASSIGN_OR_RETURN(std::string name, metric.GetString("name"));
      names.push_back(std::move(name));
    }
  }
  return names;
}

/// Runs one workload end to end; returns its envelope entry.
JsonValue RunWorkload(const WorkloadSpec& spec, const Flags& opts,
                      SpanRecorder* recorder, bool* ok) {
  std::printf("# workload %s\n", spec.name);
  std::fflush(stdout);
  bool traced = !opts.trace_path.empty();
  OpLog total;
  std::vector<double> setup_s, train_ms;
  std::unique_ptr<Pool> pool;
  std::unique_ptr<WorkloadRun> run;
  Status status = Status::OK();
  for (int rep = 0; rep < kSetupRepeats && status.ok(); ++rep) {
    run.reset();  // tear the previous set-up down before timing the next
    pool.reset();
    StopWatch watch;
    Result<Pool> trained = TrainPool(*opts.scale, opts.seed, spec.pool);
    status = trained.status();
    if (!status.ok()) break;
    pool = std::make_unique<Pool>(std::move(trained).ValueOrDie());
    run = std::make_unique<WorkloadRun>(
        spec, *pool, opts.workdir + "/" + spec.name + "-" + std::to_string(rep),
        recorder, opts.seed);
    OpLog setup_log;
    status = run->Setup(&setup_log);
    total.Merge(setup_log);
    setup_s.push_back(watch.ElapsedSeconds());
    train_ms.push_back(pool->train_ms_per_cycle);
  }

  Report report;
  if (status.ok()) {
    if (!ResetPeakRss()) {
      std::printf("# peak_rss_mb counts from process start (clear_refs unavailable)\n");
    }
    recorder->Clear();
    Window window = run->RunWindow(opts.seconds, traced);
    total.Merge(window.log[0]);
    total.Merge(window.log[1]);
    std::vector<Span> spans;
    if (traced) {
      spans = recorder->Collect();
      std::string path = opts.trace_path;
      if (opts.workloads.size() > 1) path += std::string(".") + spec.name;
      Status dumped = SpanRecorder::Dump(spans, path);
      if (!dumped.ok()) total.Fail(dumped.ToString());
    }
    OpLog finish;
    run->Finish(&finish);
    Result<double> space_amp = run->SpaceAmp();
    if (!space_amp.ok()) finish.Fail(space_amp.status().ToString());
    run->Validate(&finish);
    total.Merge(finish);

    AddEndToEnd(spec, window.log[0], window.seconds[0], setup_s,
                space_amp.ok() ? space_amp.ValueOrDie() : 0.0, &report);
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    report.Add("failed_ratio",
               Ratio(static_cast<double>(total.failed), static_cast<double>(total.attempted)),
               "ratio");
    if (traced) {
      AddPerLayer(spec, window, spans, &report);
      AddStoreLayers(run->manager(), *pool, &report);
      report.AddSampled("workload.train_ms_per_cycle", Quantile(train_ms, 0.5), "ms",
                        train_ms);
    }
  } else {
    total.Fail(status.ToString());
  }
  run.reset();
  report.Print();
  for (const std::string& e : total.errors) std::printf("# error: %s\n", e.c_str());
  std::fflush(stdout);
  if (total.failed != 0 || !status.ok()) *ok = false;

  JsonValue entry = JsonValue::Object();
  entry.Set("attempted", total.attempted);
  entry.Set("failed", total.failed);
  JsonValue errors = JsonValue::Array();
  for (const std::string& e : total.errors) errors.Append(e);
  entry.Set("errors", std::move(errors));
  entry.Set("metrics", report.ToJson());

  if (!opts.require_path.empty()) {
    Result<std::vector<std::string>> required =
        RequiredMetrics(opts.require_path, traced);
    if (!required.ok()) {
      std::printf("# error: %s\n", required.status().ToString().c_str());
      *ok = false;
    } else {
      for (const std::string& name : required.ValueOrDie()) {
        if (!report.Has(name)) {
          std::printf("# error: metric %s is not reported\n", name.c_str());
          *ok = false;
        }
      }
    }
  }
  return entry;
}

bool ParseArgs(int argc, char** argv, Flags* opts) {
  bool all = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    if (arg == "--all") {
      all = true;
    } else if (const char* v = value("--workload=")) {
      const WorkloadSpec* found = nullptr;
      for (const WorkloadSpec& spec : kWorkloads) {
        if (spec.name == std::string(v)) found = &spec;
      }
      if (found == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", v);
        return false;
      }
      opts->workloads.push_back(found);
    } else if (const char* v = value("--seed=")) {
      opts->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      opts->seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--scale=")) {
      opts->scale = nullptr;
      for (const Scale& scale : kScales) {
        if (scale.name == std::string(v)) opts->scale = &scale;
      }
      if (opts->scale == nullptr) {
        std::fprintf(stderr, "unknown scale '%s'\n", v);
        return false;
      }
    } else if (const char* v = value("--trace=")) {
      opts->trace_path = v;
    } else if (const char* v = value("--json=")) {
      opts->json_path = v;
    } else if (const char* v = value("--commit=")) {
      opts->commit = v;
    } else if (const char* v = value("--workdir=")) {
      opts->workdir = v;
    } else if (const char* v = value("--require=")) {
      opts->require_path = v;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  if (all) {
    opts->workloads.clear();
    for (const WorkloadSpec& spec : kWorkloads) opts->workloads.push_back(&spec);
  }
  if (opts->workloads.empty() || !(opts->seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: mmmbench --workload=<name>|--all [--seed=<n>] "
                 "[--seconds=<s>] [--scale=full|tiny] [--trace=<file>] "
                 "[--json=<file>] [--commit=<sha>] [--workdir=<dir>] "
                 "[--require=<BENCHMARK.json>]\n");
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Flags opts;
  if (!ParseArgs(argc, argv, &opts)) return 64;
  std::printf("# mmmbench seed=%llu seconds=%g scale=%s models=%zu build=%s\n",
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.scale->name, opts.scale->models, MMMBENCH_BUILD_TYPE);
  SpanRecorder recorder;
  bool ok = true;
  JsonValue workloads = JsonValue::Object();
  for (const WorkloadSpec* spec : opts.workloads) {
    workloads.Set(spec->name, RunWorkload(*spec, opts, &recorder, &ok));
  }
  Status removed = Env::Default()->RemoveDirs(opts.workdir);
  if (!removed.ok()) std::fprintf(stderr, "%s\n", removed.ToString().c_str());

  if (!opts.json_path.empty()) {
    JsonValue envelope = JsonValue::Object();
    envelope.Set("bench", "mmmbench");
    envelope.Set("commit", opts.commit);
    envelope.Set("nproc", static_cast<uint64_t>(std::thread::hardware_concurrency()));
    envelope.Set("build_type", MMMBENCH_BUILD_TYPE);
    envelope.Set("seed", opts.seed);
    envelope.Set("scale", opts.scale->name);
    envelope.Set("models", static_cast<uint64_t>(opts.scale->models));
    envelope.Set("seconds", opts.seconds);
    envelope.Set("traced", !opts.trace_path.empty());
    envelope.Set("ok", ok);
    envelope.Set("workloads", std::move(workloads));
    std::string text = envelope.DumpPretty() + "\n";
    Status written = Env::Default()->WriteFile(
        opts.json_path,
        std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(text.data()),
                                 text.size()));
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace mmm::bench

int main(int argc, char** argv) { return mmm::bench::Main(argc, argv); }
