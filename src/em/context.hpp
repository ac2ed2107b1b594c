// context.hpp — bundles the machine parameters of one EM computation.
//
// A Context owns the memory budget (capacity M bytes) and references the
// block device (block size B bytes).  Algorithms receive a Context& and
// derive per-record-type capacities from it:
//
//   ctx.block_records<T>()  — the model's B, in records of type T
//   ctx.mem_records<T>()    — the model's M, in records of type T
//
// The model requires M >= 2B; the constructor enforces it.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "em/block_device.hpp"
#include "em/memory_budget.hpp"
#include "em/phase_profile.hpp"

namespace emsplit {

class CheckpointJournal;
class PassTraceLog;

/// Knobs for batched I/O (docs/model.md, "I/O batching").  The default —
/// one block per call — reproduces the classic single-buffered streams
/// exactly, I/O count for I/O count.
struct IoTuning {
  /// Blocks the stream classes move per device call (read_blocks /
  /// write_blocks batching).  Only takes effect for record types whose size
  /// divides the block size (otherwise per-block tail padding makes
  /// multi-block record spans discontiguous and streams fall back to 1).
  std::size_t batch_blocks = 1;
  /// Retired: kept only so three-member initializers such as
  /// `IoTuning{batch, 0, false}` still compile.  set_io_tuning rejects any
  /// value but 0.
  std::size_t queue_depth = 0;
  /// Retired, like queue_depth: set_io_tuning rejects any value but false.
  bool async = false;
};

/// Knobs for the multi-process worker layer (em/worker_group.hpp,
/// docs/model.md "Multi-worker partitioning and the PEM model").  Like
/// batch_blocks, `workers` is geometry, never output: the
/// distributed passes decompose into work units whose shape depends only on
/// (n, B, M, tuning); W merely assigns units to processes, so every W
/// produces bit-identical bytes and identical logical IoStats totals.
struct WorkerTuning {
  /// Cooperating workers per distributed pass.  0 (the default) disables the
  /// distributed path entirely — algorithms run the classic single-process
  /// code.  1 runs the distributed protocol with a single worker (same
  /// schedule as any other W; useful as the parity baseline).
  std::size_t workers = 0;
  /// Crash injection for the resume tests: worker `kill_worker` dies
  /// (`_exit(137)` when forked, WorkerDied when inline) at the start of
  /// distributed round `kill_round` (1-based).  kill_round = 0 disarms.
  std::size_t kill_worker = 0;
  std::uint64_t kill_round = 0;
  /// Round supervision (em/worker_group.hpp, "Worker supervision" in
  /// docs/model.md).  0 — the default and the seed behavior — makes any
  /// worker failure fatal to the pass (WorkerDied; a journaled caller
  /// resumes).  N >= 1 lets the supervisor re-execute a failed worker's unit
  /// schedule inline up to N times per worker per round, with exponential
  /// backoff starting at `retry_backoff`.  Re-executed I/O is attributed to
  /// IoStats::worker_retries; base counts stay identical to the fault-free
  /// run (the units are idempotent by the W-invariance contract).
  std::uint64_t max_worker_retries = 0;
  std::chrono::microseconds retry_backoff{0};
  /// Per-round deadline in seconds for forked workers (0 = no deadline, the
  /// seed's blocking drain).  A worker whose frame has not fully arrived by
  /// the deadline is SIGKILLed and treated as a crash — recoverable when
  /// max_worker_retries > 0.  A spurious timeout is safe: the unit schedule
  /// is idempotent, so re-execution merely costs worker_retries.
  double worker_timeout = 0.0;
  /// Elastic degradation: after this many worker failures within one group
  /// (counted across rounds), remaining rounds re-plan at half the workers
  /// (floor, min 1) — output-transparent by W-invariance.  0 disables.
  std::uint64_t degrade_after = 0;
  /// Hang injection: worker `hang_worker` completes its round body, then
  /// sleeps forever *before* writing its frame in round `hang_round` —
  /// proving completed work is safely re-executable.  hang_round = 0 disarms.
  std::size_t hang_worker = 0;
  std::uint64_t hang_round = 0;
  /// Frame-corruption injection: worker `corrupt_worker`'s result frame for
  /// round `corrupt_round` has one payload byte flipped after the integrity
  /// checksum is computed.  corrupt_round = 0 disarms.
  std::size_t corrupt_worker = 0;
  std::uint64_t corrupt_round = 0;
  /// Memory-partitioning width: each distributed worker plans against and is
  /// budgeted M / mem_workers bytes, so any W <= mem_workers keeps the
  /// aggregate in-flight footprint <= M.  A *geometry* knob (it shapes unit
  /// sizes), deliberately separate from `workers` so W itself stays
  /// execution-only: every W at fixed mem_workers is bit-identical.  1 — the
  /// default — reproduces the seed plan (workers share the full budget).
  std::size_t mem_workers = 1;
};

/// One structured supervision event from a distributed round — appended to
/// the owning pass's PassTrace row and the JSONL trace.  `kind` is one of
/// "death" (child died / pipe EOF before a complete frame), "timeout" (a
/// worker was SIGKILLed past the round deadline), "corrupt-frame" (a frame
/// failed its integrity check), "retry" (a failed worker's units were
/// re-executed), "give-up" (retries exhausted; the failure became fatal), or
/// "degrade" (the group re-planned at half the workers).
struct SupervisionEvent {
  std::uint64_t round = 0;
  std::size_t worker = 0;
  std::string kind;
  std::string detail;
};

/// One worker's contribution to a distributed pass: its share of the pass's
/// I/O delta, which the rows partition.  `seconds` is the worker's busy
/// time inside the round body; `barrier_seconds` the time it waited at the
/// closing barrier for the slowest peer (max busy − own busy).
struct PassWorkerIo {
  std::size_t worker = 0;
  IoStats io;
  double seconds = 0.0;
  double barrier_seconds = 0.0;
  /// The worker's peak MemoryBudget reservation inside its round bodies —
  /// what the M/mem_workers partitioning contract is asserted against
  /// (summed over any mem_workers concurrent workers it stays <= M).  0 when
  /// unknown (inline rounds run against the coordinator's own budget).
  std::uint64_t peak_bytes = 0;
};

class Context {
 public:
  /// `mem_bytes` is the internal-memory capacity M (in bytes); the block
  /// size B comes from the device.
  Context(BlockDevice& device, std::size_t mem_bytes)
      : device_(&device), budget_(mem_bytes) {
    if (mem_bytes < 2 * device.block_bytes()) {
      throw std::invalid_argument(
          "Context: the EM model requires M >= 2B (mem_bytes >= 2 * "
          "block_bytes)");
    }
  }

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  [[nodiscard]] BlockDevice& device() const noexcept { return *device_; }
  [[nodiscard]] MemoryBudget& budget() noexcept { return budget_; }
  [[nodiscard]] const MemoryBudget& budget() const noexcept { return budget_; }

  [[nodiscard]] std::size_t mem_bytes() const noexcept {
    return budget_.capacity();
  }
  [[nodiscard]] std::size_t block_bytes() const noexcept {
    return device_->block_bytes();
  }

  /// B in records of type T: floor(block_bytes / sizeof(T)).  A block stores
  /// whole records only; when the record size does not divide the block size
  /// the tail of each block is unused (the device supports prefix transfers
  /// at the same one-I/O cost).
  template <typename T>
  [[nodiscard]] std::size_t block_records() const {
    static_assert(sizeof(T) > 0);
    const std::size_t b = block_bytes() / sizeof(T);
    if (b == 0) {
      throw std::invalid_argument(
          "Context::block_records: record larger than one block");
    }
    return b;
  }

  /// M in records of type T.
  template <typename T>
  [[nodiscard]] std::size_t mem_records() const {
    return mem_bytes() / sizeof(T);
  }

  /// Snapshot of the underlying device's I/O statistics.
  [[nodiscard]] IoStats io() const noexcept { return device_->stats(); }

  /// Configure I/O batching.  Throws if batch_blocks is 0, if a retired
  /// field holds anything but its default, or if a reader/writer pair of
  /// batched streams could not fit in M (the model needs at least input +
  /// output streaming to make progress).  Only call at quiescent points (no
  /// live streams).
  void set_io_tuning(const IoTuning& tuning) {
    if (tuning.batch_blocks == 0) {
      throw std::invalid_argument(
          "Context::set_io_tuning: batch_blocks must be positive");
    }
    if (tuning.queue_depth != 0 || tuning.async) {
      throw std::invalid_argument(
          "Context::set_io_tuning: queue_depth and async are retired (must "
          "be 0 and false)");
    }
    if (2 * tuning.batch_blocks * block_bytes() > mem_bytes()) {
      throw std::invalid_argument(
          "Context::set_io_tuning: a reader/writer stream pair would exceed "
          "M (shrink batch_blocks)");
    }
    tuning_ = tuning;
  }
  [[nodiscard]] const IoTuning& io_tuning() const noexcept { return tuning_; }

  /// Blocks of memory one stream's buffer occupies under the current tuning
  /// (geometry: fan-ins and chunk sizes derive from it).
  [[nodiscard]] std::size_t batch_blocks() const noexcept {
    return tuning_.batch_blocks;
  }

  /// Optional per-phase I/O attribution (see phase_profile.hpp).  Null by
  /// default; benches attach one to explain where the scans go.
  void set_profile(PhaseProfile* profile) noexcept { profile_ = profile; }
  [[nodiscard]] PhaseProfile* profile() const noexcept { return profile_; }

  /// Retry policy for transient device faults (docs/model.md, "Failure
  /// model, retries, and recovery").  Forwarded to the device, where the
  /// retry loop lives — so it covers every transfer.  Only call at quiescent
  /// points (no transfers in flight).
  void set_fault_policy(const FaultPolicy& policy) noexcept {
    fault_policy_ = policy;
    device_->set_fault_policy(policy);
  }
  [[nodiscard]] const FaultPolicy& fault_policy() const noexcept {
    return fault_policy_;
  }

  /// Optional checkpoint journal (see checkpoint.hpp).  Null by default —
  /// algorithms then run exactly the seed code path.  When attached, the
  /// long passes (external sort, multi-partition) publish pass boundaries to
  /// it and consult it on entry to resume an interrupted run.  Non-owning.
  void set_checkpoint(CheckpointJournal* journal) noexcept {
    checkpoint_ = journal;
  }
  [[nodiscard]] CheckpointJournal* checkpoint() const noexcept {
    return checkpoint_;
  }

  /// Optional structured pass-trace sink (see pass_engine.hpp).  Null by
  /// default — the engine then records nothing.  When attached, every
  /// engine-run pass appends one PassTrace row (name, I/Os, bytes, wall
  /// time, retries).  Non-owning; main-thread only.
  void set_pass_trace(PassTraceLog* log) noexcept { pass_trace_ = log; }
  [[nodiscard]] PassTraceLog* pass_trace() const noexcept {
    return pass_trace_;
  }

  /// Configure the multi-process worker layer.  Throws on absurd widths; 0
  /// disables the distributed path (the default and the seed behavior).
  /// Main-thread only, at quiescent points (no distributed round in flight).
  void set_worker_tuning(const WorkerTuning& tuning) {
    if (tuning.workers > 64) {
      throw std::invalid_argument(
          "Context::set_worker_tuning: workers must be <= 64");
    }
    if (tuning.mem_workers == 0) {
      throw std::invalid_argument(
          "Context::set_worker_tuning: mem_workers must be >= 1");
    }
    if (tuning.worker_timeout < 0.0) {
      throw std::invalid_argument(
          "Context::set_worker_tuning: worker_timeout must be >= 0");
    }
    worker_tuning_ = tuning;
  }
  [[nodiscard]] const WorkerTuning& worker_tuning() const noexcept {
    return worker_tuning_;
  }
  /// Cooperating workers per distributed pass (0 = classic path).
  [[nodiscard]] std::size_t workers() const noexcept {
    return worker_tuning_.workers;
  }

  /// Per-worker trace channel, the multi-process sibling of note_pass_hwm:
  /// a distributed round deposits its per-worker deltas here and the pass
  /// engine's scope collects them into the pass's trace row on exit.
  /// Appending, so a pass of several rounds accumulates; take resets.
  void note_pass_workers(std::vector<PassWorkerIo> rows) {
    pass_workers_.insert(pass_workers_.end(),
                         std::make_move_iterator(rows.begin()),
                         std::make_move_iterator(rows.end()));
  }
  [[nodiscard]] std::vector<PassWorkerIo> take_pass_workers() noexcept {
    return std::exchange(pass_workers_, {});
  }

  /// Supervision-event channel, same shape as note_pass_workers: the worker
  /// supervisor deposits structured events (retry / timeout / corrupt-frame /
  /// give-up / degrade) here and the pass engine's scope collects them into
  /// the pass's trace row on exit.
  void note_supervision(SupervisionEvent event) {
    supervision_.push_back(std::move(event));
  }
  [[nodiscard]] std::vector<SupervisionEvent> take_supervision() noexcept {
    return std::exchange(supervision_, {});
  }

  /// In-pass memory high-water-mark channel.  A pass that tracks its own
  /// peak working set (e.g. the distribution sort's in-place final pass,
  /// whose segment groups are data-dependent) publishes the max here; the
  /// pass engine's scope collects it into the pass's trace row on exit.
  /// Monotonic max within a pass; take_pass_hwm() resets for the next one.
  void note_pass_hwm(std::uint64_t bytes) noexcept {
    if (bytes > pass_hwm_) pass_hwm_ = bytes;
  }
  [[nodiscard]] std::uint64_t take_pass_hwm() noexcept {
    const std::uint64_t v = pass_hwm_;
    pass_hwm_ = 0;
    return v;
  }

 private:
  BlockDevice* device_;
  MemoryBudget budget_;
  PhaseProfile* profile_ = nullptr;
  CheckpointJournal* checkpoint_ = nullptr;
  PassTraceLog* pass_trace_ = nullptr;
  FaultPolicy fault_policy_;
  IoTuning tuning_;
  WorkerTuning worker_tuning_;
  std::uint64_t pass_hwm_ = 0;
  std::vector<PassWorkerIo> pass_workers_;
  std::vector<SupervisionEvent> supervision_;
};

}  // namespace emsplit
