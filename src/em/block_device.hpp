// block_device.hpp — the "disk" of the external-memory model.
//
// A BlockDevice is a flat address space of fixed-size blocks.  Algorithms may
// only move data between memory and the device in whole blocks, and every
// such transfer is counted in IoStats.  Two implementations are provided:
//
//  * MemoryBlockDevice — RAM-backed simulator.  Gives *exact, deterministic*
//    I/O counts; this is the measurement instrument for all shape experiments
//    (the paper's cost model charges I/Os, not seconds).
//  * FileBlockDevice — a real file on disk, for wall-clock sanity benchmarks
//    (experiment E10 in DESIGN.md).
//
// Transfers come in two granularities: single blocks (read/write) and
// contiguous multi-block extents (read_blocks/write_blocks).  A k-block
// extent transfer is one device call — one pread/pwrite on FileBlockDevice —
// but is charged k I/Os, because the model prices block movement, not calls;
// batching is therefore invisible to the cost accounting (docs/model.md,
// "I/O batching").
//
// Allocation is extent-based (contiguous runs of blocks) with a first-fit
// free list, so external vectors and scratch space can be recycled during
// recursive algorithms without unbounded device growth.  Allocation metadata
// lives in host bookkeeping and is not charged against the model's memory
// budget, matching standard practice in EM implementations (e.g. STXXL's
// block-management layer).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "em/io_stats.hpp"

namespace emsplit {

using BlockId = std::uint64_t;

inline constexpr BlockId kInvalidBlock = std::numeric_limits<BlockId>::max();

/// A contiguous run of blocks owned by one external data structure.
struct BlockRange {
  BlockId first = kInvalidBlock;
  std::uint64_t count = 0;

  [[nodiscard]] bool valid() const noexcept { return first != kInvalidBlock; }
  friend bool operator==(const BlockRange&, const BlockRange&) = default;
};

/// Thrown by the fault-injection hook; used by tests to verify that the RAII
/// layers above the device are strongly exception-safe.
///
/// A fault is either *transient* (a retry of the same transfer may succeed —
/// bus glitches, momentary device timeouts) or *permanent*.  The device's
/// retry layer (see FaultPolicy) consumes transient faults up to the policy
/// bound; whatever escapes to the caller — permanent faults, or transient
/// ones past the retry budget — carries the exact request that failed:
/// operation, block range, and how many blocks of the request had already
/// transferred (and been counted) when the fault fired.
class DeviceFault : public std::runtime_error {
 public:
  explicit DeviceFault(const std::string& what) : std::runtime_error(what) {}
  DeviceFault(const std::string& what, bool transient, const char* op,
              BlockId first, std::uint64_t count, std::uint64_t completed)
      : std::runtime_error(what),
        transient_(transient),
        op_(op),
        first_(first),
        count_(count),
        completed_(completed) {}

  /// True when a retry of the remaining blocks may succeed.
  [[nodiscard]] bool transient() const noexcept { return transient_; }
  /// "read" or "write" (empty for faults constructed without a range).
  [[nodiscard]] const char* op() const noexcept { return op_; }
  /// The failed request's block range [first_block, first_block + count).
  [[nodiscard]] BlockId first_block() const noexcept { return first_; }
  [[nodiscard]] std::uint64_t block_count() const noexcept { return count_; }
  /// Blocks of the request transferred (and counted) before the fault.
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }

 private:
  bool transient_ = false;
  const char* op_ = "";
  BlockId first_ = kInvalidBlock;
  std::uint64_t count_ = 0;
  std::uint64_t completed_ = 0;
};

/// One block's recorded checksum in wire/export form: FNV-1a over the
/// `len`-byte prefix the write transferred.  The unit of checksum exchange
/// between cooperating processes (a forked worker ships its dirty entries
/// home in the result frame) and of sidecar persistence.
struct SumEntry {
  BlockId block = 0;
  std::uint32_t len = 0;
  std::uint64_t sum = 0;
};

/// A read returned bytes whose checksum does not match what was last written
/// to that block (torn write, bit rot, or the test injector's flipped bit).
/// Corruption is never transient: re-reading returns the same bytes, so the
/// retry layer passes it straight through.  The faulting read has already
/// been counted — the block really moved; it just arrived wrong.
class CorruptBlock : public DeviceFault {
 public:
  CorruptBlock(const std::string& what, BlockId block)
      : DeviceFault(what, /*transient=*/false, "read", block, 1, 1) {}
};

/// What the fault injector simulates.  One-shot countdown faults reproduce
/// the classic `arm_fault_after` semantics; the other schedules model the
/// transient-failure regimes a long-running deployment actually sees.
struct FaultSchedule {
  enum class Kind {
    kOneShot,          ///< after `after` I/Os, the next I/O faults once
    kFailThenSucceed,  ///< after `after` I/Os, the next `burst` *attempts*
                       ///< fault (transient); retries then succeed
    kEveryNth,         ///< every `period`-th attempted I/O faults
    kProbabilistic,    ///< each attempt faults with probability `p` (seeded)
  };

  Kind kind = Kind::kOneShot;
  std::uint64_t after = 0;       ///< successful I/Os before the first fault
  std::uint64_t burst = 1;       ///< consecutive faulting attempts (kFailThenSucceed)
  std::uint64_t period = 0;      ///< kEveryNth
  double probability = 0.0;      ///< kProbabilistic
  std::uint64_t seed = 0;        ///< kProbabilistic
  bool transient = true;         ///< what DeviceFault::transient() reports

  /// The classic permanent one-shot: `remaining` I/Os succeed, the next
  /// throws, then the injector disarms.
  static FaultSchedule one_shot_after(std::uint64_t remaining) {
    FaultSchedule s;
    s.kind = Kind::kOneShot;
    s.after = remaining;
    s.transient = false;
    return s;
  }
  /// Transient one-shot: after `remaining` I/Os, `times` consecutive
  /// attempts fault, then the injector disarms and retries succeed.
  static FaultSchedule fail_then_succeed(std::uint64_t remaining,
                                         std::uint64_t times = 1) {
    FaultSchedule s;
    s.kind = Kind::kFailThenSucceed;
    s.after = remaining;
    s.burst = times;
    return s;
  }
  /// Every `period`-th attempted I/O faults transiently, forever.
  static FaultSchedule every_nth(std::uint64_t period) {
    FaultSchedule s;
    s.kind = Kind::kEveryNth;
    s.period = period;
    return s;
  }
  /// Each attempted I/O faults transiently with probability `p`,
  /// deterministically derived from `seed` and the attempt counter.
  static FaultSchedule probabilistic(double p, std::uint64_t seed) {
    FaultSchedule s;
    s.kind = Kind::kProbabilistic;
    s.probability = p;
    s.seed = seed;
    return s;
  }
};

/// Bounded retry of transient faults, applied inside the device's public
/// transfer methods — which covers every call site.  A retry re-issues only
/// the blocks the fault prevented, so the base read/write counts of a
/// retried run are identical to the fault-free run; each retry attempt is
/// tallied separately in IoStats::retries.  The default (max_retries = 0)
/// reproduces the classic fail-fast device.
struct FaultPolicy {
  std::uint64_t max_retries = 0;  ///< retry attempts per request
  std::chrono::microseconds backoff{0};  ///< first retry delay, doubled per attempt
  std::chrono::microseconds max_backoff{100000};  ///< backoff cap
};

/// Abstract block device with I/O accounting, extent allocation and fault
/// injection.
///
/// Thread-safety contract (load-bearing for the service's concurrent query
/// threads): the transfer interface — read / write / read_blocks /
/// write_blocks — and the stats() snapshot may be used from several threads
/// at once.  The I/O counters are relaxed atomics, and the transfer paths of
/// both concrete devices are data-race free provided no block is written
/// while another thread touches it.  Everything else — allocate /
/// deallocate, reset_stats, arm/disarm fault — is main-thread only and must
/// not run while transfers are in flight.
class BlockDevice {
 public:
  explicit BlockDevice(std::size_t block_bytes);
  virtual ~BlockDevice();

  BlockDevice(const BlockDevice&) = delete;
  BlockDevice& operator=(const BlockDevice&) = delete;

  /// Size of one block in bytes (the model's `B`, in bytes).
  [[nodiscard]] std::size_t block_bytes() const noexcept { return block_bytes_; }

  /// Reserve a contiguous extent of `count` blocks.  First-fit over the free
  /// list, growing the device at the end if nothing fits.
  [[nodiscard]] BlockRange allocate(std::uint64_t count);

  /// Return an extent to the free list (with coalescing).  Passing an invalid
  /// or empty range is a no-op so destructors can call this unconditionally.
  void deallocate(const BlockRange& range) noexcept;

  /// Read a prefix of one block into `out` (`out.size() <= block_bytes()`).
  /// Counts one read I/O regardless of the prefix length — the model charges
  /// per block transfer.  Prefix transfers exist because a block holds
  /// floor(block_bytes / sizeof(record)) whole records; the tail of a block
  /// is unused when the record size does not divide the block size.
  void read(BlockId block, std::span<std::byte> out);

  /// Write a prefix of one block from `in` (`in.size() <= block_bytes()`).
  /// Counts one write I/O.
  void write(BlockId block, std::span<const std::byte> in);

  /// Read `count` consecutive blocks starting at `first` in one device call.
  /// `out` must cover all of the first `count - 1` blocks and a non-empty
  /// prefix of the last one (so `(count-1)*block_bytes < out.size() <=
  /// count*block_bytes`) — the multi-block generalization of the single-block
  /// prefix rule.  Counts exactly `count` read I/Os.
  ///
  /// Fault injection honors the per-I/O countdown *inside* the batch: when
  /// the fault is due after j < count more I/Os, the first j blocks are
  /// transferred and counted, then DeviceFault is thrown.
  void read_blocks(BlockId first, std::uint64_t count,
                   std::span<std::byte> out);

  /// Write `count` consecutive blocks from `in` in one device call; the same
  /// span, counting and mid-batch fault rules as read_blocks.
  void write_blocks(BlockId first, std::uint64_t count,
                    std::span<const std::byte> in);

  /// Snapshot of the I/O counters.  Returns by value: the counters are
  /// atomics that concurrent transfers may be bumping.  Virtual so a device
  /// that wraps another can report a different counter source.
  [[nodiscard]] virtual IoStats stats() const noexcept;

  /// Zero the counters.  Main-thread only, and only at quiescent points (no
  /// transfers in flight — e.g. between algorithm runs); a reset racing
  /// concurrent increments would produce torn totals.
  void reset_stats() noexcept;

  /// True when a forked child process can keep transferring over the
  /// inherited handle while the parent's copy stays usable — the property the
  /// multi-worker layer (em/worker_group) needs to run cooperating processes
  /// against one shared device.  FileBlockDevice qualifies (positional
  /// pread/pwrite on a shared fd and offset-free file growth).
  /// MemoryBlockDevice qualifies because its pages live in MAP_SHARED
  /// anonymous arenas (prepare_fork materializes every page so a child never
  /// needs to extend the page table).
  [[nodiscard]] virtual bool fork_safe() const noexcept { return false; }

  /// Called in the parent, at a quiescent point, immediately before forking
  /// cooperating workers.  A backend uses this to reach the state fork
  /// sharing needs: MemoryBlockDevice materializes all pages into its shared
  /// arenas; a wrapping device forwards to the device it wraps.  Default:
  /// nothing to prepare.
  virtual void prepare_fork() {}

  /// Called once inside a freshly forked worker, before any transfer.  A
  /// backend uses this to drop resources it must not share with the parent.
  /// The child _exits without running destructors, so this must not need a
  /// matching teardown.  Default: nothing to do.
  virtual void child_after_fork() noexcept {}

  /// Fold I/O performed on this device by a cooperating forked worker into
  /// the counters: the child's transfers moved real blocks of the shared
  /// backing store, but its counter increments died with its address space.
  /// `delta` is the child's stats() delta.  Main-thread only, at quiescent
  /// points.
  void absorb_stats(const IoStats& delta) noexcept;

  /// Total blocks ever grown to (capacity high-water mark).
  [[nodiscard]] std::uint64_t size_blocks() const noexcept {
    return size_blocks_.load(std::memory_order_relaxed);
  }

  /// Blocks currently allocated to live extents.
  [[nodiscard]] std::uint64_t allocated_blocks() const noexcept {
    return allocated_blocks_;
  }

  /// Fault injection: after `remaining` further I/Os succeed, the next I/O
  /// throws a *permanent* DeviceFault (the classic one-shot hook).
  void arm_fault_after(std::uint64_t remaining) {
    arm_fault(FaultSchedule::one_shot_after(remaining));
  }
  /// Arm an arbitrary injection schedule (see FaultSchedule).
  void arm_fault(const FaultSchedule& schedule) {
    const std::lock_guard<std::mutex> lock(fault_mu_);
    schedule_ = schedule;
    fault_countdown_ = schedule.after;
    fault_burst_left_ = schedule.burst;
    fault_attempts_ = 0;
    fault_armed_.store(true, std::memory_order_release);
  }
  void disarm_fault() noexcept {
    fault_armed_.store(false, std::memory_order_release);
  }

  /// Retry policy for transient faults.  Main-thread only, at quiescent
  /// points (no transfers in flight), like arm_fault.
  void set_fault_policy(const FaultPolicy& policy) noexcept {
    fault_policy_ = policy;
  }
  [[nodiscard]] const FaultPolicy& fault_policy() const noexcept {
    return fault_policy_;
  }

  /// Corruption detection: when enabled, every block write records an FNV-1a
  /// checksum of the bytes written in a sidecar page map, and every read of a
  /// block with a recorded checksum re-hashes the returned bytes and throws
  /// CorruptBlock on mismatch.  A read shorter than the recorded write (a
  /// prefix transfer of a block written full) is left unverified — the hash
  /// covers bytes the read did not move.  Blocks of deallocated extents drop
  /// their entries, so recycled blocks never trip stale checksums.
  /// Main-thread only, at quiescent points.
  void set_checksums(bool enabled) noexcept {
    checksums_.store(enabled, std::memory_order_release);
  }
  [[nodiscard]] bool checksums() const noexcept {
    return checksums_.load(std::memory_order_acquire);
  }

  /// Dirty-sum tracking: while enabled, every checksum recorded by a write is
  /// also noted in a dirty set that take_dirty_sums() drains.  A forked
  /// worker enables this right after the fork so its checksum-table updates —
  /// which would otherwise die with its copy-on-write address space — can be
  /// shipped home in the result frame and folded back via merge_sums().
  void set_sum_tracking(bool enabled) noexcept {
    track_sums_.store(enabled, std::memory_order_release);
  }
  /// Drain the dirty set: every (block, len, sum) recorded since tracking was
  /// enabled (or last drained), in block order.
  [[nodiscard]] std::vector<SumEntry> take_dirty_sums();
  /// Fold checksum entries from a cooperating process into the table (last
  /// write wins, like the local write path).
  void merge_sums(std::span<const SumEntry> entries);
  /// The full checksum table in export form (what a sidecar persists).
  [[nodiscard]] std::vector<SumEntry> export_sums() const;

  /// Count supervised re-execution I/O: `n` block transfers re-performed by
  /// the worker supervisor after a worker failed (em/worker_group.hpp).  The
  /// transfers themselves were already counted in reads/writes — this mirrors
  /// IoStats::retries' separation of recovery volume from base counts.
  void note_worker_retries(std::uint64_t n) noexcept {
    worker_retries_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Test injector for corruption: flip one bit of a block's stored bytes,
  /// bypassing the I/O counters and the checksum map — exactly what a torn
  /// write or a decayed cell does to a device.
  void corrupt_bit(BlockId block, std::size_t bit);

  /// Recovery hook: rebuild allocator state on a device whose *contents*
  /// survived a process death (FileBlockDevice reopened over its file).
  /// Grows the device to `size_blocks` and marks exactly the `live` extents
  /// allocated; everything else returns to the free list, and checksum
  /// entries outside the live extents are dropped.  Call on a fresh device
  /// before any allocation.
  void restore(std::uint64_t size_blocks, std::span<const BlockRange> live);

 protected:
  virtual void do_read(BlockId block, std::span<std::byte> out) = 0;
  virtual void do_write(BlockId block, std::span<const std::byte> in) = 0;
  /// Batched transfers; the base implementations loop over do_read/do_write
  /// block by block.  Concrete devices override them with a genuinely
  /// vectored path (single pread/pwrite, single lock acquisition).
  virtual void do_read_blocks(BlockId first, std::uint64_t count,
                              std::span<std::byte> out);
  virtual void do_write_blocks(BlockId first, std::uint64_t count,
                               std::span<const std::byte> in);
  /// Called when the device grows to `new_size_blocks` blocks.
  virtual void do_grow(std::uint64_t new_size_blocks) = 0;

 private:
  /// Outcome of consulting the fault injector for a `count`-I/O request.
  struct FaultDecision {
    std::uint64_t allowed = 0;  ///< I/Os that may proceed before the fault
    bool fires = false;         ///< a fault fires after `allowed` transfers
    bool transient = false;     ///< whether that fault is retryable
  };

  void check_range(BlockId first, std::uint64_t count, std::size_t span_bytes,
                   const char* op) const;
  /// Run the armed schedule for a `count`-I/O request: how many of the I/Os
  /// may proceed (charging the schedule for them), and whether — and how — a
  /// fault fires on the next attempt.
  [[nodiscard]] FaultDecision fault_check(std::uint64_t count);
  /// Shared transfer cores: validation done by the caller; these run the
  /// fault schedule, the bounded transient retry loop, the counters and
  /// (for reads) checksum verification.
  void read_core(const char* op, BlockId first, std::uint64_t count,
                 std::span<std::byte> out);
  void write_core(const char* op, BlockId first, std::uint64_t count,
                  std::span<const std::byte> in);
  void record_sums(BlockId first, std::uint64_t count,
                   std::span<const std::byte> in);
  void verify_sums(BlockId first, std::uint64_t count,
                   std::span<const std::byte> data) const;
  void backoff_sleep(std::uint64_t attempt) const;

 protected:
  /// Sidecar checksum persistence (FileBlockDevice uses these to survive
  /// restarts; a killed process simply loses the map, and unverified reads
  /// are the safe degradation).  The file holds a count, then (block, len,
  /// sum) triples.  Best-effort — a write failure removes the file and a
  /// torn file loads nothing; losing a sidecar only loses verification.  An
  /// empty table removes the file.
  void save_sums(const std::string& path) const;
  void load_sums(const std::string& path);

 private:
  /// Checksum of one block as last written: FNV-1a over the `len`-byte
  /// prefix that the write actually transferred.
  struct BlockSum {
    std::uint32_t len = 0;
    std::uint64_t sum = 0;
  };

  std::size_t block_bytes_;
  std::atomic<std::uint64_t> size_blocks_{0};
  std::uint64_t allocated_blocks_ = 0;
  // Free extents keyed by first block, value = extent length.  Adjacent
  // extents are coalesced on deallocate.
  std::map<BlockId, std::uint64_t> free_extents_;
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> worker_retries_{0};
  // Fast path: one relaxed-ish load when disarmed.  The schedule state is
  // mutex-guarded so concurrent transfers charge it exactly once each.
  std::atomic<bool> fault_armed_{false};
  std::mutex fault_mu_;
  FaultSchedule schedule_;
  std::uint64_t fault_countdown_ = 0;
  std::uint64_t fault_burst_left_ = 0;
  std::uint64_t fault_attempts_ = 0;  // attempted I/Os (kEveryNth / kProbabilistic)
  FaultPolicy fault_policy_;
  // Sidecar page map: block -> checksum of its last write.  Guarded by its
  // own mutex (transfers of disjoint blocks run concurrently).
  std::atomic<bool> checksums_{false};
  std::atomic<bool> track_sums_{false};
  mutable std::mutex sum_mu_;
  std::map<BlockId, BlockSum> sums_;
  std::map<BlockId, BlockSum> dirty_sums_;  // guarded by sum_mu_
};

/// RAII ownership of a raw extent outside an EmVector — the recovery and
/// checkpoint layers juggle BlockRanges directly, and this guard keeps them
/// leak-free when an exception unwinds between allocate and hand-off.
class ExtentGuard {
 public:
  ExtentGuard() noexcept = default;
  ExtentGuard(BlockDevice& dev, BlockRange range) noexcept
      : dev_(&dev), range_(range) {}
  ~ExtentGuard() {
    if (dev_ != nullptr) dev_->deallocate(range_);
  }

  ExtentGuard(ExtentGuard&& o) noexcept
      : dev_(std::exchange(o.dev_, nullptr)),
        range_(std::exchange(o.range_, BlockRange{})) {}
  ExtentGuard& operator=(ExtentGuard&& o) noexcept {
    if (this != &o) {
      if (dev_ != nullptr) dev_->deallocate(range_);
      dev_ = std::exchange(o.dev_, nullptr);
      range_ = std::exchange(o.range_, BlockRange{});
    }
    return *this;
  }
  ExtentGuard(const ExtentGuard&) = delete;
  ExtentGuard& operator=(const ExtentGuard&) = delete;

  [[nodiscard]] const BlockRange& range() const noexcept { return range_; }
  /// Transfer the extent out of the guard (it will not be deallocated).
  BlockRange release() noexcept {
    dev_ = nullptr;
    return std::exchange(range_, BlockRange{});
  }

 private:
  BlockDevice* dev_ = nullptr;
  BlockRange range_;
};

/// RAM-backed simulator device.  Blocks are lazily materialized so a large
/// address space costs memory only for blocks actually written.
class MemoryBlockDevice final : public BlockDevice {
 public:
  explicit MemoryBlockDevice(std::size_t block_bytes);
  ~MemoryBlockDevice() override;

  /// Pages live in MAP_SHARED anonymous arenas, so a forked worker's writes
  /// land in memory the parent sees.  prepare_fork materializes every page
  /// up front — the page *table* (blocks_) is ordinary copy-on-write memory,
  /// so children must never need to install a new page pointer.
  [[nodiscard]] bool fork_safe() const noexcept override { return true; }
  void prepare_fork() override;

 protected:
  void do_read(BlockId block, std::span<std::byte> out) override;
  void do_write(BlockId block, std::span<const std::byte> in) override;
  void do_read_blocks(BlockId first, std::uint64_t count,
                      std::span<std::byte> out) override;
  void do_write_blocks(BlockId first, std::uint64_t count,
                       std::span<const std::byte> in) override;
  void do_grow(std::uint64_t new_size_blocks) override;

 private:
  /// One mmap'd MAP_SHARED | MAP_ANONYMOUS chunk; pages are bump-allocated
  /// from it and returned only when the device is destroyed (like the old
  /// per-page heap allocations, which also lived until destruction).
  struct Arena {
    std::byte* base = nullptr;
    std::size_t bytes = 0;
    std::size_t used = 0;
  };

  // Locked copy loops; `mu_` is held shared during transfers (they touch
  // disjoint blocks) and exclusively while do_grow resizes the page table.
  void read_one(BlockId block, std::span<std::byte> out) const;
  void write_one(BlockId block, std::span<const std::byte> in);
  /// Install a shared-arena page for `block` (idempotent).  Serialized by
  /// `arena_mu_`, acquired after the shared transfer lock — first writes to
  /// distinct blocks race on the bump pointer, not on the transfers.
  std::byte* materialize(BlockId block);

  mutable std::shared_mutex mu_;
  std::vector<std::byte*> blocks_;  // nullptr = never written (reads as zero)
  std::mutex arena_mu_;
  std::vector<Arena> arenas_;
};

/// File-backed device for wall-clock experiments and crash-recoverable runs.
/// Uses positional reads and writes on a regular file (pread/pwrite are
/// thread-safe by construction); the file is removed on destruction unless
/// `keep_file` was requested.  With `preserve_contents`, an existing file is
/// opened without truncation (and a checksum sidecar, if one was saved, is
/// reloaded) — pair with restore() to resume a checkpointed run.
class FileBlockDevice final : public BlockDevice {
 public:
  FileBlockDevice(std::string path, std::size_t block_bytes,
                  bool keep_file = false, bool preserve_contents = false);
  ~FileBlockDevice() override;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::string sidecar_path() const { return path_ + ".sums"; }

  /// Write the checksum sidecar *now* from the current table, then disarm
  /// the destructor's rewrite.  Teardown that deallocates extents after this
  /// call (a checkpoint journal returning its still-owned extents —
  /// deallocation drops the freed blocks' entries) no longer erases the
  /// persisted record: the sidecar keeps the pre-deallocation snapshot, which
  /// is exactly what a resuming process needs to verify the journaled blocks
  /// it re-reads.  No-op unless the file is kept.  Main-thread only, at a
  /// quiescent point.
  void flush_sidecar();

  /// Positional I/O on a shared fd is fork-safe; growth is idempotent
  /// (ftruncate to an absolute size), so cooperating processes compose.
  [[nodiscard]] bool fork_safe() const noexcept override { return true; }

 protected:
  void do_read(BlockId block, std::span<std::byte> out) override;
  void do_write(BlockId block, std::span<const std::byte> in) override;
  void do_read_blocks(BlockId first, std::uint64_t count,
                      std::span<std::byte> out) override;
  void do_write_blocks(BlockId first, std::uint64_t count,
                       std::span<const std::byte> in) override;
  void do_grow(std::uint64_t new_size_blocks) override;

 private:
  void pread_span(std::uint64_t offset, std::span<std::byte> out);
  void pwrite_span(std::uint64_t offset, std::span<const std::byte> in);

  std::string path_;
  int fd_ = -1;
  bool keep_file_;
  bool sidecar_flushed_ = false;
};

}  // namespace emsplit
