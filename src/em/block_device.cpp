#include "em/block_device.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "em/fnv.hpp"

namespace emsplit {

namespace {

/// splitmix64: the probabilistic schedule's per-attempt uniform draw.
double uniform_draw(std::uint64_t seed, std::uint64_t counter) {
  std::uint64_t z = seed + (counter + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

std::string fault_message(const char* op, BlockId first, std::uint64_t count,
                          std::uint64_t completed, bool transient) {
  return std::string("injected ") + (transient ? "transient" : "permanent") +
         " fault on " + op + ": blocks [" + std::to_string(first) + ", " +
         std::to_string(first + count) + "), " + std::to_string(completed) +
         "/" + std::to_string(count) + " transferred";
}

}  // namespace

BlockDevice::BlockDevice(std::size_t block_bytes) : block_bytes_(block_bytes) {
  if (block_bytes_ == 0) {
    throw std::invalid_argument("BlockDevice: block_bytes must be positive");
  }
}

BlockDevice::~BlockDevice() = default;

IoStats BlockDevice::stats() const noexcept {
  return IoStats{reads_.load(std::memory_order_relaxed),
                 writes_.load(std::memory_order_relaxed),
                 retries_.load(std::memory_order_relaxed),
                 worker_retries_.load(std::memory_order_relaxed)};
}

void BlockDevice::reset_stats() noexcept {
  reads_.store(0, std::memory_order_relaxed);
  writes_.store(0, std::memory_order_relaxed);
  retries_.store(0, std::memory_order_relaxed);
  worker_retries_.store(0, std::memory_order_relaxed);
}

void BlockDevice::absorb_stats(const IoStats& delta) noexcept {
  reads_.fetch_add(delta.reads, std::memory_order_relaxed);
  writes_.fetch_add(delta.writes, std::memory_order_relaxed);
  retries_.fetch_add(delta.retries, std::memory_order_relaxed);
  worker_retries_.fetch_add(delta.worker_retries, std::memory_order_relaxed);
}

BlockRange BlockDevice::allocate(std::uint64_t count) {
  if (count == 0) return BlockRange{};
  // First fit over the free list.
  for (auto it = free_extents_.begin(); it != free_extents_.end(); ++it) {
    if (it->second >= count) {
      BlockRange r{it->first, count};
      const BlockId rest_first = it->first + count;
      const std::uint64_t rest_count = it->second - count;
      free_extents_.erase(it);
      if (rest_count > 0) free_extents_.emplace(rest_first, rest_count);
      allocated_blocks_ += count;
      return r;
    }
  }
  // Nothing fits: grow at the end.
  const std::uint64_t old_size = size_blocks_.load(std::memory_order_relaxed);
  BlockRange r{old_size, count};
  size_blocks_.store(old_size + count, std::memory_order_relaxed);
  do_grow(old_size + count);
  allocated_blocks_ += count;
  return r;
}

void BlockDevice::deallocate(const BlockRange& range) noexcept {
  if (!range.valid() || range.count == 0) return;
  allocated_blocks_ -= range.count;
  {
    // Drop checksum entries with the extent: a recycled block's first read
    // (before its first write) must not be judged against a dead owner's
    // checksum.
    const std::lock_guard<std::mutex> lock(sum_mu_);
    sums_.erase(sums_.lower_bound(range.first),
                sums_.lower_bound(range.first + range.count));
    dirty_sums_.erase(dirty_sums_.lower_bound(range.first),
                      dirty_sums_.lower_bound(range.first + range.count));
  }
  BlockId first = range.first;
  std::uint64_t count = range.count;
  // Coalesce with the successor extent if adjacent.
  auto next = free_extents_.lower_bound(first);
  if (next != free_extents_.end() && next->first == first + count) {
    count += next->second;
    next = free_extents_.erase(next);
  }
  // Coalesce with the predecessor extent if adjacent.
  if (next != free_extents_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == first) {
      first = prev->first;
      count += prev->second;
      free_extents_.erase(prev);
    }
  }
  free_extents_.emplace(first, count);
}

void BlockDevice::check_range(BlockId first, std::uint64_t count,
                              std::size_t span_bytes, const char* op) const {
  const std::uint64_t size = size_blocks();
  if (first >= size || count > size - first) {
    throw std::out_of_range(std::string("BlockDevice::") + op +
                            ": block id beyond device size");
  }
  if (span_bytes > count * block_bytes_) {
    throw std::invalid_argument(std::string("BlockDevice::") + op +
                                (count == 1
                                     ? ": buffer larger than one block"
                                     : ": buffer larger than the block range"));
  }
  if (count > 1 && span_bytes <= (count - 1) * block_bytes_) {
    throw std::invalid_argument(
        std::string("BlockDevice::") + op +
        ": buffer must cover all blocks but a suffix of the last");
  }
}

BlockDevice::FaultDecision BlockDevice::fault_check(std::uint64_t count) {
  if (!fault_armed_.load(std::memory_order_acquire)) return {count, false, false};
  const std::lock_guard<std::mutex> lock(fault_mu_);
  if (!fault_armed_.load(std::memory_order_relaxed)) return {count, false, false};
  switch (schedule_.kind) {
    case FaultSchedule::Kind::kOneShot:
      if (fault_countdown_ >= count) {
        fault_countdown_ -= count;
        return {count, false, false};
      } else {
        // The fault fires inside this request: allow the I/Os before it,
        // disarm (one-shot).
        const std::uint64_t allowed = fault_countdown_;
        fault_countdown_ = 0;
        fault_armed_.store(false, std::memory_order_relaxed);
        return {allowed, true, schedule_.transient};
      }
    case FaultSchedule::Kind::kFailThenSucceed:
      if (fault_countdown_ >= count) {
        fault_countdown_ -= count;
        return {count, false, false};
      } else {
        // One faulting *attempt* per consultation; the burst counts attempts,
        // so a retry re-enters here and consumes the next one.
        const std::uint64_t allowed = fault_countdown_;
        fault_countdown_ = 0;
        if (--fault_burst_left_ == 0) {
          fault_armed_.store(false, std::memory_order_relaxed);
        }
        return {allowed, true, schedule_.transient};
      }
    case FaultSchedule::Kind::kEveryNth: {
      if (schedule_.period == 0) return {count, false, false};
      for (std::uint64_t j = 0; j < count; ++j) {
        ++fault_attempts_;
        if (fault_attempts_ % schedule_.period == 0) {
          return {j, true, schedule_.transient};
        }
      }
      return {count, false, false};
    }
    case FaultSchedule::Kind::kProbabilistic: {
      for (std::uint64_t j = 0; j < count; ++j) {
        ++fault_attempts_;
        if (uniform_draw(schedule_.seed, fault_attempts_) <
            schedule_.probability) {
          return {j, true, schedule_.transient};
        }
      }
      return {count, false, false};
    }
  }
  return {count, false, false};
}

void BlockDevice::backoff_sleep(std::uint64_t attempt) const {
  if (fault_policy_.backoff.count() <= 0) return;
  const std::uint64_t shift = std::min<std::uint64_t>(attempt - 1, 20);
  const auto delay = std::min(
      fault_policy_.max_backoff,
      std::chrono::microseconds(fault_policy_.backoff.count() << shift));
  std::this_thread::sleep_for(delay);
}

void BlockDevice::record_sums(BlockId first, std::uint64_t count,
                              std::span<const std::byte> in) {
  const bool track = track_sums_.load(std::memory_order_acquire);
  const std::lock_guard<std::mutex> lock(sum_mu_);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::size_t off = static_cast<std::size_t>(i) * block_bytes_;
    const std::size_t len = std::min(block_bytes_, in.size() - off);
    const BlockSum s{static_cast<std::uint32_t>(len),
                     fnv1a(in.subspan(off, len))};
    sums_[first + i] = s;
    if (track) dirty_sums_[first + i] = s;
  }
}

std::vector<SumEntry> BlockDevice::take_dirty_sums() {
  const std::lock_guard<std::mutex> lock(sum_mu_);
  std::vector<SumEntry> out;
  out.reserve(dirty_sums_.size());
  for (const auto& [block, s] : dirty_sums_) {
    out.push_back(SumEntry{block, s.len, s.sum});
  }
  dirty_sums_.clear();
  return out;
}

void BlockDevice::merge_sums(std::span<const SumEntry> entries) {
  const std::lock_guard<std::mutex> lock(sum_mu_);
  for (const SumEntry& e : entries) {
    sums_[e.block] = BlockSum{e.len, e.sum};
  }
}

std::vector<SumEntry> BlockDevice::export_sums() const {
  const std::lock_guard<std::mutex> lock(sum_mu_);
  std::vector<SumEntry> out;
  out.reserve(sums_.size());
  for (const auto& [block, s] : sums_) {
    out.push_back(SumEntry{block, s.len, s.sum});
  }
  return out;
}

void BlockDevice::verify_sums(BlockId first, std::uint64_t count,
                              std::span<const std::byte> data) const {
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::size_t off = static_cast<std::size_t>(i) * block_bytes_;
    const std::size_t len = std::min(block_bytes_, data.size() - off);
    BlockSum expect;
    {
      const std::lock_guard<std::mutex> lock(sum_mu_);
      const auto it = sums_.find(first + i);
      if (it == sums_.end()) continue;  // never written (or recycled): trusted
      expect = it->second;
    }
    // A read shorter than the recorded write cannot be verified — the hash
    // covers bytes this transfer did not move.
    if (len < expect.len) continue;
    if (fnv1a(data.subspan(off, expect.len)) != expect.sum) {
      throw CorruptBlock(
          "checksum mismatch on block " + std::to_string(first + i) +
              " (torn or corrupted since last write)",
          first + i);
    }
  }
}

void BlockDevice::read_core(const char* op, BlockId first, std::uint64_t count,
                            std::span<std::byte> out) {
  std::uint64_t done = 0;
  std::uint64_t attempt = 0;
  const bool verify = checksums();
  for (;;) {
    const std::uint64_t want = count - done;
    const auto span = out.subspan(static_cast<std::size_t>(done) * block_bytes_);
    const FaultDecision d = fault_check(want);
    if (d.allowed > 0) {
      // The blocks before a mid-batch fault transfer (and count) normally;
      // the faulting block itself moves no bytes.
      const std::size_t bytes =
          d.allowed == want ? span.size()
                            : static_cast<std::size_t>(d.allowed) * block_bytes_;
      const auto sub = span.first(bytes);
      do_read_blocks(first + done, d.allowed, sub);
      reads_.fetch_add(d.allowed, std::memory_order_relaxed);
      if (verify) verify_sums(first + done, d.allowed, sub);
      done += d.allowed;
    }
    if (!d.fires) return;
    // Transient faults are retried (resuming at the first untransferred
    // block, so base counts match the fault-free run); permanent faults and
    // exhausted retry budgets surface with the request attached.
    if (d.transient && attempt < fault_policy_.max_retries) {
      ++attempt;
      retries_.fetch_add(1, std::memory_order_relaxed);
      backoff_sleep(attempt);
      continue;
    }
    throw DeviceFault(fault_message(op, first, count, done, d.transient),
                      d.transient, "read", first, count, done);
  }
}

void BlockDevice::write_core(const char* op, BlockId first,
                             std::uint64_t count,
                             std::span<const std::byte> in) {
  std::uint64_t done = 0;
  std::uint64_t attempt = 0;
  const bool track = checksums();
  for (;;) {
    const std::uint64_t want = count - done;
    const auto span = in.subspan(static_cast<std::size_t>(done) * block_bytes_);
    const FaultDecision d = fault_check(want);
    if (d.allowed > 0) {
      const std::size_t bytes =
          d.allowed == want ? span.size()
                            : static_cast<std::size_t>(d.allowed) * block_bytes_;
      const auto sub = span.first(bytes);
      do_write_blocks(first + done, d.allowed, sub);
      writes_.fetch_add(d.allowed, std::memory_order_relaxed);
      if (track) record_sums(first + done, d.allowed, sub);
      done += d.allowed;
    }
    if (!d.fires) return;
    if (d.transient && attempt < fault_policy_.max_retries) {
      ++attempt;
      retries_.fetch_add(1, std::memory_order_relaxed);
      backoff_sleep(attempt);
      continue;
    }
    throw DeviceFault(fault_message(op, first, count, done, d.transient),
                      d.transient, "write", first, count, done);
  }
}

void BlockDevice::read(BlockId block, std::span<std::byte> out) {
  check_range(block, 1, out.size(), "read");
  read_core("read", block, 1, out);
}

void BlockDevice::write(BlockId block, std::span<const std::byte> in) {
  check_range(block, 1, in.size(), "write");
  write_core("write", block, 1, in);
}

void BlockDevice::read_blocks(BlockId first, std::uint64_t count,
                              std::span<std::byte> out) {
  if (count == 0) {
    if (!out.empty()) {
      throw std::invalid_argument(
          "BlockDevice::read_blocks: non-empty buffer with count == 0");
    }
    return;
  }
  check_range(first, count, out.size(), "read_blocks");
  read_core("read_blocks", first, count, out);
}

void BlockDevice::write_blocks(BlockId first, std::uint64_t count,
                               std::span<const std::byte> in) {
  if (count == 0) {
    if (!in.empty()) {
      throw std::invalid_argument(
          "BlockDevice::write_blocks: non-empty buffer with count == 0");
    }
    return;
  }
  check_range(first, count, in.size(), "write_blocks");
  write_core("write_blocks", first, count, in);
}

void BlockDevice::corrupt_bit(BlockId block, std::size_t bit) {
  if (block >= size_blocks() || bit >= block_bytes_ * 8) {
    throw std::out_of_range("BlockDevice::corrupt_bit: beyond device/block");
  }
  // Uncounted raw access, checksum map deliberately untouched: the stored
  // bytes now disagree with the recorded hash, exactly like real bit rot.
  std::vector<std::byte> buf(block_bytes_);
  do_read_blocks(block, 1, buf);
  buf[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
  do_write_blocks(block, 1, buf);
}

void BlockDevice::restore(std::uint64_t size_blocks,
                          std::span<const BlockRange> live) {
  if (allocated_blocks_ != 0) {
    throw std::logic_error(
        "BlockDevice::restore: device already has live allocations");
  }
  std::vector<BlockRange> sorted(live.begin(), live.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const BlockRange& a, const BlockRange& b) {
              return a.first < b.first;
            });
  std::uint64_t need = size_blocks;
  std::uint64_t total_live = 0;
  for (const auto& r : sorted) {
    if (!r.valid() || r.count == 0) continue;
    need = std::max(need, r.first + r.count);
    total_live += r.count;
  }
  const std::uint64_t old_size = size_blocks_.load(std::memory_order_relaxed);
  if (need > old_size) {
    size_blocks_.store(need, std::memory_order_relaxed);
    do_grow(need);
  }
  // Free list = complement of the live extents; checksums outside the live
  // extents are stale (their owners died with the old process) and dropped.
  free_extents_.clear();
  std::uint64_t cursor = 0;
  for (const auto& r : sorted) {
    if (!r.valid() || r.count == 0) continue;
    if (r.first < cursor) {
      throw std::invalid_argument(
          "BlockDevice::restore: live extents overlap");
    }
    if (r.first > cursor) free_extents_.emplace(cursor, r.first - cursor);
    cursor = r.first + r.count;
  }
  const std::uint64_t total = size_blocks_.load(std::memory_order_relaxed);
  if (cursor < total) free_extents_.emplace(cursor, total - cursor);
  allocated_blocks_ = total_live;
  {
    const std::lock_guard<std::mutex> lock(sum_mu_);
    auto it = sums_.begin();
    std::size_t li = 0;
    while (it != sums_.end()) {
      while (li < sorted.size() &&
             sorted[li].first + sorted[li].count <= it->first) {
        ++li;
      }
      const bool live_block = li < sorted.size() &&
                              it->first >= sorted[li].first &&
                              it->first < sorted[li].first + sorted[li].count;
      it = live_block ? std::next(it) : sums_.erase(it);
    }
  }
}

void BlockDevice::save_sums(const std::string& path) const {
  const std::vector<SumEntry> entries = export_sums();
  if (entries.empty()) {
    std::remove(path.c_str());
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return;  // best-effort: losing the sidecar only loses verification
  const std::uint64_t n = entries.size();
  bool ok = std::fwrite(&n, sizeof(n), 1, f) == 1;
  for (const SumEntry& e : entries) {
    if (!ok) break;
    ok = std::fwrite(&e.block, sizeof(e.block), 1, f) == 1 &&
         std::fwrite(&e.len, sizeof(e.len), 1, f) == 1 &&
         std::fwrite(&e.sum, sizeof(e.sum), 1, f) == 1;
  }
  std::fclose(f);
  if (!ok) std::remove(path.c_str());
}

void BlockDevice::load_sums(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return;
  std::uint64_t n = 0;
  std::vector<SumEntry> loaded;
  bool ok = std::fread(&n, sizeof(n), 1, f) == 1;
  for (std::uint64_t i = 0; ok && i < n; ++i) {
    SumEntry e;
    ok = std::fread(&e.block, sizeof(e.block), 1, f) == 1 &&
         std::fread(&e.len, sizeof(e.len), 1, f) == 1 &&
         std::fread(&e.sum, sizeof(e.sum), 1, f) == 1;
    if (ok) loaded.push_back(e);
  }
  std::fclose(f);
  // A torn sidecar loads nothing: start unverified rather than miscarry.
  if (!ok || loaded.empty()) return;
  const std::lock_guard<std::mutex> lock(sum_mu_);
  sums_.clear();
  for (const SumEntry& e : loaded) {
    sums_.emplace(e.block, BlockSum{e.len, e.sum});
  }
}

void BlockDevice::do_read_blocks(BlockId first, std::uint64_t count,
                                 std::span<std::byte> out) {
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::size_t off = static_cast<std::size_t>(i) * block_bytes_;
    const std::size_t len = std::min(block_bytes_, out.size() - off);
    do_read(first + i, out.subspan(off, len));
  }
}

void BlockDevice::do_write_blocks(BlockId first, std::uint64_t count,
                                  std::span<const std::byte> in) {
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::size_t off = static_cast<std::size_t>(i) * block_bytes_;
    const std::size_t len = std::min(block_bytes_, in.size() - off);
    do_write(first + i, in.subspan(off, len));
  }
}

// ---------------------------------------------------------------------------
// MemoryBlockDevice
// ---------------------------------------------------------------------------

MemoryBlockDevice::MemoryBlockDevice(std::size_t block_bytes)
    : BlockDevice(block_bytes) {}

MemoryBlockDevice::~MemoryBlockDevice() {
  for (const Arena& a : arenas_) ::munmap(a.base, a.bytes);
}

void MemoryBlockDevice::do_grow(std::uint64_t new_size_blocks) {
  const std::unique_lock<std::shared_mutex> lock(mu_);
  blocks_.resize(new_size_blocks);  // lazily materialized pages
}

std::byte* MemoryBlockDevice::materialize(BlockId block) {
  const std::lock_guard<std::mutex> lock(arena_mu_);
  if (blocks_[block] != nullptr) return blocks_[block];  // lost the race
  if (arenas_.empty() ||
      arenas_.back().used + block_bytes() > arenas_.back().bytes) {
    // MAP_SHARED so a forked worker's writes reach the parent; anonymous
    // mappings come pre-zeroed, matching the sparse-read contract.
    const std::size_t bytes =
        std::max<std::size_t>(std::size_t{1} << 20, block_bytes());
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    arenas_.push_back(Arena{static_cast<std::byte*>(p), bytes, 0});
  }
  Arena& a = arenas_.back();
  std::byte* page = a.base + a.used;
  a.used += block_bytes();
  blocks_[block] = page;
  return page;
}

void MemoryBlockDevice::prepare_fork() {
  // Exclusive lock: forking happens at a quiescent point, and materializing
  // the full table must not interleave with transfers resizing under us.
  const std::unique_lock<std::shared_mutex> lock(mu_);
  for (BlockId b = 0; b < blocks_.size(); ++b) {
    if (blocks_[b] == nullptr) materialize(b);
  }
}

void MemoryBlockDevice::read_one(BlockId block,
                                 std::span<std::byte> out) const {
  const std::byte* page = blocks_[block];
  if (page == nullptr) {
    // Reading a never-written block yields zeroes (like a sparse file).
    std::memset(out.data(), 0, out.size());
    return;
  }
  std::memcpy(out.data(), page, out.size());
}

void MemoryBlockDevice::write_one(BlockId block,
                                  std::span<const std::byte> in) {
  std::byte* page = blocks_[block];
  if (page == nullptr) page = materialize(block);
  std::memcpy(page, in.data(), in.size());
}

void MemoryBlockDevice::do_read(BlockId block, std::span<std::byte> out) {
  const std::shared_lock<std::shared_mutex> lock(mu_);
  read_one(block, out);
}

void MemoryBlockDevice::do_write(BlockId block, std::span<const std::byte> in) {
  const std::shared_lock<std::shared_mutex> lock(mu_);
  write_one(block, in);
}

void MemoryBlockDevice::do_read_blocks(BlockId first, std::uint64_t count,
                                       std::span<std::byte> out) {
  const std::shared_lock<std::shared_mutex> lock(mu_);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::size_t off = static_cast<std::size_t>(i) * block_bytes();
    const std::size_t len = std::min(block_bytes(), out.size() - off);
    read_one(first + i, out.subspan(off, len));
  }
}

void MemoryBlockDevice::do_write_blocks(BlockId first, std::uint64_t count,
                                        std::span<const std::byte> in) {
  const std::shared_lock<std::shared_mutex> lock(mu_);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::size_t off = static_cast<std::size_t>(i) * block_bytes();
    const std::size_t len = std::min(block_bytes(), in.size() - off);
    write_one(first + i, in.subspan(off, len));
  }
}

// ---------------------------------------------------------------------------
// FileBlockDevice
// ---------------------------------------------------------------------------

FileBlockDevice::FileBlockDevice(std::string path, std::size_t block_bytes,
                                 bool keep_file, bool preserve_contents)
    : BlockDevice(block_bytes), path_(std::move(path)), keep_file_(keep_file) {
  const int flags =
      preserve_contents ? (O_RDWR | O_CREAT) : (O_RDWR | O_CREAT | O_TRUNC);
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("FileBlockDevice: cannot open " + path_ + ": " +
                             std::strerror(errno));
  }
  if (preserve_contents) load_sums(sidecar_path());
}

FileBlockDevice::~FileBlockDevice() {
  if (keep_file_ && !sidecar_flushed_) {
    save_sums(sidecar_path());
  }
  if (fd_ >= 0) ::close(fd_);
  if (!keep_file_) {
    ::unlink(path_.c_str());
    ::unlink(sidecar_path().c_str());
  }
}

void FileBlockDevice::flush_sidecar() {
  if (!keep_file_) return;
  save_sums(sidecar_path());
  sidecar_flushed_ = true;
}

void FileBlockDevice::do_grow(std::uint64_t new_size_blocks) {
  if (::ftruncate(fd_, static_cast<off_t>(new_size_blocks * block_bytes())) !=
      0) {
    throw std::runtime_error("FileBlockDevice: ftruncate failed: " +
                             std::string(std::strerror(errno)));
  }
}

void FileBlockDevice::pread_span(std::uint64_t offset,
                                 std::span<std::byte> out) {
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::pread(fd_, out.data() + done, out.size() - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("FileBlockDevice: pread failed: ") +
                               std::strerror(errno));
    }
    if (n == 0) {
      // Hole beyond EOF of a sparse region: zero-fill, matching
      // MemoryBlockDevice's "never-written blocks read as zeroes".
      std::memset(out.data() + done, 0, out.size() - done);
      return;
    }
    done += static_cast<std::size_t>(n);
  }
}

void FileBlockDevice::pwrite_span(std::uint64_t offset,
                                  std::span<const std::byte> in) {
  std::size_t done = 0;
  while (done < in.size()) {
    const ssize_t n = ::pwrite(fd_, in.data() + done, in.size() - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("FileBlockDevice: pwrite failed: ") +
                               std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
}

void FileBlockDevice::do_read(BlockId block, std::span<std::byte> out) {
  pread_span(block * block_bytes(), out);
}

void FileBlockDevice::do_write(BlockId block, std::span<const std::byte> in) {
  pwrite_span(block * block_bytes(), in);
}

void FileBlockDevice::do_read_blocks(BlockId first, std::uint64_t count,
                                     std::span<std::byte> out) {
  (void)count;  // the span covers the whole extent; one positional read
  pread_span(first * block_bytes(), out);
}

void FileBlockDevice::do_write_blocks(BlockId first, std::uint64_t count,
                                      std::span<const std::byte> in) {
  (void)count;
  pwrite_span(first * block_bytes(), in);
}

}  // namespace emsplit
