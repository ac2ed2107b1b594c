#include "em/sharded_device.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace emsplit {

namespace {

/// Validates the member list before the base subobject needs a block size.
std::size_t facade_block_bytes(
    const std::vector<std::unique_ptr<BlockDevice>>& members) {
  if (members.empty()) {
    throw std::invalid_argument(
        "ShardedBlockDevice: needs at least one member device");
  }
  if (members.front() == nullptr) {
    throw std::invalid_argument("ShardedBlockDevice: null member device");
  }
  return members.front()->block_bytes();
}

/// Re-throw a member-level DeviceFault on the *logical* request it broke:
/// the shard and its local failure stay in the message, the structured range
/// is the caller's [first, first + count), and completed() is the number of
/// blocks of that logical request known to have transferred.
[[noreturn]] void rethrow_logical(const DeviceFault& df, std::size_t shard,
                                  const char* op, BlockId first,
                                  std::uint64_t count,
                                  std::uint64_t completed) {
  throw DeviceFault("shard " + std::to_string(shard) + ": " + df.what() +
                        " (logical blocks [" + std::to_string(first) + ", " +
                        std::to_string(first + count) + "))",
                    df.transient(), op, first, count, completed);
}

}  // namespace

ShardedBlockDevice::ShardedBlockDevice(
    std::vector<std::unique_ptr<BlockDevice>> members,
    std::size_t stripe_blocks)
    : BlockDevice(facade_block_bytes(members)),
      members_(std::move(members)),
      stripe_blocks_(stripe_blocks) {
  if (stripe_blocks_ == 0) {
    throw std::invalid_argument(
        "ShardedBlockDevice: stripe_blocks must be positive");
  }
  for (const auto& m : members_) {
    if (m == nullptr) {
      throw std::invalid_argument("ShardedBlockDevice: null member device");
    }
    if (m->block_bytes() != block_bytes()) {
      throw std::invalid_argument(
          "ShardedBlockDevice: members disagree on block size");
    }
    if (m->size_blocks() != 0 || m->allocated_blocks() != 0) {
      // Members must be fresh: the facade owns their whole address space
      // (growth happens only through do_grow, so each member stays a dense
      // array of its stripes).
      throw std::invalid_argument(
          "ShardedBlockDevice: member device already has blocks");
    }
  }
  facade_retries_by_shard_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(members_.size());
  for (std::size_t i = 0; i < members_.size(); ++i) {
    facade_retries_by_shard_[i].store(0, std::memory_order_relaxed);
  }
}

ShardedBlockDevice::~ShardedBlockDevice() { flush_member_sidecars(); }

void ShardedBlockDevice::flush_member_sidecars() {
  if (!preserve_sidecars_) return;
  // Partition the facade's checksum table (logical ids) by owning member and
  // persist each member's share.  Runs before the member destructors: a
  // FileBlockDevice member will still manage its *own* ".sums" sidecar (an
  // empty one — facade checksums never reach member tables), which is why
  // these files use a distinct suffix.
  const std::vector<SumEntry> all = export_sums();
  std::vector<std::vector<SumEntry>> by_member(members_.size());
  for (const SumEntry& e : all) {
    by_member[locate(e.block).shard].push_back(e);
  }
  for (std::size_t i = 0; i < members_.size() && i < sidecar_paths_.size();
       ++i) {
    write_sums_file(sidecar_paths_[i], by_member[i]);
  }
  // One snapshot per flush: later deallocations (and the destructor) must
  // not rewrite what was just persisted.
  preserve_sidecars_ = false;
}

void ShardedBlockDevice::set_member_sidecars(std::vector<std::string> paths,
                                             bool preserve) {
  if (paths.size() != members_.size()) {
    throw std::invalid_argument(
        "ShardedBlockDevice::set_member_sidecars: one path per member");
  }
  sidecar_paths_ = std::move(paths);
  preserve_sidecars_ = preserve;
  std::vector<SumEntry> merged;
  for (const std::string& p : sidecar_paths_) {
    const std::vector<SumEntry> loaded = read_sums_file(p);
    merged.insert(merged.end(), loaded.begin(), loaded.end());
  }
  if (!merged.empty()) merge_sums(merged);
}

IoStats ShardedBlockDevice::stats() const noexcept {
  IoStats total{};
  for (const auto& m : members_) total += m->stats();
  // The facade's own counters contribute only its logical-fault retries: its
  // reads and writes are the members' transfers, already summed above.
  const IoStats own = BlockDevice::stats();
  total.retries += own.retries;
  total.worker_retries += own.worker_retries;
  return total;
}

void ShardedBlockDevice::reset_stats() noexcept {
  BlockDevice::reset_stats();
  for (std::size_t i = 0; i < members_.size(); ++i) {
    members_[i]->reset_stats();
    facade_retries_by_shard_[i].store(0, std::memory_order_relaxed);
  }
}

std::vector<IoStats> ShardedBlockDevice::shard_stats() const {
  std::vector<IoStats> out;
  out.reserve(members_.size());
  for (std::size_t i = 0; i < members_.size(); ++i) {
    IoStats s = members_[i]->stats();
    s.retries +=
        facade_retries_by_shard_[i].load(std::memory_order_relaxed);
    out.push_back(s);
  }
  return out;
}

bool ShardedBlockDevice::fork_safe() const noexcept {
  for (const auto& m : members_) {
    if (!m->fork_safe()) return false;
  }
  return true;
}

void ShardedBlockDevice::absorb_stats(
    const IoStats& delta, std::span<const IoStats> per_shard) noexcept {
  if (per_shard.size() == members_.size()) {
    // Member-wise fold keeps shard rows partitioning the facade total: the
    // child's row i already carries the facade retries it attributed to
    // shard i, so landing the whole row in member i's counters preserves
    // both the per-shard sums and the total.
    for (std::size_t i = 0; i < members_.size(); ++i) {
      members_[i]->absorb_stats(per_shard[i], {});
    }
    return;
  }
  // No per-shard breakdown (or a geometry mismatch): fall back to member 0
  // so at least the totals stay honest.
  if (!members_.empty()) members_[0]->absorb_stats(delta, {});
}

void ShardedBlockDevice::set_fault_policy(const FaultPolicy& policy) noexcept {
  BlockDevice::set_fault_policy(policy);
  for (const auto& m : members_) m->set_fault_policy(policy);
}

void ShardedBlockDevice::set_member_fault_policy(std::size_t i,
                                                 const FaultPolicy& policy) {
  if (i >= members_.size()) {
    throw std::out_of_range(
        "ShardedBlockDevice::set_member_fault_policy: no such member");
  }
  members_[i]->set_fault_policy(policy);
}

void ShardedBlockDevice::note_retry(BlockId first_failed) noexcept {
  facade_retries_by_shard_[locate(first_failed).shard].fetch_add(
      1, std::memory_order_relaxed);
}

void ShardedBlockDevice::corrupt_bit(BlockId block, std::size_t bit) {
  if (block >= size_blocks() || bit >= block_bytes() * 8) {
    throw std::out_of_range(
        "ShardedBlockDevice::corrupt_bit: beyond device/block");
  }
  const Location loc = locate(block);
  members_[loc.shard]->corrupt_bit(loc.block, bit);
}

ShardedBlockDevice::Location ShardedBlockDevice::locate(
    BlockId block) const noexcept {
  const std::uint64_t sb = stripe_blocks_;
  const std::uint64_t d = members_.size();
  const std::uint64_t stripe = block / sb;
  return {static_cast<std::size_t>(stripe % d),
          (stripe / d) * sb + block % sb};
}

void ShardedBlockDevice::do_read(BlockId block, std::span<std::byte> out) {
  const Location loc = locate(block);
  try {
    members_[loc.shard]->read(loc.block, out);
  } catch (const DeviceFault& df) {
    rethrow_logical(df, loc.shard, "read", block, 1, df.completed());
  }
}

void ShardedBlockDevice::do_write(BlockId block,
                                  std::span<const std::byte> in) {
  const Location loc = locate(block);
  try {
    members_[loc.shard]->write(loc.block, in);
  } catch (const DeviceFault& df) {
    rethrow_logical(df, loc.shard, "write", block, 1, df.completed());
  }
}

void ShardedBlockDevice::do_read_blocks(BlockId first, std::uint64_t count,
                                        std::span<std::byte> out) {
  const auto segs = split(first, count, out.size());
  run_segments(/*is_read=*/true, first, count, segs, out.data(), nullptr);
}

void ShardedBlockDevice::do_write_blocks(BlockId first, std::uint64_t count,
                                         std::span<const std::byte> in) {
  const auto segs = split(first, count, in.size());
  run_segments(/*is_read=*/false, first, count, segs, nullptr, in.data());
}

void ShardedBlockDevice::do_grow(std::uint64_t new_size_blocks) {
  const std::uint64_t sb = stripe_blocks_;
  const std::uint64_t d = members_.size();
  const std::uint64_t stripes = (new_size_blocks + sb - 1) / sb;
  for (std::uint64_t i = 0; i < d; ++i) {
    // Stripes s < stripes with s % d == i.
    const std::uint64_t my_stripes = (stripes + d - 1 - i) / d;
    const std::uint64_t need = my_stripes * sb;
    const std::uint64_t have = members_[i]->size_blocks();
    if (need <= have) continue;
    const BlockRange r = members_[i]->allocate(need - have);
    if (r.first != have) {
      // Unreachable while the facade owns the member (it never deallocates
      // member blocks, so member free lists stay empty).
      throw std::logic_error(
          "ShardedBlockDevice: member grew non-contiguously");
    }
  }
}

std::vector<ShardedBlockDevice::Segment> ShardedBlockDevice::split(
    BlockId first, std::uint64_t count, std::size_t span_bytes) const {
  const std::size_t block = block_bytes();
  const std::uint64_t sb = stripe_blocks_;
  const std::uint64_t d = members_.size();
  std::vector<Segment> segs;
  BlockId l = first;
  std::uint64_t left = count;
  std::size_t off = 0;
  while (left > 0) {
    const std::uint64_t stripe = l / sb;
    const std::size_t mi = static_cast<std::size_t>(stripe % d);
    const BlockId mfirst = (stripe / d) * sb + l % sb;
    const std::uint64_t run = std::min(sb - l % sb, left);
    // The last logical block may be a prefix transfer; every earlier block
    // is full, so only the final segment can be short.
    const std::size_t len = (left == run)
                                ? span_bytes - off
                                : static_cast<std::size_t>(run) * block;
    if (!segs.empty() && segs.back().shard == mi &&
        segs.back().mfirst + segs.back().count == mfirst) {
      // Member-contiguous with the previous segment (always the case for
      // d == 1): extend instead of issuing a second member call.
      segs.back().count += run;
      segs.back().len += len;
    } else {
      segs.push_back(Segment{mi, mfirst, l, run, off, len});
    }
    l += run;
    left -= run;
    off += len;
  }
  return segs;
}

void ShardedBlockDevice::run_segments(bool is_read, BlockId first,
                                      std::uint64_t count,
                                      const std::vector<Segment>& segs,
                                      std::byte* read_base,
                                      const std::byte* write_base) {
  const char* op = is_read ? "read_blocks" : "write_blocks";
  // `done` is exact: everything before the faulting segment transferred in
  // full.
  std::uint64_t done = 0;
  for (const auto& s : segs) {
    try {
      if (is_read) {
        members_[s.shard]->read_blocks(
            s.mfirst, s.count, std::span<std::byte>(read_base + s.off, s.len));
      } else {
        members_[s.shard]->write_blocks(
            s.mfirst, s.count,
            std::span<const std::byte>(write_base + s.off, s.len));
      }
    } catch (const DeviceFault& df) {
      rethrow_logical(df, s.shard, op, first, count, done + df.completed());
    }
    done += s.count;
  }
}

}  // namespace emsplit
