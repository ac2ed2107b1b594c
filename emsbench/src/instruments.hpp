// instruments.hpp — the traced run's outside-in probes.
//
//   * TimedDevice wraps the real device and times every transfer through its
//     public read/read_blocks/write/write_blocks, so device-wait time splits
//     from compute time.  It forwards the fork hooks, so the worker layer
//     still forks over it; transfers inside forked workers are timed by the
//     worker layer itself (PassTrace worker rows).
//   * PhaseClock turns the library's PhaseProfile into a self-time profiler:
//     attached as the profile's counter source, it reports a clock reading
//     in `reads` and the real device's I/O total in `writes`, so the
//     profile's exclusive per-phase deltas become (self nanoseconds, self
//     block I/Os) per pass label.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "common.hpp"
#include "em/block_device.hpp"

namespace emsbench {

class TimedDevice final : public emsplit::BlockDevice {
 public:
  struct Totals {
    double read_s = 0;
    double write_s = 0;
    std::uint64_t read_blocks = 0;
    std::uint64_t write_blocks = 0;
    std::uint64_t calls = 0;
  };

  /// `inner` must be fresh (nothing allocated): block ids map one to one.
  explicit TimedDevice(emsplit::BlockDevice& inner)
      : BlockDevice(inner.block_bytes()), inner_(inner) {
    if (inner.size_blocks() != 0) {
      throw std::invalid_argument("TimedDevice: inner device must be empty");
    }
  }

  [[nodiscard]] Totals totals() const noexcept {
    Totals t;
    t.read_s = static_cast<double>(read_ns_.load()) * 1e-9;
    t.write_s = static_cast<double>(write_ns_.load()) * 1e-9;
    t.read_blocks = read_blocks_.load();
    t.write_blocks = write_blocks_.load();
    t.calls = calls_.load();
    return t;
  }

  [[nodiscard]] bool fork_safe() const noexcept override {
    return inner_.fork_safe();
  }
  void prepare_fork() override { inner_.prepare_fork(); }
  void child_after_fork() noexcept override { inner_.child_after_fork(); }

 protected:
  void do_read(emsplit::BlockId block, std::span<std::byte> out) override {
    const auto t0 = Clock::now();
    inner_.read(block, out);
    note(t0, 1, read_ns_, read_blocks_);
  }
  void do_write(emsplit::BlockId block,
                std::span<const std::byte> in) override {
    const auto t0 = Clock::now();
    inner_.write(block, in);
    note(t0, 1, write_ns_, write_blocks_);
  }
  void do_read_blocks(emsplit::BlockId first, std::uint64_t count,
                      std::span<std::byte> out) override {
    const auto t0 = Clock::now();
    inner_.read_blocks(first, count, out);
    note(t0, count, read_ns_, read_blocks_);
  }
  void do_write_blocks(emsplit::BlockId first, std::uint64_t count,
                       std::span<const std::byte> in) override {
    const auto t0 = Clock::now();
    inner_.write_blocks(first, count, in);
    note(t0, count, write_ns_, write_blocks_);
  }
  void do_grow(std::uint64_t new_size_blocks) override {
    // Only this wrapper allocates on the inner device and it never frees
    // there, so every inner allocation appends: ids stay identical.
    const std::uint64_t have = inner_.size_blocks();
    if (new_size_blocks > have) {
      (void)inner_.allocate(new_size_blocks - have);
    }
  }

 private:
  void note(Clock::time_point t0, std::uint64_t blocks,
            std::atomic<std::uint64_t>& ns,
            std::atomic<std::uint64_t>& nblocks) noexcept {
    const auto dt = std::chrono::duration_cast<std::chrono::nanoseconds>(
        Clock::now() - t0);
    ns.fetch_add(static_cast<std::uint64_t>(dt.count()),
                 std::memory_order_relaxed);
    nblocks.fetch_add(blocks, std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
  }

  emsplit::BlockDevice& inner_;
  std::atomic<std::uint64_t> read_ns_{0};
  std::atomic<std::uint64_t> write_ns_{0};
  std::atomic<std::uint64_t> read_blocks_{0};
  std::atomic<std::uint64_t> write_blocks_{0};
  std::atomic<std::uint64_t> calls_{0};
};

class PhaseClock final : public emsplit::BlockDevice {
 public:
  explicit PhaseClock(const emsplit::BlockDevice& io_source)
      : BlockDevice(io_source.block_bytes()), source_(io_source) {}

  [[nodiscard]] emsplit::IoStats stats() const noexcept override {
    emsplit::IoStats s;
    s.reads = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
    s.writes = source_.stats().total();
    return s;
  }

 protected:
  void do_read(emsplit::BlockId, std::span<std::byte>) override { refuse(); }
  void do_write(emsplit::BlockId, std::span<const std::byte>) override {
    refuse();
  }
  void do_grow(std::uint64_t) override { refuse(); }

 private:
  [[noreturn]] static void refuse() {
    throw std::logic_error("PhaseClock is a counter source, not a device");
  }

  const emsplit::BlockDevice& source_;
};

}  // namespace emsbench
