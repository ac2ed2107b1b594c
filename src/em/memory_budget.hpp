// memory_budget.hpp — enforcement of the EM model's M-word memory budget.
//
// The external-memory model allows an algorithm at most M words of internal
// memory.  Every in-memory buffer that holds *records* (stream block buffers,
// chunk sort arrays, splitter tables, per-group selection state, ...) is
// reserved against a MemoryBudget before use, and released via RAII.  Tests
// assert that `peak() <= capacity()` after each algorithm run, which turns
// the paper's "memory of size M" precondition into a checked invariant
// instead of a comment.
//
// Host-side bookkeeping that the model traditionally does not charge
// (allocation tables, the recursion stack, I/O counters) is not reserved;
// DESIGN.md §4 discusses this convention.
//
// Reservations are internally synchronized: the service's query threads
// charge their admission and bucket-cache bytes while the main thread
// reserves algorithm state.  A *reclaimer* callback lets a scavenging
// consumer (the service's bucket-scan cache) hold otherwise-idle budget:
// when a reservation finds the budget short, the reclaimer is asked —
// outside the budget lock — to give bytes back before the reservation is
// refused.
//
// A *release listener* is the inverse hook: a single callback invoked after
// every release() that frees bytes, outside the budget lock.  The splitter
// service registers one to wake admission-queued queries the moment budget
// becomes available, replacing its former 500µs sleep-poll (docs/model.md,
// "The query hot path").  The listener must be noexcept and must not touch
// the budget re-entrantly beyond try_reserve/notify.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace emsplit {

/// Thrown when a reservation would exceed the configured capacity.  An
/// algorithm that triggers this has violated the EM model's preconditions —
/// it is a bug, not an environmental condition.
class BudgetExceeded : public std::logic_error {
 public:
  explicit BudgetExceeded(const std::string& what) : std::logic_error(what) {}
};

class MemoryReservation;

/// Tracks reserved bytes against a fixed capacity, with a peak high-water
/// mark.  Algorithm reservations are made on the main thread.  The counters
/// are mutex-guarded so the service's admission control and bucket-scan
/// cache may additionally charge and release entries from query threads.
class MemoryBudget {
 public:
  /// Asked to release at least the given number of bytes back to the budget;
  /// returns how many bytes it actually released.  Called without the budget
  /// lock held — the reclaimer may release() reservations freely, but must
  /// not create new ones.
  using Reclaimer = std::function<std::size_t(std::size_t)>;

  explicit MemoryBudget(std::size_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t used() const noexcept {
    const std::lock_guard<std::mutex> lock(mu_);
    return used_;
  }
  [[nodiscard]] std::size_t peak() const noexcept {
    const std::lock_guard<std::mutex> lock(mu_);
    return peak_;
  }
  [[nodiscard]] std::size_t available() const noexcept {
    const std::lock_guard<std::mutex> lock(mu_);
    return capacity_ - used_;
  }

  /// Register (or clear, with nullptr) the scavenger that is asked to
  /// release budget when a reservation falls short.  One reclaimer, like the
  /// release listener below; set and clear it at quiescent points.
  void set_reclaimer(Reclaimer reclaimer) {
    const std::lock_guard<std::mutex> lock(mu_);
    reclaimer_ = std::move(reclaimer);
  }

  /// Register (or clear, with nullptr) the callback invoked after every
  /// release() that returns bytes to the budget.  One listener; called
  /// outside the budget lock and must be noexcept (release() is).
  void set_release_listener(std::function<void()> listener) {
    const std::lock_guard<std::mutex> lock(mu_);
    release_listener_ = std::move(listener);
  }

  /// Reserve `bytes`; throws BudgetExceeded if the budget cannot hold them
  /// even after asking the reclaimer to give back what it holds.
  [[nodiscard]] MemoryReservation reserve(std::size_t bytes);

  /// Reserve `bytes` if they fit, nullopt otherwise.  For *optional* state —
  /// the service's admission tickets and cached bucket scans wait or shed
  /// when M is too tight, rather than failing the run.  With
  /// `allow_reclaim` (the default) a shortfall first asks the reclaimer to
  /// release scavenged bytes, so optional state sees the same budget it
  /// would without a cache attached; the cache's own growth passes false —
  /// a scavenger never steals from itself.
  [[nodiscard]] std::optional<MemoryReservation> try_reserve(
      std::size_t bytes, bool allow_reclaim = true);

  void reset_peak() noexcept {
    const std::lock_guard<std::mutex> lock(mu_);
    peak_ = used_;
  }

 private:
  friend class MemoryReservation;

  void acquire(std::size_t bytes);
  void release(std::size_t bytes) noexcept;
  /// Commit `bytes`; on a shortfall (and with `allow_reclaim`) ask the
  /// reclaimer for it once and try again.  False if they still do not fit.
  [[nodiscard]] bool commit_or_reclaim(std::size_t bytes, bool allow_reclaim);
  /// Commit `bytes` if they fit right now (caller holds `mu_`).
  bool commit_locked(std::size_t bytes) noexcept;
  [[nodiscard]] std::string over_budget_message(std::size_t bytes) const;

  std::size_t capacity_;
  std::size_t used_ = 0;
  std::size_t peak_ = 0;
  // Live reservation sizes (size -> count), reported by BudgetExceeded to
  // make over-budget bugs self-diagnosing.
  std::map<std::size_t, std::size_t> live_;
  Reclaimer reclaimer_;
  std::function<void()> release_listener_;
  mutable std::mutex mu_;
};

/// Move-only RAII handle for a slice of the budget.
class MemoryReservation {
 public:
  MemoryReservation() noexcept = default;
  MemoryReservation(MemoryBudget& budget, std::size_t bytes)
      : budget_(&budget), bytes_(bytes) {
    budget_->acquire(bytes_);
  }
  ~MemoryReservation() { release(); }

  MemoryReservation(MemoryReservation&& o) noexcept
      : budget_(o.budget_), bytes_(o.bytes_) {
    o.budget_ = nullptr;
    o.bytes_ = 0;
  }
  MemoryReservation& operator=(MemoryReservation&& o) noexcept {
    if (this != &o) {
      release();
      budget_ = o.budget_;
      bytes_ = o.bytes_;
      o.budget_ = nullptr;
      o.bytes_ = 0;
    }
    return *this;
  }
  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;

  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

  /// Explicitly release before destruction (idempotent).
  void release() noexcept {
    if (budget_ != nullptr) {
      budget_->release(bytes_);
      budget_ = nullptr;
      bytes_ = 0;
    }
  }

 private:
  friend class MemoryBudget;
  struct Adopt {};  // tag: the bytes were already committed by the budget
  MemoryReservation(MemoryBudget& budget, std::size_t bytes, Adopt) noexcept
      : budget_(&budget), bytes_(bytes) {}

  MemoryBudget* budget_ = nullptr;
  std::size_t bytes_ = 0;
};

}  // namespace emsplit
