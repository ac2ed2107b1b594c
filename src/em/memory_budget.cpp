#include "em/memory_budget.hpp"

#include <algorithm>
#include <utility>

namespace emsplit {

MemoryReservation MemoryBudget::reserve(std::size_t bytes) {
  return MemoryReservation(*this, bytes);
}

std::optional<MemoryReservation> MemoryBudget::try_reserve(std::size_t bytes,
                                                           bool allow_reclaim) {
  if (!commit_or_reclaim(bytes, allow_reclaim)) return std::nullopt;
  return MemoryReservation(*this, bytes, MemoryReservation::Adopt{});
}

void MemoryBudget::acquire(std::size_t bytes) {
  if (commit_or_reclaim(bytes, /*allow_reclaim=*/true)) return;
  const std::lock_guard<std::mutex> lock(mu_);
  throw BudgetExceeded(over_budget_message(bytes));
}

bool MemoryBudget::commit_or_reclaim(std::size_t bytes, bool allow_reclaim) {
  Reclaimer reclaimer;
  std::size_t shortfall = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (commit_locked(bytes)) return true;
    if (!allow_reclaim || !reclaimer_) return false;
    reclaimer = reclaimer_;
    shortfall = bytes - (capacity_ - used_);
  }
  // Outside the lock: the reclaimer release()s what it gives back.  Check
  // again even if it gave nothing; another thread may have released.
  (void)reclaimer(shortfall);
  const std::lock_guard<std::mutex> lock(mu_);
  return commit_locked(bytes);
}

bool MemoryBudget::commit_locked(std::size_t bytes) noexcept {
  if (bytes > capacity_ - used_) return false;
  used_ += bytes;
  peak_ = std::max(peak_, used_);
  ++live_[bytes];
  return true;
}

std::string MemoryBudget::over_budget_message(std::size_t bytes) const {
  std::string msg = "MemoryBudget: reserving ";
  msg += std::to_string(bytes);
  msg += " bytes over capacity ";
  msg += std::to_string(capacity_);
  msg += " with ";
  msg += std::to_string(used_);
  msg += " already used; live reservations:";
  for (const auto& [size, count] : live_) {
    msg += ' ';
    msg += std::to_string(count);
    msg += 'x';
    msg += std::to_string(size);
  }
  return msg;
}

void MemoryBudget::release(std::size_t bytes) noexcept {
  std::function<void()> listener;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    used_ -= bytes;
    const auto it = live_.find(bytes);
    if (it != live_.end() && --it->second == 0) live_.erase(it);
    if (bytes > 0 && release_listener_) listener = release_listener_;
  }
  // Outside the lock: the listener (admission wakeup) may try_reserve.
  if (listener) listener();
}

}  // namespace emsplit
