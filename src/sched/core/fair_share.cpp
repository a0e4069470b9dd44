#include "sched/core/fair_share.h"

#include "common/check.h"

namespace versa::core {

void FairShareInterleaver::set_window(std::size_t slots) {
  VERSA_CHECK_MSG(slots >= 1, "fair-share window must be at least 1");
  window_ = slots;
}

void FairShareInterleaver::set_weight(TenantId tenant, std::uint32_t weight) {
  VERSA_CHECK_MSG(weight >= 1, "fair-share weight must be at least 1");
  lane(tenant).weight = weight;
}

FairShareInterleaver::TenantLane& FairShareInterleaver::lane(TenantId tenant) {
  while (lanes_.size() <= tenant) lanes_.emplace_back();
  return lanes_[tenant];
}

bool FairShareInterleaver::offer(TenantId tenant, TaskId id) {
  TenantLane& l = lane(tenant);
  ++l.offered;
  if (in_window_ < window_) {
    ++in_window_;
    return true;
  }
  l.parked.push_back(id);
  ++parked_total_;
  return false;
}

bool FairShareInterleaver::advance_cursor() {
  const std::size_t n = lanes_.size();
  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t c = (cursor_ + i) % n;
    if (!lanes_[c].parked.empty()) {
      cursor_ = c;
      credit_ = lanes_[c].weight;
      return true;
    }
  }
  return false;
}

void FairShareInterleaver::on_complete(TenantId tenant,
                                       std::vector<TaskId>& release) {
  ++lane(tenant).completed;
  VERSA_CHECK(in_window_ > 0);
  --in_window_;
  // Refill freed slots by weighted round-robin: the cursor tenant gets up
  // to `weight` consecutive releases, then the cursor moves to the next
  // tenant with parked work.
  while (in_window_ < window_ && parked_total_ > 0) {
    if (credit_ == 0 || lanes_[cursor_].parked.empty()) {
      if (!advance_cursor()) break;
    }
    TenantLane& l = lanes_[cursor_];
    release.push_back(l.parked.front());
    l.parked.pop_front();
    --parked_total_;
    ++in_window_;
    --credit_;
  }
}

std::uint64_t FairShareInterleaver::offered(TenantId tenant) const {
  if (tenant >= lanes_.size()) return 0;
  return lanes_[tenant].offered;
}

std::uint64_t FairShareInterleaver::completed(TenantId tenant) const {
  if (tenant >= lanes_.size()) return 0;
  return lanes_[tenant].completed;
}

}  // namespace versa::core
