#include "data/transfer_engine.h"

#include <algorithm>

#include "common/check.h"

namespace versa {

TransferEngine::TransferEngine(const Machine& machine) : machine_(machine) {}

TransferEngine::LinkState& TransferEngine::link_state(SpaceId from,
                                                      SpaceId to) {
  for (auto& link : links_) {
    if (link.from == from && link.to == to) return link;
  }
  links_.push_back(LinkState{from, to, 0.0});
  return links_.back();
}

Time TransferEngine::occupy(RegionId region, SpaceId from, SpaceId to,
                            std::uint64_t bytes, Time start) {
  const Duration cost = machine_.interconnect().transfer_time(from, to, bytes);
  LinkState& link = link_state(from, to);
  const Time begin = std::max(start, link.busy_until);
  link.busy_until = begin + cost;
  routed_bytes_ += bytes;
  records_.push_back(
      TransferRecord{region, from, to, bytes, begin, link.busy_until});
  return link.busy_until;
}

const std::vector<SpaceId>& TransferEngine::route(SpaceId from, SpaceId to) {
  const std::size_t spaces = machine_.space_count();
  if (routes_.empty()) {
    routes_.assign(spaces, std::vector<std::vector<SpaceId>>(spaces));
  }
  std::vector<SpaceId>& cached = routes_[from][to];
  if (!cached.empty()) return cached;

  // BFS for the fewest-hop path over the directed link graph.
  std::vector<SpaceId> previous(spaces, kInvalidSpace);
  std::vector<bool> seen(spaces, false);
  std::vector<SpaceId> frontier{from};
  seen[from] = true;
  while (!frontier.empty() && !seen[to]) {
    std::vector<SpaceId> next;
    for (const SpaceId node : frontier) {
      for (SpaceId candidate = 0; candidate < spaces; ++candidate) {
        if (seen[candidate] ||
            machine_.interconnect().find(node, candidate) == nullptr) {
          continue;
        }
        seen[candidate] = true;
        previous[candidate] = node;
        next.push_back(candidate);
      }
    }
    frontier = std::move(next);
  }
  VERSA_CHECK_MSG(seen[to], "no route between memory spaces");
  std::vector<SpaceId> path{to};
  while (path.back() != from) {
    path.push_back(previous[path.back()]);
  }
  cached.assign(path.rbegin(), path.rend());
  return cached;
}

Time TransferEngine::enqueue_one(const TransferOp& op, Time start) {
  if (op.from == op.to) return start;
  if (machine_.interconnect().find(op.from, op.to) != nullptr) {
    return occupy(op.region, op.from, op.to, op.bytes, start);
  }
  // No direct link: hop along the fewest-hop route, each hop serialized
  // after the previous one (store-and-forward staging).
  const std::vector<SpaceId>& path = route(op.from, op.to);
  Time done = start;
  for (std::size_t hop = 0; hop + 1 < path.size(); ++hop) {
    done = occupy(op.region, path[hop], path[hop + 1], op.bytes, done);
  }
  return done;
}

Time TransferEngine::enqueue(const TransferList& ops, Time start) {
  Time done = start;
  for (const TransferOp& op : ops) {
    done = std::max(done, enqueue_one(op, start));
  }
  return done;
}

Time TransferEngine::link_free_at(SpaceId from, SpaceId to) const {
  for (const auto& link : links_) {
    if (link.from == from && link.to == to) return link.busy_until;
  }
  return 0.0;
}

void TransferEngine::reset() {
  links_.clear();
  routed_bytes_ = 0;
  records_.clear();
}

}  // namespace versa
