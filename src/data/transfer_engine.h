// Virtual-time transfer engine.
//
// Models each interconnect link as a serial resource: copies on the same
// link queue up; copies on different links proceed concurrently. This is
// what makes transfer/compute overlap and prefetching meaningful in the
// simulation — a prefetch issued early completes before the task needs it,
// exactly like the asynchronous CUDA copies the paper's runtime uses.
//
// Thread-safety: none of its own. Only the sim backend drives the engine,
// and it does so under the runtime lock (DESIGN.md §9).
#pragma once

#include <cstdint>
#include <vector>

#include "data/directory.h"
#include "machine/machine.h"

namespace versa {

/// One modelled copy hop (staged transfers record one entry per hop).
struct TransferRecord {
  RegionId region = 0;
  SpaceId from = kInvalidSpace;
  SpaceId to = kInvalidSpace;
  std::uint64_t bytes = 0;
  Time start = 0.0;
  Time end = 0.0;
};

class TransferEngine {
 public:
  explicit TransferEngine(const Machine& machine);

  /// Model the execution of `ops` starting no earlier than `start`.
  /// Each op occupies its link after the link's previous work; ops without
  /// a direct link are routed over the fewest-hop path through the link
  /// graph (e.g. GPU -> node host -> network -> node host -> GPU on a
  /// cluster), each hop serializing on its link.
  /// Returns the completion time of the whole batch.
  Time enqueue(const TransferList& ops, Time start);

  /// Completion time for a single op (used by tests).
  Time enqueue_one(const TransferOp& op, Time start);

  /// Earliest time the link from->to becomes free.
  Time link_free_at(SpaceId from, SpaceId to) const;

  /// Total bytes routed (including staging hops).
  std::uint64_t routed_bytes() const { return routed_bytes_; }

  /// Per-hop timeline of every modelled copy, in issue order (feeds the
  /// overlap analyzer and the trace exporter).
  const std::vector<TransferRecord>& records() const { return records_; }

  void reset();

 private:
  struct LinkState {
    SpaceId from;
    SpaceId to;
    Time busy_until = 0.0;
  };

  const Machine& machine_;
  std::vector<LinkState> links_;
  std::uint64_t routed_bytes_ = 0;
  std::vector<TransferRecord> records_;
  /// Memoized fewest-hop routes keyed by (from, to).
  std::vector<std::vector<std::vector<SpaceId>>> routes_;

  LinkState& link_state(SpaceId from, SpaceId to);
  /// Occupy the link from->to with one hop of `region`'s copy.
  Time occupy(RegionId region, SpaceId from, SpaceId to, std::uint64_t bytes,
              Time start);

  /// Space sequence from -> ... -> to (inclusive); computed by BFS over
  /// the link graph and cached. Aborts if no path exists.
  const std::vector<SpaceId>& route(SpaceId from, SpaceId to);
};

}  // namespace versa
