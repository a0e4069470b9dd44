// The modelled machine: devices, memory spaces, workers and interconnect.
//
// A Machine is immutable once built. The runtime instantiates its directory
// and executor against a Machine; schedulers query it for worker/device
// topology.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "machine/device.h"
#include "machine/interconnect.h"
#include "machine/memory_space.h"

namespace versa {

class Machine {
 public:
  const std::vector<DeviceDesc>& devices() const { return devices_; }
  const std::vector<MemorySpaceDesc>& spaces() const { return spaces_; }
  const std::vector<WorkerDesc>& workers() const { return workers_; }
  const Interconnect& interconnect() const { return interconnect_; }

  const DeviceDesc& device(DeviceId id) const;
  const MemorySpaceDesc& space(SpaceId id) const;
  const WorkerDesc& worker(WorkerId id) const;

  std::size_t worker_count() const { return workers_.size(); }
  std::size_t space_count() const { return spaces_.size(); }

  /// Number of workers whose device kind matches (counted as workers are
  /// added, so O(1)).
  std::size_t count_workers(DeviceKind kind) const {
    return workers_per_kind_[static_cast<std::size_t>(kind)];
  }

  /// Sum of device peak FLOP rates (reporting only).
  double total_peak_flops() const;

  /// One-line human description, e.g. "8 smp + 2 cuda".
  std::string summary() const;

  class Builder;

 private:
  std::vector<DeviceDesc> devices_;
  std::vector<MemorySpaceDesc> spaces_;
  std::vector<WorkerDesc> workers_;
  std::array<std::size_t, 2> workers_per_kind_{};  ///< indexed by DeviceKind
  Interconnect interconnect_;
};

/// Builder enforcing the id invariants (dense ids, host space first).
class Machine::Builder {
 public:
  Builder();

  /// Add a memory space; returns its id. The host space (id 0) exists
  /// from construction.
  SpaceId add_space(std::string name, std::uint64_t capacity);

  /// Add a device computing from `space`; returns its id.
  DeviceId add_device(DeviceKind kind, SpaceId space, std::string name,
                      double peak_flops);

  /// Add a worker thread devoted to `device`; returns its id.
  WorkerId add_worker(DeviceId device, std::string name = {});

  /// Register links (forwards to Interconnect).
  void add_bidi_link(SpaceId a, SpaceId b, double bandwidth, Duration latency);

  /// Set host space capacity (defaults to 24 GB).
  void set_host_capacity(std::uint64_t capacity);

  Machine build();

 private:
  Machine machine_;
};

}  // namespace versa
