#include "machine/machine.h"

#include <numeric>

#include "common/check.h"
#include "common/string_util.h"

namespace versa {

const DeviceDesc& Machine::device(DeviceId id) const {
  VERSA_CHECK(id < devices_.size());
  return devices_[id];
}

const MemorySpaceDesc& Machine::space(SpaceId id) const {
  VERSA_CHECK(id < spaces_.size());
  return spaces_[id];
}

const WorkerDesc& Machine::worker(WorkerId id) const {
  VERSA_CHECK(id < workers_.size());
  return workers_[id];
}

double Machine::total_peak_flops() const {
  return std::accumulate(devices_.begin(), devices_.end(), 0.0,
                         [](double acc, const DeviceDesc& d) {
                           return acc + d.peak_flops;
                         });
}

std::string Machine::summary() const {
  std::string out;
  out += std::to_string(count_workers(DeviceKind::kSmp));
  out += " smp + ";
  out += std::to_string(count_workers(DeviceKind::kCuda));
  out += " cuda";
  return out;
}

Machine::Builder::Builder() {
  MemorySpaceDesc host;
  host.id = kHostSpace;
  host.name = "host";
  host.capacity = 24ull << 30;
  host.is_host = true;
  machine_.spaces_.push_back(host);
}

SpaceId Machine::Builder::add_space(std::string name, std::uint64_t capacity) {
  MemorySpaceDesc desc;
  desc.id = static_cast<SpaceId>(machine_.spaces_.size());
  desc.name = std::move(name);
  desc.capacity = capacity;
  desc.is_host = false;
  machine_.spaces_.push_back(desc);
  return desc.id;
}

DeviceId Machine::Builder::add_device(DeviceKind kind, SpaceId space,
                                      std::string name, double peak_flops) {
  VERSA_CHECK(space < machine_.spaces_.size());
  DeviceDesc desc;
  desc.id = static_cast<DeviceId>(machine_.devices_.size());
  desc.kind = kind;
  desc.space = space;
  desc.name = std::move(name);
  desc.peak_flops = peak_flops;
  machine_.devices_.push_back(desc);
  return desc.id;
}

WorkerId Machine::Builder::add_worker(DeviceId device, std::string name) {
  VERSA_CHECK(device < machine_.devices_.size());
  const DeviceDesc& dev = machine_.devices_[device];
  WorkerDesc desc;
  desc.id = static_cast<WorkerId>(machine_.workers_.size());
  desc.device = device;
  desc.kind = dev.kind;
  desc.space = dev.space;
  desc.name = name.empty()
                  ? std::string(to_string(dev.kind)) + "-worker-" +
                        std::to_string(desc.id)
                  : std::move(name);
  machine_.workers_.push_back(desc);
  ++machine_.workers_per_kind_[static_cast<std::size_t>(desc.kind)];
  return desc.id;
}

void Machine::Builder::add_bidi_link(SpaceId a, SpaceId b, double bandwidth,
                                     Duration latency) {
  VERSA_CHECK(a < machine_.spaces_.size() && b < machine_.spaces_.size());
  machine_.interconnect_.add_bidi_link(a, b, bandwidth, latency);
}

void Machine::Builder::set_host_capacity(std::uint64_t capacity) {
  machine_.spaces_[kHostSpace].capacity = capacity;
}

Machine Machine::Builder::build() {
  VERSA_CHECK_MSG(!machine_.workers_.empty(), "machine has no workers");
  return std::move(machine_);
}

}  // namespace versa
