// Registered data regions.
//
// A region is a contiguous object the runtime manages across memory spaces
// (a matrix tile, a vector slice, ...). Regions may be backed by real host
// storage (functional execution on the thread backend) or be purely virtual
// (paper-scale simulation, where allocating 4 GB matrices would be wasteful
// — only sizes matter for timing and transfer accounting).
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"

namespace versa {

struct RegionDesc {
  RegionId id = 0;
  std::string name;
  std::uint64_t size = 0;  ///< bytes
  /// Host backing storage; nullptr for virtual regions. The runtime never
  /// owns this memory — lifetime belongs to the application.
  void* host_ptr = nullptr;
};

}  // namespace versa
