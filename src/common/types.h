// Fundamental identifier and time types shared by every versa module.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace versa {

/// Virtual or wall-clock time, in seconds. All scheduling and simulation
/// arithmetic is performed in double-precision seconds; the worst-case
/// resolution over a multi-hour run is still well under a nanosecond.
using Time = double;

/// A span of time in seconds.
using Duration = double;

constexpr Time kTimeInfinity = std::numeric_limits<Time>::infinity();

/// Identifier types. They are distinct aliases (not strong types) because
/// they cross module boundaries constantly; debug checks guard misuse.
using TaskId = std::uint64_t;
using VersionId = std::uint32_t;
using TaskTypeId = std::uint32_t;
using WorkerId = std::uint32_t;
using DeviceId = std::uint32_t;
using SpaceId = std::uint32_t;
using RegionId = std::uint64_t;

/// Dense ids of the versioning profile (ProfileTable): a CellId names one
/// (task type, data-set-size group) cell of the paper's Table I, a PriceId
/// one (cell, version) entry of it, which is also the load account's
/// price bucket.
using CellId = std::uint32_t;
using PriceId = std::uint32_t;

/// Service mode (DESIGN.md §10): one runtime serves many independent task
/// graphs, each owned by a tenant. Graph 0 / tenant 0 are the implicit
/// defaults used by every single-graph program, so code that never opens a
/// second graph behaves exactly as before.
using GraphId = std::uint32_t;
using TenantId = std::uint32_t;

constexpr TaskId kInvalidTask = std::numeric_limits<TaskId>::max();
constexpr VersionId kInvalidVersion = std::numeric_limits<VersionId>::max();
constexpr TaskTypeId kInvalidTaskType = std::numeric_limits<TaskTypeId>::max();
constexpr WorkerId kInvalidWorker = std::numeric_limits<WorkerId>::max();
constexpr DeviceId kInvalidDevice = std::numeric_limits<DeviceId>::max();
constexpr SpaceId kInvalidSpace = std::numeric_limits<SpaceId>::max();
constexpr GraphId kInvalidGraph = std::numeric_limits<GraphId>::max();
constexpr TenantId kInvalidTenant = std::numeric_limits<TenantId>::max();
constexpr CellId kNoCell = std::numeric_limits<CellId>::max();

/// The implicit graph root / tenant every task belongs to unless a service
/// session says otherwise.
constexpr GraphId kDefaultGraph = 0;
constexpr TenantId kDefaultTenant = 0;

/// Memory space 0 is always the host (SMP main memory), as in Nanos++.
constexpr SpaceId kHostSpace = 0;

/// Device classes understood by the `target device(...)` clause analogue.
enum class DeviceKind : std::uint8_t {
  kSmp,   ///< General-purpose CPU core.
  kCuda,  ///< GPU-like accelerator with its own memory space.
};

const char* to_string(DeviceKind kind);

}  // namespace versa
