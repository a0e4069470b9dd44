// Data access clauses — the runtime analogue of the OmpSs
// input / output / inout dependence clauses (with copy_deps semantics:
// every dependence clause also implies the corresponding copy clause).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace versa {

enum class AccessMode : std::uint8_t {
  kIn,     ///< task reads the region (copy_in)
  kOut,    ///< task overwrites the region entirely (copy_out)
  kInOut,  ///< task reads and writes the region (copy_inout)
};

const char* to_string(AccessMode mode);

inline bool reads(AccessMode mode) { return mode != AccessMode::kOut; }
inline bool writes(AccessMode mode) { return mode != AccessMode::kIn; }

/// One dependence/copy clause of a task: a byte range of a registered
/// region. Offset/length support OmpSs array-section style dependences;
/// most callers pass the whole region.
struct Access {
  RegionId region = 0;
  AccessMode mode = AccessMode::kIn;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;  ///< 0 means "to the end of the region"

  static Access in(RegionId r) { return {r, AccessMode::kIn, 0, 0}; }
  static Access out(RegionId r) { return {r, AccessMode::kOut, 0, 0}; }
  static Access inout(RegionId r) { return {r, AccessMode::kInOut, 0, 0}; }

  static Access in_range(RegionId r, std::uint64_t off, std::uint64_t len) {
    return {r, AccessMode::kIn, off, len};
  }
  static Access out_range(RegionId r, std::uint64_t off, std::uint64_t len) {
    return {r, AccessMode::kOut, off, len};
  }
  static Access inout_range(RegionId r, std::uint64_t off, std::uint64_t len) {
    return {r, AccessMode::kInOut, off, len};
  }
};

using AccessList = std::vector<Access>;

/// One access clause resolved against its region for a task body: the
/// host pointer of the clause's first byte (nullptr for virtual regions),
/// its byte size, and where it starts within the region.
struct ResolvedArg {
  void* ptr = nullptr;
  std::uint64_t size = 0;
  RegionId region = 0;
  std::uint64_t offset = 0;
};

/// One byte span a task body actually touched, reported through the
/// AccessWitness API (DESIGN.md §12). Unlike Access, `length` is always
/// resolved — witnesses are recorded against live regions, so "to the
/// end" has no meaning here.
struct WitnessSpan {
  RegionId region = 0;
  AccessMode mode = AccessMode::kIn;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

/// The spans one task execution touched, in report order. Only allocated
/// when a sanitizer is attached to the runtime (TaskContext carries a null
/// log otherwise), so witness calls in task bodies are a branch-on-null
/// when sanitizing is off.
using WitnessLog = std::vector<WitnessSpan>;

}  // namespace versa
