// Persistent TaskVersionSet profiles — the §VII "external hints" sketch
// grown into a real subsystem. The versioning scheduler pays a λ-bounded
// learning phase on every run; persisting the learned per-size-group
// statistics (mean, count, second moment) across process restarts lets a
// warm-started run enter the reliable-information phase immediately.
//
// On-disk format (versioned, line-oriented, keyed by names so it survives
// id renumbering):
//
//   # versa profile-store v1
//   machine <free text, informational>
//   signature <16-hex machine hash>
//   entry <task_name> <version_name> <group_key> <mean> <count> <m2>
//   ...
//   checksum <16-hex FNV-1a over the entry lines>
//
// Load-time validation, strongest first: magic + format version, machine
// signature (a profile learned on different hardware is worse than no
// profile — mismatch falls back to a cold start), payload checksum
// (truncated or bit-rotted files fall back to a cold start), then per-entry
// name resolution (stale entries for renamed tasks are skipped, counted as
// misses). Nothing is applied to the table unless the whole file is sound.
//
// The store is the only profile format the runtime writes, and the one
// module that reads profile files. Its loader sniffs the content: a native
// store is validated as above; anything else must be a hand-written text
// hints file (the §VII "written by the user" case):
//
//   # versa hints v1
//   hint <task_name> <version_name> <group_key> <mean_seconds> <count>
//
// Text hints are unsigned, load as trusted input, and have their counts
// clamped to λ. Any other content (XML, binary garbage) is kCorrupt and
// leaves the table untouched.
//
// Thread-safety: immutable after construction (registry reference +
// signature value); load()/save() touch only local state and the
// filesystem. Callers serialize the *table* they load into — the runtime
// loads under its lock at first-submit and saves at destruction, after
// worker threads have joined.
#pragma once

#include <string>
#include <string_view>

#include "profile/machine_signature.h"
#include "sched/profile_table.h"
#include "task/version_registry.h"

namespace versa {

enum class ProfileLoadStatus : std::uint8_t {
  kOk,                 ///< file parsed and applied (possibly with skips)
  kMissing,            ///< file absent/unreadable — normal cold start
  kCorrupt,            ///< bad magic, malformed entry, or checksum mismatch
  kSignatureMismatch,  ///< recorded on a different machine/calibration
};

const char* to_string(ProfileLoadStatus status);

struct ProfileLoadResult {
  ProfileLoadStatus status = ProfileLoadStatus::kMissing;
  int applied = 0;  ///< entries seeded into the table (store hits)
  int skipped = 0;  ///< entries naming unknown tasks/versions (store misses)
  std::string message;

  /// True when the load seeded at least one entry — the run warm-starts.
  bool warm() const { return status == ProfileLoadStatus::kOk && applied > 0; }
};

class ProfileStore {
 public:
  ProfileStore(const VersionRegistry& registry, MachineSignature signature);

  const MachineSignature& signature() const { return signature_; }

  /// Native-format serialization of every table entry.
  std::string serialize(const ProfileTable& table) const;

  /// Parse a native store or text hints (sniffed from the content) into
  /// `table`. The store is signature- and checksum-validated; text hints
  /// carry no signature. Nothing is applied unless the whole text is sound.
  ProfileLoadResult import_text(std::string_view text,
                                ProfileTable& table) const;

  /// File wrappers. save() always writes the native store and returns
  /// false when the file cannot be written.
  bool save(const std::string& path, const ProfileTable& table) const;
  ProfileLoadResult load(const std::string& path, ProfileTable& table) const;

 private:
  const VersionRegistry& registry_;
  MachineSignature signature_;

  ProfileLoadResult import_store(std::string_view text,
                                 ProfileTable& table) const;
  ProfileLoadResult import_hints(std::string_view text,
                                 ProfileTable& table) const;
};

}  // namespace versa
