#include "profile/profile_store.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/log.h"
#include "common/string_util.h"

namespace versa {

namespace {

constexpr std::string_view kMagic = "# versa profile-store v1";
// Anything announcing itself as a profile store (any version) goes to the
// strict store parser, so an unsupported version is a corrupt-file error
// rather than being silently misread as text hints.
constexpr std::string_view kMagicPrefix = "# versa profile-store";

std::uint64_t fnv1a(std::uint64_t hash, std::string_view text) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

std::string to_hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace

const char* to_string(ProfileLoadStatus status) {
  switch (status) {
    case ProfileLoadStatus::kOk: return "ok";
    case ProfileLoadStatus::kMissing: return "missing";
    case ProfileLoadStatus::kCorrupt: return "corrupt";
    case ProfileLoadStatus::kSignatureMismatch: return "signature-mismatch";
  }
  return "?";
}

ProfileStore::ProfileStore(const VersionRegistry& registry,
                           MachineSignature signature)
    : registry_(registry), signature_(std::move(signature)) {}

std::string ProfileStore::serialize(const ProfileTable& table) const {
  std::ostringstream out;
  out << kMagic << "\n";
  out << "machine " << signature_.text << "\n";
  out << "signature " << signature_.hex() << "\n";
  std::uint64_t checksum = kFnvOffset;
  for (const ProfileTable::Entry& entry : table.entries()) {
    if (entry.count == 0) continue;
    char line[320];
    // %.17g round-trips doubles exactly; the store must reproduce the
    // accumulator state bit-for-bit so reliability tests stay meaningful.
    std::snprintf(line, sizeof(line), "entry %s %s %llu %.17g %llu %.17g\n",
                  registry_.task_name(entry.type).c_str(),
                  registry_.version(entry.version).name.c_str(),
                  static_cast<unsigned long long>(entry.group_key), entry.mean,
                  static_cast<unsigned long long>(entry.count), entry.m2);
    checksum = fnv1a(checksum, line);
    out << line;
  }
  out << "checksum " << to_hex(checksum) << "\n";
  return out.str();
}

ProfileLoadResult ProfileStore::import_store(std::string_view text,
                                             ProfileTable& table) const {
  ProfileLoadResult result;
  auto corrupt = [&result](std::string message) {
    result.status = ProfileLoadStatus::kCorrupt;
    result.applied = 0;
    result.skipped = 0;
    result.message = std::move(message);
    return result;
  };

  struct Staged {
    TaskTypeId type;
    VersionId version;
    std::uint64_t group_key;
    double mean;
    std::uint64_t count;
    double m2;
  };
  std::vector<Staged> staged;
  int skipped = 0;

  bool seen_magic = false;
  bool seen_signature = false;
  bool seen_checksum = false;
  std::uint64_t checksum = kFnvOffset;
  std::string stored_machine;

  for (const std::string& raw_line : split(text, '\n')) {
    const std::string_view line = trim(raw_line);
    if (line.empty()) continue;
    if (!seen_magic) {
      if (line != kMagic) return corrupt("bad magic / format version");
      seen_magic = true;
      continue;
    }
    if (seen_checksum) return corrupt("content after checksum line");
    if (starts_with(line, "signature ")) {
      const std::uint64_t stored =
          std::strtoull(std::string(line.substr(10)).c_str(), nullptr, 16);
      seen_signature = true;
      if (stored != signature_.hash) {
        result.status = ProfileLoadStatus::kSignatureMismatch;
        result.message = "recorded on \"" + stored_machine +
                         "\" (signature " + to_hex(stored) +
                         "), this machine is \"" + signature_.text +
                         "\" (signature " + signature_.hex() + ")";
        return result;  // nothing applied — cold start
      }
      continue;
    }
    if (starts_with(line, "machine ")) {
      stored_machine = std::string(line.substr(8));
      continue;
    }
    if (starts_with(line, "entry ")) {
      if (!seen_signature) return corrupt("entry before signature");
      // Hash the exact serialized bytes (trimmed line + newline).
      checksum = fnv1a(checksum, line);
      checksum = fnv1a(checksum, "\n");
      std::istringstream in{std::string(line)};
      std::string keyword, task_name, version_name;
      unsigned long long group_key = 0, count = 0;
      double mean = 0.0, m2 = 0.0;
      in >> keyword >> task_name >> version_name >> group_key >> mean >>
          count >> m2;
      if (in.fail() || mean < 0.0 || m2 < 0.0 || count == 0) {
        return corrupt("malformed entry line");
      }
      const TaskTypeId type = registry_.find_task(task_name);
      const VersionId version =
          type == kInvalidTaskType ? kInvalidVersion
                                   : registry_.find_version(type, version_name);
      if (version == kInvalidVersion) {
        // Applications evolve; stale names are a miss, not an error.
        ++skipped;
        continue;
      }
      staged.push_back(Staged{type, version, group_key, mean, count, m2});
      continue;
    }
    if (starts_with(line, "checksum ")) {
      const std::uint64_t stored =
          std::strtoull(std::string(line.substr(9)).c_str(), nullptr, 16);
      if (stored != checksum) return corrupt("checksum mismatch");
      seen_checksum = true;
      continue;
    }
    return corrupt("unknown directive: " + std::string(line));
  }
  if (!seen_magic) return corrupt("empty file");
  if (!seen_checksum) return corrupt("missing checksum (truncated file?)");

  for (const Staged& entry : staged) {
    table.restore(entry.type, entry.version, entry.group_key, entry.mean,
                  entry.count, entry.m2);
  }
  result.status = ProfileLoadStatus::kOk;
  result.applied = static_cast<int>(staged.size());
  result.skipped = skipped;
  result.message = "native store";
  return result;
}

ProfileLoadResult ProfileStore::import_hints(std::string_view text,
                                             ProfileTable& table) const {
  // Hand-written `hint <task> <version> <group_key> <mean> <count>` lines.
  // They carry no signature or checksum, so every line is validated and
  // staged first: a malformed line leaves the table untouched.
  struct Staged {
    TaskTypeId type;
    VersionId version;
    std::uint64_t group_key;
    double mean;
    std::uint64_t count;
  };
  std::vector<Staged> staged;
  ProfileLoadResult result;
  for (const std::string& raw_line : split(text, '\n')) {
    const std::string_view line = trim(raw_line);
    if (line.empty() || line.front() == '#') continue;
    std::istringstream in{std::string(line)};
    std::string keyword, task_name, version_name;
    unsigned long long group_key = 0, count = 0;
    double mean = 0.0;
    in >> keyword >> task_name >> version_name >> group_key >> mean >> count;
    if (in.fail() || keyword != "hint" || mean < 0.0 || count == 0) {
      result.status = ProfileLoadStatus::kCorrupt;
      result.message = "malformed hints line: " + std::string(line);
      return result;
    }
    const TaskTypeId type = registry_.find_task(task_name);
    const VersionId version =
        type == kInvalidTaskType ? kInvalidVersion
                                 : registry_.find_version(type, version_name);
    if (version == kInvalidVersion) {
      ++result.skipped;  // stale hints must not be fatal
      continue;
    }
    // Clamp the replayed count to λ: enough to mark the group reliable
    // without letting a long-dead history dominate fresh measurements.
    staged.push_back(Staged{type, version, group_key, mean,
                            std::min<std::uint64_t>(count,
                                                    table.config().lambda)});
  }
  for (const Staged& entry : staged) {
    table.prime(entry.type, entry.version, entry.group_key, entry.mean,
                entry.count);
  }
  result.status = ProfileLoadStatus::kOk;
  result.applied = static_cast<int>(staged.size());
  result.message = "text hints (unsigned)";
  return result;
}

ProfileLoadResult ProfileStore::import_text(std::string_view text,
                                            ProfileTable& table) const {
  if (starts_with(trim(text.substr(0, 64)), kMagicPrefix)) {
    return import_store(text, table);
  }
  if (trim(text).empty()) {
    ProfileLoadResult result;
    result.status = ProfileLoadStatus::kCorrupt;
    result.message = "empty file";
    return result;
  }
  return import_hints(text, table);
}

bool ProfileStore::save(const std::string& path,
                        const ProfileTable& table) const {
  // Atomic replace (temp + rename): a concurrent load() of the same path —
  // another service instance warm-starting from it — sees either the old
  // or the new store, never a torn half-write. The checksum would
  // downgrade a torn read to a cold start anyway; the rename avoids even
  // that.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << serialize(table);
    if (!out) return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

ProfileLoadResult ProfileStore::load(const std::string& path,
                                     ProfileTable& table) const {
  std::ifstream in(path);
  ProfileLoadResult result;
  if (!in) {
    result.status = ProfileLoadStatus::kMissing;
    result.message = "cannot read " + path;
    return result;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  result = import_text(buffer.str(), table);
  if (result.status != ProfileLoadStatus::kOk) {
    VERSA_LOG(kWarn) << "profile store " << path << ": "
                     << to_string(result.status)
                     << (result.message.empty() ? "" : " — ")
                     << result.message << " (cold start)";
  }
  return result;
}

}  // namespace versa
