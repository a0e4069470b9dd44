// Tests for the persistent profile subsystem (src/profile/): machine
// signatures, store save/load round-trips (property test over random
// tables), signature-mismatch rejection, corrupt-file fallback, hand-written
// text hints through the same loader, and the CUSUM drift
// detector (no false trigger under calibrated lognormal noise; prompt
// trigger after a 2x cost shift).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common/random.h"
#include "machine/presets.h"
#include "profile/drift_detector.h"
#include "profile/machine_signature.h"
#include "profile/profile_store.h"

namespace versa {
namespace {

struct Fixture {
  VersionRegistry registry;
  TaskTypeId matmul, potrf;
  VersionId mm_gpu, mm_smp, po_gpu;

  Fixture() {
    matmul = registry.declare_task("matmul_tile");
    mm_gpu = registry.add_version(matmul, DeviceKind::kCuda, "cublas", nullptr,
                                  nullptr);
    mm_smp = registry.add_version(matmul, DeviceKind::kSmp, "cblas", nullptr,
                                  nullptr);
    potrf = registry.declare_task("potrf");
    po_gpu = registry.add_version(potrf, DeviceKind::kCuda, "magma", nullptr,
                                  nullptr);
  }
};

MachineSignature test_signature() {
  return compute_machine_signature(make_minotauro_node(4, 2));
}

// --- machine signature --------------------------------------------------

TEST(MachineSignature, DeterministicAndSensitive) {
  const Machine a = make_minotauro_node(4, 2);
  const Machine b = make_minotauro_node(4, 2);
  EXPECT_EQ(compute_machine_signature(a).hash,
            compute_machine_signature(b).hash);

  // Different worker counts, device sets, and calibration tokens all
  // change the hash.
  EXPECT_NE(compute_machine_signature(a).hash,
            compute_machine_signature(make_minotauro_node(8, 2)).hash);
  EXPECT_NE(compute_machine_signature(a).hash,
            compute_machine_signature(make_minotauro_node(4, 1)).hash);
  EXPECT_NE(compute_machine_signature(a).hash,
            compute_machine_signature(make_smp_machine(4)).hash);
  EXPECT_NE(compute_machine_signature(a).hash,
            compute_machine_signature(a, "calib-v2").hash);
  EXPECT_EQ(compute_machine_signature(a, "calib-v2").hash,
            compute_machine_signature(a, "calib-v2").hash);
}

// --- store round trip ---------------------------------------------------

TEST(ProfileStore, RoundTripPropertyOverRandomTables) {
  Fixture fx;
  Rng rng(20260805);
  for (int trial = 0; trial < 25; ++trial) {
    ProfileConfig config;
    config.lambda = 1 + static_cast<std::uint32_t>(rng.next_below(4));
    config.mean_kind =
        rng.next_below(2) == 0 ? MeanKind::kArithmetic : MeanKind::kExponential;
    ProfileTable source(fx.registry, config);

    // Random observation history over random (type, version, size) cells.
    const struct {
      TaskTypeId type;
      VersionId version;
    } cells[] = {{fx.matmul, fx.mm_gpu}, {fx.matmul, fx.mm_smp},
                 {fx.potrf, fx.po_gpu}};
    const int observations = 1 + static_cast<int>(rng.next_below(60));
    for (int i = 0; i < observations; ++i) {
      const auto& cell = cells[rng.next_below(3)];
      const std::uint64_t size = 1024u << rng.next_below(4);
      source.record(cell.type, cell.version, size,
                    rng.uniform(1e-4, 5e-1));
    }

    const ProfileStore store(fx.registry, test_signature());
    const std::string text = store.serialize(source);

    ProfileTable loaded(fx.registry, config);
    const ProfileLoadResult result = store.import_text(text, loaded);
    ASSERT_EQ(result.status, ProfileLoadStatus::kOk) << result.message;
    EXPECT_EQ(result.skipped, 0);
    EXPECT_TRUE(result.warm());

    const auto source_entries = source.entries();
    const auto loaded_entries = loaded.entries();
    ASSERT_EQ(source_entries.size(), loaded_entries.size());
    ASSERT_EQ(result.applied, static_cast<int>(source_entries.size()));
    for (std::size_t i = 0; i < source_entries.size(); ++i) {
      EXPECT_EQ(source_entries[i].type, loaded_entries[i].type);
      EXPECT_EQ(source_entries[i].version, loaded_entries[i].version);
      EXPECT_EQ(source_entries[i].group_key, loaded_entries[i].group_key);
      EXPECT_EQ(source_entries[i].count, loaded_entries[i].count);
      // %.17g round-trips doubles exactly.
      EXPECT_EQ(source_entries[i].mean, loaded_entries[i].mean);
      EXPECT_EQ(source_entries[i].m2, loaded_entries[i].m2);
    }
  }
}

TEST(ProfileStore, RoundTripPreservesVarianceAndReliability) {
  Fixture fx;
  ProfileConfig config;
  config.lambda = 3;
  ProfileTable source(fx.registry, config);
  source.record(fx.matmul, fx.mm_gpu, 4096, 4e-3);
  source.record(fx.matmul, fx.mm_gpu, 4096, 5e-3);
  source.record(fx.matmul, fx.mm_gpu, 4096, 6e-3);
  source.record(fx.matmul, fx.mm_smp, 4096, 0.30);
  source.record(fx.matmul, fx.mm_smp, 4096, 0.32);
  source.record(fx.matmul, fx.mm_smp, 4096, 0.34);
  ASSERT_TRUE(source.reliable(fx.matmul, 4096));

  const ProfileStore store(fx.registry, test_signature());
  ProfileTable loaded(fx.registry, config);
  ASSERT_EQ(store.import_text(store.serialize(source), loaded).status,
            ProfileLoadStatus::kOk);
  // A warm-started table is immediately reliable — no learning phase.
  EXPECT_TRUE(loaded.reliable(fx.matmul, 4096));
  EXPECT_DOUBLE_EQ(loaded.variance(fx.matmul, fx.mm_gpu, 4096),
                   source.variance(fx.matmul, fx.mm_gpu, 4096));
  EXPECT_NEAR(loaded.variance(fx.matmul, fx.mm_gpu, 4096), 1e-6, 1e-12);
}

// --- validation and fallback --------------------------------------------

TEST(ProfileStore, SignatureMismatchRejectsWholeFile) {
  Fixture fx;
  ProfileTable source(fx.registry, {});
  source.record(fx.matmul, fx.mm_gpu, 4096, 5e-3);

  const ProfileStore writer(
      fx.registry, compute_machine_signature(make_minotauro_node(8, 2)));
  const std::string text = writer.serialize(source);

  const ProfileStore reader(fx.registry, test_signature());
  ProfileTable target(fx.registry, {});
  const ProfileLoadResult result = reader.import_text(text, target);
  EXPECT_EQ(result.status, ProfileLoadStatus::kSignatureMismatch);
  EXPECT_EQ(result.applied, 0);
  EXPECT_FALSE(result.warm());
  EXPECT_EQ(target.group_count(), 0u);  // graceful cold start
  EXPECT_NE(result.message.find("signature"), std::string::npos);
}

TEST(ProfileStore, CorruptAndTruncatedFilesFallBackToColdStart) {
  Fixture fx;
  ProfileTable source(fx.registry, {});
  source.record(fx.matmul, fx.mm_gpu, 4096, 5e-3);
  source.record(fx.matmul, fx.mm_smp, 4096, 0.3);

  const ProfileStore store(fx.registry, test_signature());
  const std::string text = store.serialize(source);

  // Flip one payload byte: the checksum catches it.
  std::string tampered = text;
  const std::size_t pos = tampered.find("entry");
  ASSERT_NE(pos, std::string::npos);
  tampered[pos + 10] ^= 1;
  ProfileTable t1(fx.registry, {});
  EXPECT_EQ(store.import_text(tampered, t1).status,
            ProfileLoadStatus::kCorrupt);
  EXPECT_EQ(t1.group_count(), 0u);

  // Truncate before the checksum line: missing-checksum corruption.
  const std::string truncated = text.substr(0, text.rfind("checksum"));
  ProfileTable t2(fx.registry, {});
  EXPECT_EQ(store.import_text(truncated, t2).status,
            ProfileLoadStatus::kCorrupt);
  EXPECT_EQ(t2.group_count(), 0u);

  // Garbage and wrong magic.
  ProfileTable t3(fx.registry, {});
  EXPECT_EQ(store.import_text("# versa profile-store v99\n", t3).status,
            ProfileLoadStatus::kCorrupt);
  ProfileTable t4(fx.registry, {});
  EXPECT_EQ(store.import_text("", t4).status, ProfileLoadStatus::kCorrupt);
}

TEST(ProfileStore, MissingFileReportsMissing) {
  Fixture fx;
  const ProfileStore store(fx.registry, test_signature());
  ProfileTable table(fx.registry, {});
  EXPECT_EQ(store.load("/nonexistent/versa.profile", table).status,
            ProfileLoadStatus::kMissing);
}

TEST(ProfileStore, UnknownNamesCountAsMisses) {
  Fixture fx;
  ProfileTable source(fx.registry, {});
  source.record(fx.matmul, fx.mm_gpu, 4096, 5e-3);
  source.record(fx.potrf, fx.po_gpu, 4096, 7e-3);
  const ProfileStore store(fx.registry, test_signature());
  const std::string text = store.serialize(source);

  // A registry that evolved: potrf no longer exists.
  VersionRegistry small;
  const TaskTypeId matmul = small.declare_task("matmul_tile");
  const VersionId gpu =
      small.add_version(matmul, DeviceKind::kCuda, "cublas", nullptr, nullptr);
  const ProfileStore reader(small,
                            compute_machine_signature(make_minotauro_node(4, 2)));
  ProfileTable target(small, {});
  const ProfileLoadResult result = reader.import_text(text, target);
  EXPECT_EQ(result.status, ProfileLoadStatus::kOk);
  EXPECT_EQ(result.applied, 1);
  EXPECT_EQ(result.skipped, 1);
  EXPECT_EQ(target.count(matmul, gpu, 4096), 1u);
}

// --- hand-written text hints through the same loader --------------------

TEST(ProfileStore, ImportsHandWrittenTextHintsClampedToLambda) {
  Fixture fx;
  ProfileConfig config;
  config.lambda = 3;
  const ProfileStore store(fx.registry, test_signature());

  ProfileTable table(fx.registry, config);
  const ProfileLoadResult result = store.import_text(
      "# versa hints v1\n"
      "hint matmul_tile cublas 4096 5e-3 40\n"
      "hint matmul_tile cblas 4096 0.31 2\n",
      table);
  EXPECT_EQ(result.status, ProfileLoadStatus::kOk) << result.message;
  EXPECT_EQ(result.applied, 2);
  EXPECT_EQ(result.skipped, 0);
  EXPECT_TRUE(result.warm());
  EXPECT_NEAR(*table.mean(fx.matmul, fx.mm_gpu, 4096), 5e-3, 1e-12);
  // A long history is clamped to λ; a short one is kept as written.
  EXPECT_EQ(table.count(fx.matmul, fx.mm_gpu, 4096), 3u);
  EXPECT_EQ(table.count(fx.matmul, fx.mm_smp, 4096), 2u);
  EXPECT_FALSE(table.reliable(fx.matmul, 4096));

  ProfileTable bad(fx.registry, config);
  EXPECT_EQ(store.import_text("hint broken line", bad).status,
            ProfileLoadStatus::kCorrupt);
}

TEST(ProfileStore, XmlAndGarbageFilesLoadAsCorrupt) {
  // Formats the loader no longer reads must cold-start with a typed
  // status, never half-apply: the table keeps exactly what it had.
  Fixture fx;
  const ProfileStore store(fx.registry, test_signature());
  const std::string dir = testing::TempDir();
  const struct {
    const char* name;
    const char* body;
  } files[] = {
      {"/hints.xml",
       "<?xml version=\"1.0\"?>\n<hints>\n  <task name=\"matmul_tile\">\n"
       "    <group size=\"4096\">\n"
       "      <version name=\"cublas\" mean=\"5e-3\" count=\"4\"/>\n"
       "    </group>\n  </task>\n</hints>\n"},
      {"/garbage.bin", "\x7f" "ELF\x02\x01\x01 not a profile\n"},
      // A sound hint followed by a broken one: nothing is applied.
      {"/half.hints", "hint matmul_tile cublas 4096 5e-3 4\nhint potrf\n"},
  };
  for (const auto& file : files) {
    const std::string path = dir + file.name;
    {
      std::ofstream out(path, std::ios::binary);
      out << file.body;
    }
    ProfileTable table(fx.registry, {});
    table.record(fx.potrf, fx.po_gpu, 512, 7e-3);
    const ProfileLoadResult result = store.load(path, table);
    EXPECT_EQ(result.status, ProfileLoadStatus::kCorrupt) << file.name;
    EXPECT_EQ(result.applied, 0) << file.name;
    EXPECT_FALSE(result.warm()) << file.name;
    EXPECT_EQ(table.group_count(), 1u) << file.name;
    EXPECT_EQ(table.count(fx.potrf, fx.po_gpu, 512), 1u) << file.name;
    EXPECT_EQ(table.count(fx.matmul, fx.mm_gpu, 4096), 0u) << file.name;
    std::remove(path.c_str());
  }
}

// The text-hints rules, driven through the store's loader.

TEST(Hints, UnknownNamesAreSkippedNotFatal) {
  VersionRegistry reg;
  const TaskTypeId t = reg.declare_task("known");
  reg.add_version(t, DeviceKind::kSmp, "v", nullptr, nullptr);
  const ProfileStore store(reg, test_signature());
  ProfileTable table(reg, {});
  for (const char* text :
       {"hint ghost v 100 1.0 2\n", "hint known ghost 100 1.0 2\n"}) {
    const ProfileLoadResult result = store.import_text(text, table);
    EXPECT_EQ(result.status, ProfileLoadStatus::kOk) << text;
    EXPECT_EQ(result.applied, 0) << text;
    EXPECT_EQ(result.skipped, 1) << text;
  }
  EXPECT_EQ(table.group_count(), 0u);
}

TEST(Hints, MalformedInputReturnsError) {
  VersionRegistry reg;
  const ProfileStore store(reg, test_signature());
  ProfileTable table(reg, {});
  for (const char* text : {"hint too few\n", "nothint a b 1 1.0 1\n",
                           "hint a b 1 -5.0 1\n"}) {
    EXPECT_EQ(store.import_text(text, table).status,
              ProfileLoadStatus::kCorrupt)
        << text;
  }
}

TEST(Hints, CommentsAndBlanksIgnored) {
  VersionRegistry reg;
  const ProfileStore store(reg, test_signature());
  ProfileTable table(reg, {});
  const ProfileLoadResult result =
      store.import_text("# comment\n\n   \n", table);
  EXPECT_EQ(result.status, ProfileLoadStatus::kOk);
  EXPECT_EQ(result.applied, 0);
}

// --- concurrent store access (service mode shares one cache file) --------

TEST(ProfileStoreConcurrency, SaveAndLoadSamePathNeverTearOrMismatch) {
  // Service mode has many runtimes sharing one warm-start file: one
  // writer republishing while readers load. save() writes temp + rename,
  // so every load must observe a complete file — either kOk with the
  // signature validated, or kMissing before the very first publish.
  // kCorrupt or kSignatureMismatch would mean a torn read.
  Fixture fx;
  const std::string path =
      testing::TempDir() + "/concurrent_store.profile";
  std::remove(path.c_str());
  const ProfileStore store(fx.registry, test_signature());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    ProfileTable table(fx.registry, {});
    for (int i = 0; i < 200 && !stop.load(); ++i) {
      table.record(fx.matmul, fx.mm_gpu, 4096, 1e-3 * (1 + i % 7));
      if (!store.save(path, table)) failures.fetch_add(1);
    }
    stop.store(true);
  });
  std::thread reader([&] {
    while (!stop.load()) {
      ProfileTable target(fx.registry, {});
      const ProfileLoadResult result = store.load(path, target);
      if (result.status != ProfileLoadStatus::kOk &&
          result.status != ProfileLoadStatus::kMissing) {
        failures.fetch_add(1);
        ADD_FAILURE() << "torn read: " << result.message;
        stop.store(true);
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(failures.load(), 0);

  // Final state is a complete, loadable profile.
  ProfileTable final_table(fx.registry, {});
  EXPECT_EQ(store.load(path, final_table).status, ProfileLoadStatus::kOk);
  std::remove(path.c_str());
}

TEST(ProfileStoreConcurrency, CorruptedFileUnderConcurrentReadColdStarts) {
  // A non-atomic writer (external tool, crashed publisher) scribbling
  // garbage over the cache file must degrade readers to a clean cold
  // start — kCorrupt (or kOk for an intact snapshot, kMissing around the
  // truncation), never a crash, never a partially-applied table.
  Fixture fx;
  const std::string path = testing::TempDir() + "/corrupt_store.profile";
  const ProfileStore store(fx.registry, test_signature());
  ProfileTable source(fx.registry, {});
  source.record(fx.matmul, fx.mm_gpu, 4096, 5e-3);
  const std::string good = store.serialize(source);

  std::atomic<bool> stop{false};
  std::thread corruptor([&] {
    for (int i = 0; i < 200 && !stop.load(); ++i) {
      std::ofstream out(path,
                        std::ios::trunc | std::ios::binary);  // not atomic
      if (i % 2 == 0) {
        out << good.substr(0, good.size() / 2) << "garbage\xff\x01";
      } else {
        out << good;
      }
    }
    stop.store(true);
  });
  std::thread reader([&] {
    while (!stop.load()) {
      ProfileTable target(fx.registry, {});
      const ProfileLoadResult result = store.load(path, target);
      switch (result.status) {
        case ProfileLoadStatus::kOk:
          EXPECT_EQ(target.count(fx.matmul, fx.mm_gpu, 4096), 1u);
          break;
        case ProfileLoadStatus::kCorrupt:
          // Cold start: nothing partially applied.
          EXPECT_EQ(target.group_count(), 0u);
          break;
        case ProfileLoadStatus::kMissing:
          break;  // raced the truncating open
        default:
          ADD_FAILURE() << "unexpected status: " << result.message;
          stop.store(true);
      }
    }
  });
  corruptor.join();
  reader.join();
  std::remove(path.c_str());
}

// --- drift detector -----------------------------------------------------

DriftConfig enabled_drift() {
  DriftConfig config;
  config.enabled = true;
  return config;
}

TEST(DriftDetector, NoFalseTriggerUnderCalibratedLognormalNoise) {
  // The simulator's default noise is lognormal with cv 0.03; check margin
  // up to cv 0.10. mu = -sigma^2/2 keeps the distribution mean at 1.
  for (const double cv : {0.03, 0.05, 0.10}) {
    CusumDetector detector(enabled_drift());
    detector.arm(5e-3);
    Rng rng(99 + static_cast<std::uint64_t>(cv * 1000));
    const double sigma = std::sqrt(std::log(1.0 + cv * cv));
    for (int i = 0; i < 2000; ++i) {
      const double sample =
          5e-3 * rng.next_lognormal(-0.5 * sigma * sigma, sigma);
      ASSERT_FALSE(detector.add(sample))
          << "false alarm at cv=" << cv << " obs=" << i;
    }
    EXPECT_TRUE(detector.armed());
  }
}

TEST(DriftDetector, TriggersPromptlyAfterTwoXShift) {
  CusumDetector detector(enabled_drift());
  detector.arm(5e-3);
  Rng rng(7);
  const double cv = 0.03;
  const double sigma = std::sqrt(std::log(1.0 + cv * cv));
  for (int i = 0; i < 200; ++i) {
    ASSERT_FALSE(
        detector.add(5e-3 * rng.next_lognormal(-0.5 * sigma * sigma, sigma)));
  }
  // 2x slowdown: must alarm within a handful of observations.
  int alarms_after = 0;
  for (int i = 0; i < 10; ++i) {
    ++alarms_after;
    if (detector.add(10e-3 * rng.next_lognormal(-0.5 * sigma * sigma, sigma))) {
      break;
    }
  }
  EXPECT_LE(alarms_after, 5);
  EXPECT_FALSE(detector.armed());  // disarms on alarm
}

TEST(DriftDetector, TriggersOnSpeedupToo) {
  CusumDetector detector(enabled_drift());
  detector.arm(10e-3);
  int n = 0;
  while (n < 20 && !detector.add(5e-3)) ++n;
  EXPECT_LT(n, 10);
}

TEST(DriftDetector, NonPositiveReferenceStaysDisarmed) {
  CusumDetector detector(enabled_drift());
  detector.arm(0.0);
  EXPECT_FALSE(detector.armed());
  EXPECT_FALSE(detector.add(1.0));
}

// --- drift integration in the profile table ------------------------------

TEST(ProfileTableDrift, TwoXShiftResetsGroupIntoLearningPhase) {
  Fixture fx;
  ProfileConfig config;
  config.lambda = 3;
  config.drift.enabled = true;
  ProfileTable table(fx.registry, config);

  for (int i = 0; i < 3; ++i) table.record(fx.matmul, fx.mm_gpu, 4096, 5e-3);
  for (int i = 0; i < 3; ++i) table.record(fx.matmul, fx.mm_smp, 4096, 0.02);
  ASSERT_TRUE(table.reliable(fx.matmul, 4096));

  // Sustained 2x slowdown of the GPU version.
  int fed = 0;
  while (table.drift_events().empty() && fed < 10) {
    table.record(fx.matmul, fx.mm_gpu, 4096, 10e-3);
    ++fed;
  }
  ASSERT_EQ(table.drift_events().size(), 1u);
  EXPECT_LE(fed, 5);
  const ProfileTable::DriftEvent& event = table.drift_events().front();
  EXPECT_EQ(event.type, fx.matmul);
  EXPECT_EQ(event.version, fx.mm_gpu);
  EXPECT_NEAR(event.stale_mean, 5e-3, 1e-3);

  // The stale history is gone: the group is back in the learning phase and
  // the relearned mean reflects only post-drift observations.
  EXPECT_FALSE(table.reliable(fx.matmul, 4096));
  EXPECT_LT(table.count(fx.matmul, fx.mm_gpu, 4096), 3u);
  table.record(fx.matmul, fx.mm_gpu, 4096, 10e-3);
  table.record(fx.matmul, fx.mm_gpu, 4096, 10e-3);
  EXPECT_TRUE(table.reliable(fx.matmul, 4096));
  EXPECT_NEAR(*table.mean(fx.matmul, fx.mm_gpu, 4096), 10e-3, 1e-12);

  // The detector re-armed against the new mean: a shift back alarms again.
  int back = 0;
  while (table.drift_events().size() == 1 && back < 10) {
    table.record(fx.matmul, fx.mm_gpu, 4096, 5e-3);
    ++back;
  }
  EXPECT_EQ(table.drift_events().size(), 2u);
}

TEST(ProfileTableDrift, RestoredEntriesArmTheDetector) {
  Fixture fx;
  ProfileConfig config;
  config.lambda = 3;
  config.drift.enabled = true;
  ProfileTable table(fx.registry, config);
  table.restore(fx.matmul, fx.mm_gpu, 4096, 5e-3, 8, 0.0);
  ASSERT_EQ(table.count(fx.matmul, fx.mm_gpu, 4096), 8u);

  int fed = 0;
  while (table.drift_events().empty() && fed < 10) {
    table.record(fx.matmul, fx.mm_gpu, 4096, 10e-3);
    ++fed;
  }
  EXPECT_EQ(table.drift_events().size(), 1u);
}

TEST(ProfileTableDrift, DisabledConfigNeverResets) {
  Fixture fx;
  ProfileConfig config;
  config.lambda = 3;
  config.drift.enabled = false;
  ProfileTable table(fx.registry, config);
  for (int i = 0; i < 3; ++i) table.record(fx.matmul, fx.mm_gpu, 4096, 5e-3);
  for (int i = 0; i < 50; ++i) table.record(fx.matmul, fx.mm_gpu, 4096, 10e-3);
  EXPECT_TRUE(table.drift_events().empty());
  EXPECT_EQ(table.count(fx.matmul, fx.mm_gpu, 4096), 53u);
}

}  // namespace
}  // namespace versa
