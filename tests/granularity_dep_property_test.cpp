// Property test for adaptive granularity (DESIGN.md §11): splitting a
// randomly generated task graph must preserve its happens-before relation.
//
// The oracle is serial submission order over byte-exact conflicts: tasks i
// and j (i submitted first) *conflict* when some access of i overlaps some
// access of j by at least one byte and at least one side writes. A split
// execution is equivalent to the serial one iff
//   (a) every directly conflicting pair stays ordered i -> j
//       (conflict-serializability in submission order), and
//   (b) no pair gets ordered that the serial closure does not order
//       (splitting may only *relax* false sharing, never invent edges).
// Both are checked against the analyzer edges the runtime actually wired,
// projected from split children back onto their shell parents.
//
// A second property checks the same thing end to end through data: random
// byte-transforming task bodies over shared buffers must leave exactly the
// bytes a serial replay leaves, with re-tiling active.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "machine/presets.h"
#include "runtime/runtime.h"
#include "sched/core/granularity.h"
#include "task/access.h"

namespace versa {
namespace {

constexpr std::uint64_t kRegionBytes = 4096;
// Offsets/lengths are multiples of this, so every chunk_recipe factor used
// below (2 and 4) divides every access length and no partition declines.
constexpr std::uint64_t kAlign = 512;

core::SplitRecipe chunk_recipe(TaskTypeId child_type) {
  core::SplitRecipe recipe;
  recipe.child_type = child_type;
  recipe.partition = [](const AccessList& parent, std::uint32_t factor,
                        std::vector<AccessList>& parts) {
    for (const Access& access : parent) {
      if (access.length % factor != 0) return false;
    }
    parts.assign(factor, parent);
    for (std::uint32_t r = 0; r < factor; ++r) {
      for (Access& access : parts[r]) {
        access.length /= factor;
        access.offset += static_cast<std::uint64_t>(r) * access.length;
      }
    }
    return true;
  };
  return recipe;
}

struct RandomSubmission {
  AccessList accesses;
  bool regranulate = true;
  std::size_t body = 0;  ///< which task type / byte transform
};

/// Random program: each task touches 1..3 distinct regions with random
/// aligned sub-ranges and random in/out/inout modes.
std::vector<RandomSubmission> random_program(Rng& rng, std::size_t tasks,
                                             std::size_t regions,
                                             std::size_t bodies) {
  std::vector<RandomSubmission> program(tasks);
  for (RandomSubmission& submission : program) {
    const std::size_t clauses = 1 + rng.next_below(3);
    std::vector<RegionId> picked;
    while (picked.size() < clauses) {
      const RegionId r = static_cast<RegionId>(rng.next_below(regions));
      bool seen = false;
      for (RegionId p : picked) seen |= (p == r);
      if (!seen) picked.push_back(r);
    }
    for (RegionId region : picked) {
      const std::uint64_t slots = kRegionBytes / kAlign;
      const std::uint64_t offset = rng.next_below(slots) * kAlign;
      const std::uint64_t length =
          (1 + rng.next_below(slots - offset / kAlign)) * kAlign;
      Access access;
      access.region = region;
      access.offset = offset;
      access.length = length;
      const std::uint64_t mode = rng.next_below(4);
      // Bias towards inout: pure-reader programs have no dependences.
      access.mode = mode == 0   ? AccessMode::kIn
                    : mode == 1 ? AccessMode::kOut
                                : AccessMode::kInOut;
      submission.accesses.push_back(access);
    }
    // Most submissions may re-tile; some pin their declared tiling, so the
    // projected graph mixes split and unsplit tasks.
    submission.regranulate = rng.next_below(4) != 0;
    submission.body = rng.next_below(bodies);
  }
  return program;
}

/// Program accesses carry region *indices*; substitute the registered ids.
AccessList remap(const AccessList& accesses, const std::vector<RegionId>& ids) {
  AccessList out = accesses;
  for (Access& access : out) access.region = ids[access.region];
  return out;
}

bool conflicts(const RandomSubmission& a, const RandomSubmission& b) {
  for (const Access& x : a.accesses) {
    for (const Access& y : b.accesses) {
      if (x.region != y.region) continue;
      if (x.offset >= y.offset + y.length) continue;
      if (y.offset >= x.offset + x.length) continue;
      if (writes(x.mode) || writes(y.mode)) return true;
    }
  }
  return false;
}

/// In-place Floyd–Warshall closure of an adjacency matrix.
void close(std::vector<std::vector<char>>& reach) {
  const std::size_t n = reach.size();
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!reach[i][k]) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (reach[k][j]) reach[i][j] = 1;
      }
    }
  }
}

TEST(GranularityDepProperty, SplitGraphMatchesSerialOracle) {
  std::uint64_t total_splits = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const std::size_t tasks = 10 + rng.next_below(15);
    const std::size_t regions = 3 + rng.next_below(3);
    const std::vector<RandomSubmission> program =
        random_program(rng, tasks, regions, 1);

    // Serial oracle: direct byte conflicts and their closure.
    std::vector<std::vector<char>> direct(tasks,
                                          std::vector<char>(tasks, 0));
    for (std::size_t i = 0; i < tasks; ++i) {
      for (std::size_t j = i + 1; j < tasks; ++j) {
        direct[i][j] = conflicts(program[i], program[j]) ? 1 : 0;
      }
    }
    std::vector<std::vector<char>> oracle = direct;
    close(oracle);

    // Run the same program under a fixed re-tiling factor.
    const Machine machine = make_smp_machine(4);
    RuntimeConfig config;
    config.backend = Backend::kSim;
    config.scheduler = "versioning";
    config.noise.kind = sim::NoiseKind::kNone;
    ASSERT_TRUE(core::parse_granularity(seed % 2 == 0 ? "2" : "4",
                                        config.granularity));
    Runtime rt(machine, config);
    const TaskTypeId t = rt.declare_task("t");
    const TaskTypeId tc = rt.declare_task("t_chunk");
    rt.add_version(t, DeviceKind::kSmp, "v", nullptr,
                   make_constant_cost(1e-3));
    rt.add_version(tc, DeviceKind::kSmp, "v", nullptr,
                   make_constant_cost(1e-3));
    rt.set_split_recipe(t, chunk_recipe(tc));
    std::vector<RegionId> ids;
    for (std::size_t r = 0; r < regions; ++r) {
      ids.push_back(rt.register_data("r" + std::to_string(r), kRegionBytes));
    }

    std::vector<TaskId> roots;
    for (const RandomSubmission& submission : program) {
      Runtime::SubmitOptions options;
      options.regranulate = submission.regranulate;
      roots.push_back(rt.submit(t, remap(submission.accesses, ids), options));
    }
    rt.taskwait();
    total_splits += rt.granularity()->stats().splits;

    // Task-level reachability over the analyzer edges actually wired.
    const TaskGraph& graph = rt.task_graph();
    const std::size_t n = graph.size();
    std::vector<std::vector<char>> reach(n, std::vector<char>(n, 0));
    for (const Task& task : graph.tasks()) {
      for (TaskId succ : graph.successors(task.id)) reach[task.id][succ] = 1;
    }
    close(reach);

    // Project children back onto their submission roots.
    std::vector<std::size_t> root_index(n, tasks);  // tasks = "not a root"
    for (std::size_t i = 0; i < tasks; ++i) root_index[roots[i]] = i;
    auto project = [&](TaskId id) {
      const Task& task = graph.task(id);
      const TaskId root =
          task.split_parent != kInvalidTask ? task.split_parent : id;
      return root_index[root];
    };
    std::vector<std::vector<char>> projected(tasks,
                                             std::vector<char>(tasks, 0));
    for (TaskId u = 0; u < n; ++u) {
      for (TaskId v = 0; v < n; ++v) {
        if (!reach[u][v]) continue;
        const std::size_t pu = project(u), pv = project(v);
        ASSERT_LT(pu, tasks);
        ASSERT_LT(pv, tasks);
        if (pu != pv) projected[pu][pv] = 1;
      }
    }
    close(projected);

    for (std::size_t i = 0; i < tasks; ++i) {
      for (std::size_t j = 0; j < tasks; ++j) {
        // (a) Safety: every direct conflict stays ordered.
        if (direct[i][j]) {
          EXPECT_TRUE(projected[i][j])
              << "conflict " << i << " -> " << j << " lost by splitting";
        }
        // (b) No invented orderings, and never against submission order.
        if (projected[i][j]) {
          EXPECT_TRUE(oracle[i][j])
              << "spurious order " << i << " -> " << j;
          EXPECT_GT(j, i) << "edge against submission order";
        }
      }
    }
  }
  // The property is vacuous if nothing ever split.
  EXPECT_GT(total_splits, 0u);
}

TEST(GranularityDepProperty, SplitExecutionLeavesSerialBytes) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed ^ 0xfeedULL);
    const std::size_t tasks = 8 + rng.next_below(13);
    const std::size_t regions = 3;
    constexpr std::size_t kBodies = 4;
    std::vector<RandomSubmission> program =
        random_program(rng, tasks, regions, kBodies);
    // The byte transforms below assume read-modify-write everywhere.
    for (RandomSubmission& submission : program) {
      for (Access& access : submission.accesses) {
        access.mode = AccessMode::kInOut;
      }
    }

    // b := 31 * b + k — byte-local (so chunking commutes with it) but
    // non-commutative across different k, so any misordered or lost
    // update between different task types changes the final bytes.
    auto transform = [](std::uint8_t byte, std::uint8_t k) {
      return static_cast<std::uint8_t>(31 * byte + k);
    };

    std::vector<std::vector<std::uint8_t>> data(
        regions, std::vector<std::uint8_t>(kRegionBytes));
    std::vector<std::vector<std::uint8_t>> expected(regions);
    for (std::size_t r = 0; r < regions; ++r) {
      for (std::uint64_t b = 0; b < kRegionBytes; ++b) {
        data[r][b] = static_cast<std::uint8_t>(rng.next_below(256));
      }
      expected[r] = data[r];
    }
    // Serial replay in submission order.
    for (const RandomSubmission& submission : program) {
      const std::uint8_t k = static_cast<std::uint8_t>(7 + submission.body);
      for (const Access& access : submission.accesses) {
        for (std::uint64_t b = access.offset;
             b < access.offset + access.length; ++b) {
          expected[access.region][b] = transform(expected[access.region][b], k);
        }
      }
    }

    const Machine machine = make_smp_machine(4);
    RuntimeConfig config;
    config.backend = Backend::kSim;
    config.scheduler = "versioning";
    config.noise.kind = sim::NoiseKind::kNone;
    ASSERT_TRUE(core::parse_granularity("4", config.granularity));
    Runtime rt(machine, config);
    std::vector<TaskTypeId> types, child_types;
    for (std::size_t body = 0; body < kBodies; ++body) {
      const std::uint8_t k = static_cast<std::uint8_t>(7 + body);
      TaskFn fn = [k, transform](TaskContext& ctx) {
        for (std::size_t arg = 0; arg < ctx.arg_count(); ++arg) {
          auto* bytes = static_cast<std::uint8_t*>(ctx.arg(arg));
          for (std::uint64_t b = 0; b < ctx.arg_size(arg); ++b) {
            bytes[b] = transform(bytes[b], k);
          }
        }
      };
      const std::string name = "t" + std::to_string(body);
      types.push_back(rt.declare_task(name));
      child_types.push_back(rt.declare_task(name + "_chunk"));
      rt.add_version(types[body], DeviceKind::kSmp, "v", fn,
                     make_constant_cost(1e-3));
      rt.add_version(child_types[body], DeviceKind::kSmp, "v", fn,
                     make_constant_cost(1e-3));
      rt.set_split_recipe(types[body], chunk_recipe(child_types[body]));
    }
    std::vector<RegionId> ids;
    for (std::size_t r = 0; r < regions; ++r) {
      ids.push_back(rt.register_data("r" + std::to_string(r), kRegionBytes,
                                     data[r].data()));
    }
    for (const RandomSubmission& submission : program) {
      Runtime::SubmitOptions options;
      options.regranulate = submission.regranulate;
      rt.submit(types[submission.body], remap(submission.accesses, ids),
                options);
    }
    rt.taskwait();
    EXPECT_GT(rt.granularity()->stats().splits, 0u);

    for (std::size_t r = 0; r < regions; ++r) {
      EXPECT_EQ(data[r], expected[r]) << "region " << r;
    }
  }
}

}  // namespace
}  // namespace versa
