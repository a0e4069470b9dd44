// Blocked sparse LU factorization — the classic StarSs/OmpSs benchmark
// (it appears in the original StarSs dependence-support paper the runtime
// model builds on). A matrix of `blocks` x `blocks` tiles, many of them
// empty, is factorized in place:
//
//   for k:  lu0(A[k][k])
//           fwd(A[k][k], A[k][j])      for present A[k][j], j > k
//           bdiv(A[k][k], A[i][k])     for present A[i][k], i > k
//           bmod(A[i][k], A[k][j], A[i][j])  for i,j > k where both
//                                            factors exist — allocating
//                                            A[i][j] on first touch
//
// The *fill-in* in bmod exercises something the dense apps cannot:
// regions registered dynamically between task submissions, exactly how
// the OmpSs SparseLU creates blocks at task-creation time. Tasks carry
// hybrid GPU+SMP versions; verification compares against a sequential
// replay of the identical blocked algorithm.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/runtime.h"

namespace versa::apps {

struct SparseLuParams {
  std::size_t blocks = 16;      ///< blocks per edge
  std::size_t block_size = 64;  ///< elements per block edge
  double density = 0.35;        ///< probability an off-diagonal block exists
  bool hybrid = true;           ///< GPU+SMP versions vs GPU-only
  bool real_compute = false;
  std::uint64_t pattern_seed = 23;
  std::uint64_t data_seed = 29;
};

class SparseLuApp {
 public:
  SparseLuApp(Runtime& rt, SparseLuParams params);

  /// Submit the whole factorization (allocates fill-in blocks as it goes).
  void submit_all();
  void run();

  std::size_t initial_block_count() const { return initial_blocks_; }
  std::size_t fill_in_count() const { return live_blocks_ - initial_blocks_; }
  std::size_t task_count() const { return submitted_tasks_; }

  TaskTypeId lu0_type() const { return t_lu0_; }
  TaskTypeId bmod_type() const { return t_bmod_; }

  /// Real-compute mode: max |block - reference| over all live blocks,
  /// where the reference is a sequential replay of the same algorithm.
  double max_error() const;

 private:
  Runtime& rt_;
  SparseLuParams params_;
  std::size_t initial_blocks_ = 0;
  std::size_t live_blocks_ = 0;
  std::size_t submitted_tasks_ = 0;

  TaskTypeId t_lu0_ = kInvalidTaskType;
  TaskTypeId t_fwd_ = kInvalidTaskType;
  TaskTypeId t_bdiv_ = kInvalidTaskType;
  TaskTypeId t_bmod_ = kInvalidTaskType;

  /// kInvalidRegion-like sentinel: 0 is a valid region id, so presence is
  /// tracked separately.
  std::vector<bool> present_;
  std::vector<RegionId> regions_;
  std::vector<std::vector<float>> data_;      // real mode storage
  std::vector<std::vector<float>> original_;  // pre-run copy for reference

  std::size_t index(std::size_t i, std::size_t j) const;
  bool exists(std::size_t i, std::size_t j) const;

  /// Allocate + register block (i, j); fill-in blocks start at zero.
  void materialize(std::size_t i, std::size_t j, bool randomize);

  void register_versions();
  void build_pattern();
};

}  // namespace versa::apps
