// Tiled Cholesky factorization — the paper's second evaluation application
// (§V-B2): A = L * L^T on an n x n single-precision SPD matrix stored in
// `block` x `block` tiles (paper: n = 32768, block = 2048). Four annotated
// tasks: potrf, trsm, syrk, gemm. trsm/syrk/gemm are GPU-only; potrf comes
// in three variants matching the paper's application versions:
//   potrf-smp — CBLAS (SMP) implementation only,
//   potrf-gpu — MAGMA (GPU) implementation only,
//   potrf-hyb — both (the versioning scheduler chooses).
//
// potrf is the critical task: whole panels of the graph wait on it, so its
// placement drives the application's exploitable parallelism.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/runtime.h"

namespace versa::apps {

enum class PotrfVariant : std::uint8_t { kSmp, kGpu, kHybrid };

const char* to_string(PotrfVariant variant);

struct CholeskyParams {
  std::size_t n = 32768;    ///< matrix edge, elements
  std::size_t block = 2048; ///< block edge, elements
  PotrfVariant potrf = PotrfVariant::kHybrid;
  bool real_compute = false;
  std::uint64_t data_seed = 11;
  /// OmpSs priority clause on the potrf tasks: they gate whole panels of
  /// the task graph (§V-B2), so bumping them ahead of queued updates
  /// shortens the critical path (see bench_abl_priority).
  int potrf_priority = 0;
};

class CholeskyApp {
 public:
  CholeskyApp(Runtime& rt, CholeskyParams params);

  void submit_all();
  void run();

  /// n^3 / 3 — FLOPs of the factorization.
  double total_flops() const;

  std::size_t blocks_per_edge() const { return blocks_; }
  std::size_t task_count() const;

  TaskTypeId potrf_type() const { return t_potrf_; }
  VersionId potrf_gpu_version() const { return v_potrf_gpu_; }
  VersionId potrf_smp_version() const { return v_potrf_smp_; }

  /// Real-compute mode: max |(L L^T)_ij - A_ij| over the lower triangle.
  double max_error() const;

 private:
  Runtime& rt_;
  CholeskyParams params_;
  std::size_t blocks_;
  TaskTypeId t_potrf_ = kInvalidTaskType;
  TaskTypeId t_trsm_ = kInvalidTaskType;
  TaskTypeId t_syrk_ = kInvalidTaskType;
  TaskTypeId t_gemm_ = kInvalidTaskType;
  VersionId v_potrf_gpu_ = kInvalidVersion;
  VersionId v_potrf_smp_ = kInvalidVersion;

  /// Lower-triangle block storage: index via block_index(i, j), j <= i.
  std::vector<RegionId> regions_;
  std::vector<std::vector<float>> data_;
  std::vector<std::vector<float>> original_;  ///< real mode: A before run

  std::size_t block_index(std::size_t i, std::size_t j) const;
  void register_versions();
  void register_blocks();
};

}  // namespace versa::apps
