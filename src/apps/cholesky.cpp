#include "apps/cholesky.h"

#include <cmath>

#include "apps/kernels.h"
#include "common/check.h"
#include "common/random.h"
#include "machine/kernel_models.h"

namespace versa::apps {

const char* to_string(PotrfVariant variant) {
  switch (variant) {
    case PotrfVariant::kSmp:
      return "potrf-smp";
    case PotrfVariant::kGpu:
      return "potrf-gpu";
    case PotrfVariant::kHybrid:
      return "potrf-hyb";
  }
  return "?";
}

CholeskyApp::CholeskyApp(Runtime& rt, CholeskyParams params)
    : rt_(rt), params_(params) {
  VERSA_CHECK_MSG(params_.block > 0 && params_.n % params_.block == 0,
                  "matrix edge must be a multiple of the block edge");
  blocks_ = params_.n / params_.block;
  register_versions();
  register_blocks();
}

std::size_t CholeskyApp::block_index(std::size_t i, std::size_t j) const {
  VERSA_DCHECK(j <= i && i < blocks_);
  return i * (i + 1) / 2 + j;
}

void CholeskyApp::register_versions() {
  const std::size_t nb = params_.block;

  t_potrf_ = rt_.declare_task("potrf");
  const TaskFn potrf_body = [nb](TaskContext& ctx) {
    auto* a = static_cast<float*>(ctx.arg(0));
    if (a == nullptr) return;
    AccessWitness(ctx).read_write(0);
    VERSA_CHECK_MSG(kernels::spotrf_block(a, nb),
                    "matrix block is not positive definite");
  };
  if (params_.potrf != PotrfVariant::kSmp) {
    v_potrf_gpu_ = rt_.add_version(t_potrf_, DeviceKind::kCuda, "magma",
                                   potrf_body, kernels::magma_spotrf_block(nb));
  }
  if (params_.potrf != PotrfVariant::kGpu) {
    v_potrf_smp_ = rt_.add_version(t_potrf_, DeviceKind::kSmp, "cblas",
                                   potrf_body, kernels::cblas_spotrf_block(nb));
  }

  t_trsm_ = rt_.declare_task("trsm");
  rt_.add_version(
      t_trsm_, DeviceKind::kCuda, "cublas",
      [nb](TaskContext& ctx) {
        auto* l = static_cast<const float*>(ctx.arg(0));
        auto* b = static_cast<float*>(ctx.arg(1));
        if (l == nullptr) return;
        AccessWitness witness(ctx);
        witness.read(0);
        witness.read_write(1);
        kernels::strsm_block(l, b, nb);
      },
      kernels::cublas_strsm_block(nb));

  t_syrk_ = rt_.declare_task("syrk");
  rt_.add_version(
      t_syrk_, DeviceKind::kCuda, "cublas",
      [nb](TaskContext& ctx) {
        auto* a = static_cast<const float*>(ctx.arg(0));
        auto* c = static_cast<float*>(ctx.arg(1));
        if (a == nullptr) return;
        AccessWitness witness(ctx);
        witness.read(0);
        witness.read_write(1);
        kernels::ssyrk_block(a, c, nb);
      },
      kernels::cublas_ssyrk_block(nb));

  t_gemm_ = rt_.declare_task("gemm");
  rt_.add_version(
      t_gemm_, DeviceKind::kCuda, "magma",
      [nb](TaskContext& ctx) {
        auto* a = static_cast<const float*>(ctx.arg(0));
        auto* b = static_cast<const float*>(ctx.arg(1));
        auto* c = static_cast<float*>(ctx.arg(2));
        if (a == nullptr) return;
        AccessWitness witness(ctx);
        witness.read(0);
        witness.read(1);
        witness.read_write(2);
        kernels::sgemm_nt_block(a, b, c, nb);
      },
      kernels::magma_sgemm_block(nb));
}

void CholeskyApp::register_blocks() {
  const std::size_t elems = params_.block * params_.block;
  const std::uint64_t bytes = elems * sizeof(float);
  Rng rng(params_.data_seed);

  regions_.reserve(blocks_ * (blocks_ + 1) / 2);
  for (std::size_t i = 0; i < blocks_; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      void* ptr = nullptr;
      if (params_.real_compute) {
        data_.emplace_back(elems);
        std::vector<float>& block = data_.back();
        for (std::size_t e = 0; e < elems; ++e) {
          block[e] = static_cast<float>(rng.uniform(-0.5, 0.5));
        }
        if (i == j) {
          // Symmetrize the diagonal block and make the whole matrix
          // diagonally dominant, hence positive definite.
          const std::size_t nb = params_.block;
          for (std::size_t r = 0; r < nb; ++r) {
            for (std::size_t c = 0; c < r; ++c) {
              block[c * nb + r] = block[r * nb + c];
            }
            block[r * nb + r] += static_cast<float>(params_.n);
          }
        }
        ptr = block.data();
      }
      regions_.push_back(rt_.register_data(
          "A[" + std::to_string(i) + "," + std::to_string(j) + "]", bytes,
          ptr));
    }
  }
  if (params_.real_compute) {
    original_ = data_;  // keep A for verification
  }
}

void CholeskyApp::submit_all() {
  for (std::size_t k = 0; k < blocks_; ++k) {
    rt_.submit(t_potrf_, {Access::inout(regions_[block_index(k, k)])},
               "potrf", params_.potrf_priority);
    for (std::size_t i = k + 1; i < blocks_; ++i) {
      rt_.submit(t_trsm_, {Access::in(regions_[block_index(k, k)]),
                           Access::inout(regions_[block_index(i, k)])});
    }
    for (std::size_t i = k + 1; i < blocks_; ++i) {
      rt_.submit(t_syrk_, {Access::in(regions_[block_index(i, k)]),
                           Access::inout(regions_[block_index(i, i)])});
      for (std::size_t j = k + 1; j < i; ++j) {
        rt_.submit(t_gemm_, {Access::in(regions_[block_index(i, k)]),
                             Access::in(regions_[block_index(j, k)]),
                             Access::inout(regions_[block_index(i, j)])});
      }
    }
  }
}

void CholeskyApp::run() {
  submit_all();
  rt_.taskwait();
}

double CholeskyApp::total_flops() const {
  const double n = static_cast<double>(params_.n);
  return n * n * n / 3.0;
}

std::size_t CholeskyApp::task_count() const {
  std::size_t count = 0;
  for (std::size_t k = 0; k < blocks_; ++k) {
    const std::size_t below = blocks_ - k - 1;
    count += 1 + below + below + below * (below - 1) / 2;
  }
  return count;
}

double CholeskyApp::max_error() const {
  VERSA_CHECK_MSG(params_.real_compute, "max_error needs real compute");
  const std::size_t nb = params_.block;

  // L with the strict upper triangle of diagonal blocks zeroed.
  auto l_entry = [&](std::size_t bi, std::size_t bj, std::size_t r,
                     std::size_t c) -> double {
    const std::vector<float>& block = data_[block_index(bi, bj)];
    if (bi == bj && c > r) return 0.0;
    return block[r * nb + c];
  };

  double worst = 0.0;
  for (std::size_t bi = 0; bi < blocks_; ++bi) {
    for (std::size_t bj = 0; bj <= bi; ++bj) {
      const std::vector<float>& a = original_[block_index(bi, bj)];
      for (std::size_t r = 0; r < nb; ++r) {
        // Only the lower triangle of A is meaningful.
        const std::size_t c_end = (bi == bj) ? r + 1 : nb;
        for (std::size_t c = 0; c < c_end; ++c) {
          double acc = 0.0;
          for (std::size_t bk = 0; bk <= bj; ++bk) {
            for (std::size_t e = 0; e < nb; ++e) {
              acc += l_entry(bi, bk, r, e) * l_entry(bj, bk, c, e);
            }
          }
          worst = std::max(worst, std::fabs(acc - a[r * nb + c]));
        }
      }
    }
  }
  return worst;
}

}  // namespace versa::apps
