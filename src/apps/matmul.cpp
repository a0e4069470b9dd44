#include "apps/matmul.h"

#include <cmath>

#include "apps/kernels.h"
#include "common/check.h"
#include "common/random.h"
#include "machine/kernel_models.h"

namespace versa::apps {
namespace {

TaskFn make_gemm_body(std::size_t tile, bool blocked) {
  return [tile, blocked](TaskContext& ctx) {
    auto* a = static_cast<const double*>(ctx.arg(0));
    auto* b = static_cast<const double*>(ctx.arg(1));
    auto* c = static_cast<double*>(ctx.arg(2));
    if (a == nullptr) return;  // virtual regions: timing-only task
    AccessWitness witness(ctx);
    witness.read(0);
    witness.read(1);
    witness.read_write(2);
    if (blocked) {
      kernels::dgemm_blocked(a, b, c, tile);
    } else {
      kernels::dgemm_naive(a, b, c, tile);
    }
  };
}

// Row-band sub-kernel body (split children): arg 0/2 point at a band of
// consecutive rows of the A/C tiles, arg 1 is the full B tile. The band
// row count is recovered from the resolved access size.
TaskFn make_band_body(std::size_t tile) {
  return [tile](TaskContext& ctx) {
    auto* a = static_cast<const double*>(ctx.arg(0));
    auto* b = static_cast<const double*>(ctx.arg(1));
    auto* c = static_cast<double*>(ctx.arg(2));
    if (a == nullptr) return;
    AccessWitness witness(ctx);
    witness.read(0);
    witness.read(1);
    witness.read_write(2);
    const std::size_t rows = ctx.arg_size(0) / (tile * sizeof(double));
    kernels::dgemm_band(a, b, c, tile, rows);
  };
}

// Fused body (coalesced siblings sharing one C tile): arguments are
// [A_1, B_1, ..., A_p, B_p, C]; each pair contributes one tile product.
TaskFn make_fused_body(std::size_t tile, bool blocked) {
  return [tile, blocked](TaskContext& ctx) {
    auto* c = static_cast<double*>(ctx.arg(ctx.arg_count() - 1));
    if (ctx.arg(0) == nullptr) return;
    AccessWitness witness(ctx);
    witness.read_write(ctx.arg_count() - 1);
    const std::size_t pairs = (ctx.arg_count() - 1) / 2;
    for (std::size_t p = 0; p < pairs; ++p) {
      auto* a = static_cast<const double*>(ctx.arg(2 * p));
      auto* b = static_cast<const double*>(ctx.arg(2 * p + 1));
      witness.read(2 * p);
      witness.read(2 * p + 1);
      if (blocked) {
        kernels::dgemm_blocked(a, b, c, tile);
      } else {
        kernels::dgemm_naive(a, b, c, tile);
      }
    }
  };
}

}  // namespace

MatmulApp::MatmulApp(Runtime& rt, MatmulParams params)
    : rt_(rt), params_(params) {
  VERSA_CHECK_MSG(params_.tile > 0 && params_.n % params_.tile == 0,
                  "matrix edge must be a multiple of the tile edge");
  tiles_ = params_.n / params_.tile;
  register_versions();
  register_granularity();
  register_tiles();
}

void MatmulApp::register_versions() {
  const std::size_t tile = params_.tile;
  const Duration oh = params_.launch_overhead;
  task_type_ = rt_.declare_task("matmul_tile");
  // Main implementation: CUBLAS DGEMM (the mm-gpu task of §V-B1).
  v_cublas_ = rt_.add_version(
      task_type_, DeviceKind::kCuda, "cublas", make_gemm_body(tile, true),
      kernels::add_launch_overhead(kernels::cublas_dgemm_tile(tile), oh));
  if (params_.hybrid) {
    v_cuda_ = rt_.add_version(
        task_type_, DeviceKind::kCuda, "cuda", make_gemm_body(tile, false),
        kernels::add_launch_overhead(kernels::hand_cuda_dgemm_tile(tile), oh));
    v_cblas_ = rt_.add_version(
        task_type_, DeviceKind::kSmp, "cblas", make_gemm_body(tile, true),
        kernels::add_launch_overhead(kernels::cblas_dgemm_tile(tile), oh));
  }
}

void MatmulApp::register_granularity() {
  if (rt_.granularity() == nullptr) return;
  const std::size_t tile = params_.tile;
  const Duration oh = params_.launch_overhead;
  const std::uint64_t row_bytes = tile * sizeof(double);

  // Child type: a row band of one tile product, same version set as the
  // parent so the versioning scheduler keeps its device choice per band.
  band_type_ = rt_.declare_task("matmul_band");
  rt_.add_version(
      band_type_, DeviceKind::kCuda, "cublas", make_band_body(tile),
      kernels::gemm_band_cost(tile, sizeof(double),
                              kernels::Throughput::kCublasDgemm, oh));
  if (params_.hybrid) {
    rt_.add_version(
        band_type_, DeviceKind::kCuda, "cuda", make_band_body(tile),
        kernels::gemm_band_cost(tile, sizeof(double),
                                kernels::Throughput::kHandCudaDgemm, oh));
    rt_.add_version(
        band_type_, DeviceKind::kSmp, "cblas", make_band_body(tile),
        kernels::gemm_band_cost(tile, sizeof(double),
                                kernels::Throughput::kCblasDgemmCore, oh));
  }

  core::SplitRecipe split;
  split.child_type = band_type_;
  // Row bands: C row i = f(A row i, full B), so splitting accesses 0 (A)
  // and 2 (C) into `factor` row bands while keeping B whole is exact.
  split.partition = core::row_band_partition(row_bytes);
  rt_.set_split_recipe(task_type_, std::move(split));

  // Fused type: several tile products accumulated into one shared C tile
  // in a single launch — arguments [A_1, B_1, ..., A_p, B_p, C].
  fused_type_ = rt_.declare_task("matmul_tile_x2");
  rt_.add_version(
      fused_type_, DeviceKind::kCuda, "cublas", make_fused_body(tile, true),
      kernels::gemm_fused_cost(tile, sizeof(double),
                               kernels::Throughput::kCublasDgemm, oh));
  if (params_.hybrid) {
    rt_.add_version(
        fused_type_, DeviceKind::kCuda, "cuda", make_fused_body(tile, false),
        kernels::gemm_fused_cost(tile, sizeof(double),
                                 kernels::Throughput::kHandCudaDgemm, oh));
    rt_.add_version(
        fused_type_, DeviceKind::kSmp, "cblas", make_fused_body(tile, true),
        kernels::gemm_fused_cost(tile, sizeof(double),
                                 kernels::Throughput::kCblasDgemmCore, oh));
  }

  core::FuseRecipe fuse;
  fuse.fused_type = fused_type_;
  fuse.window = 2;
  // Siblings are fusable when they accumulate into the same C range —
  // the k-loop of one (i, j) tile — so fusion only serializes products
  // that were already ordered by their inout dependence on C.
  fuse.can_fuse = [](const AccessList& last, const AccessList& next) {
    return last.size() == 3 && next.size() == 3 &&
           last[2].region == next[2].region &&
           last[2].offset == next[2].offset &&
           last[2].length == next[2].length;
  };
  fuse.fuse = [](const std::vector<AccessList>& lists) {
    AccessList fused;
    fused.reserve(2 * lists.size() + 1);
    for (const AccessList& list : lists) {
      fused.push_back(list[0]);
      fused.push_back(list[1]);
    }
    fused.push_back(lists.front()[2]);
    return fused;
  };
  rt_.set_fuse_recipe(task_type_, std::move(fuse));
}

void MatmulApp::register_tiles() {
  const std::size_t tile_elems = params_.tile * params_.tile;
  const std::uint64_t tile_bytes = tile_elems * sizeof(double);
  const std::size_t tile_count = tiles_ * tiles_;

  Rng rng(params_.data_seed);
  auto make_matrix = [&](const char* name, std::vector<RegionId>& regions,
                         std::vector<std::vector<double>>& data,
                         bool randomize) {
    regions.reserve(tile_count);
    for (std::size_t t = 0; t < tile_count; ++t) {
      void* ptr = nullptr;
      if (params_.real_compute) {
        data.emplace_back(tile_elems, 0.0);
        if (randomize) {
          for (double& value : data.back()) {
            value = rng.uniform(-1.0, 1.0);
          }
        }
        ptr = data.back().data();
      }
      regions.push_back(rt_.register_data(
          std::string(name) + "[" + std::to_string(t) + "]", tile_bytes, ptr));
    }
  };
  make_matrix("A", a_regions_, a_data_, true);
  make_matrix("B", b_regions_, b_data_, true);
  make_matrix("C", c_regions_, c_data_, false);
}

void MatmulApp::submit_all() {
  for (std::size_t i = 0; i < tiles_; ++i) {
    for (std::size_t j = 0; j < tiles_; ++j) {
      for (std::size_t k = 0; k < tiles_; ++k) {
        rt_.submit(task_type_,
                   {Access::in(a_regions_[i * tiles_ + k]),
                    Access::in(b_regions_[k * tiles_ + j]),
                    Access::inout(c_regions_[i * tiles_ + j])});
      }
    }
  }
}

void MatmulApp::run() {
  submit_all();
  rt_.taskwait();
}

double MatmulApp::total_flops() const {
  const double n = static_cast<double>(params_.n);
  return 2.0 * n * n * n;
}

double MatmulApp::max_error() const {
  VERSA_CHECK_MSG(params_.real_compute, "max_error needs real compute");
  const std::size_t tile = params_.tile;
  double worst = 0.0;
  // Recompute each C tile with the naive kernel from scratch and compare.
  std::vector<double> reference(tile * tile);
  for (std::size_t i = 0; i < tiles_; ++i) {
    for (std::size_t j = 0; j < tiles_; ++j) {
      std::fill(reference.begin(), reference.end(), 0.0);
      for (std::size_t k = 0; k < tiles_; ++k) {
        kernels::dgemm_naive(a_data_[i * tiles_ + k].data(),
                             b_data_[k * tiles_ + j].data(), reference.data(),
                             tile);
      }
      const std::vector<double>& computed = c_data_[i * tiles_ + j];
      for (std::size_t e = 0; e < reference.size(); ++e) {
        worst = std::max(worst, std::fabs(reference[e] - computed[e]));
      }
    }
  }
  return worst;
}

}  // namespace versa::apps
