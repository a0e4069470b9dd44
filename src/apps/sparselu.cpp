#include "apps/sparselu.h"

#include <cmath>

#include "apps/kernels.h"
#include "common/check.h"
#include "common/random.h"
#include "machine/kernel_models.h"

namespace versa::apps {

SparseLuApp::SparseLuApp(Runtime& rt, SparseLuParams params)
    : rt_(rt), params_(params) {
  VERSA_CHECK(params_.blocks >= 2);
  VERSA_CHECK(params_.block_size >= 4);
  VERSA_CHECK(params_.density > 0.0 && params_.density <= 1.0);
  present_.assign(params_.blocks * params_.blocks, false);
  regions_.assign(params_.blocks * params_.blocks, 0);
  if (params_.real_compute) {
    data_.resize(params_.blocks * params_.blocks);
  }
  register_versions();
  build_pattern();
}

std::size_t SparseLuApp::index(std::size_t i, std::size_t j) const {
  VERSA_DCHECK(i < params_.blocks && j < params_.blocks);
  return i * params_.blocks + j;
}

bool SparseLuApp::exists(std::size_t i, std::size_t j) const {
  return present_[index(i, j)];
}

void SparseLuApp::materialize(std::size_t i, std::size_t j, bool randomize) {
  VERSA_CHECK(!exists(i, j));
  const std::size_t bs = params_.block_size;
  void* ptr = nullptr;
  if (params_.real_compute) {
    std::vector<float>& block = data_[index(i, j)];
    block.assign(bs * bs, 0.0f);
    if (randomize) {
      // Deterministic per-block stream so the pattern seed and the data
      // seed fully define the matrix.
      Rng rng(params_.data_seed ^ (index(i, j) * 0x9e3779b97f4a7c15ull));
      for (float& value : block) {
        value = static_cast<float>(rng.uniform(-0.5, 0.5));
      }
      if (i == j) {
        for (std::size_t d = 0; d < bs; ++d) {
          block[d * bs + d] += static_cast<float>(bs) * 2.0f;
        }
      }
    }
    ptr = block.data();
  }
  regions_[index(i, j)] = rt_.register_data(
      "A[" + std::to_string(i) + "," + std::to_string(j) + "]",
      bs * bs * sizeof(float), ptr);
  present_[index(i, j)] = true;
  ++live_blocks_;
}

void SparseLuApp::build_pattern() {
  Rng rng(params_.pattern_seed);
  for (std::size_t i = 0; i < params_.blocks; ++i) {
    for (std::size_t j = 0; j < params_.blocks; ++j) {
      const bool wanted =
          i == j || rng.next_double() < params_.density;
      if (wanted) {
        materialize(i, j, /*randomize=*/true);
      }
    }
  }
  initial_blocks_ = live_blocks_;
}

void SparseLuApp::register_versions() {
  const std::size_t bs = params_.block_size;
  const double flops_lu0 = 2.0 / 3.0 * bs * bs * bs;
  const double flops_panel = 1.0 * bs * bs * bs;
  const double flops_bmod = 2.0 * bs * bs * bs;

  // Effective rates: GPU panels at CUBLAS-class speed, SMP at one-core
  // CBLAS speed; lu0 is latency-bound on GPU so its advantage is smaller.
  const auto gpu_cost = [](double flops, double rate) {
    return make_constant_cost(flops / rate);
  };

  t_lu0_ = rt_.declare_task("lu0");
  const TaskFn lu0_body = [bs](TaskContext& ctx) {
    auto* a = static_cast<float*>(ctx.arg(0));
    if (a == nullptr) return;
    AccessWitness(ctx).read_write(0);
    kernels::lu0_block(a, bs);
  };
  rt_.add_version(t_lu0_, DeviceKind::kCuda, "gpu", lu0_body,
                  gpu_cost(flops_lu0, 40e9));
  if (params_.hybrid) {
    rt_.add_version(t_lu0_, DeviceKind::kSmp, "smp", lu0_body,
                    gpu_cost(flops_lu0, 6e9));
  }

  t_fwd_ = rt_.declare_task("fwd");
  const TaskFn fwd_body = [bs](TaskContext& ctx) {
    auto* diag = static_cast<const float*>(ctx.arg(0));
    auto* b = static_cast<float*>(ctx.arg(1));
    if (diag == nullptr) return;
    AccessWitness witness(ctx);
    witness.read(0);
    witness.read_write(1);
    kernels::fwd_block(diag, b, bs);
  };
  rt_.add_version(t_fwd_, DeviceKind::kCuda, "gpu", fwd_body,
                  gpu_cost(flops_panel, 300e9));
  if (params_.hybrid) {
    rt_.add_version(t_fwd_, DeviceKind::kSmp, "smp", fwd_body,
                    gpu_cost(flops_panel, 7e9));
  }

  t_bdiv_ = rt_.declare_task("bdiv");
  const TaskFn bdiv_body = [bs](TaskContext& ctx) {
    auto* diag = static_cast<const float*>(ctx.arg(0));
    auto* b = static_cast<float*>(ctx.arg(1));
    if (diag == nullptr) return;
    AccessWitness witness(ctx);
    witness.read(0);
    witness.read_write(1);
    kernels::bdiv_block(diag, b, bs);
  };
  rt_.add_version(t_bdiv_, DeviceKind::kCuda, "gpu", bdiv_body,
                  gpu_cost(flops_panel, 300e9));
  if (params_.hybrid) {
    rt_.add_version(t_bdiv_, DeviceKind::kSmp, "smp", bdiv_body,
                    gpu_cost(flops_panel, 7e9));
  }

  t_bmod_ = rt_.declare_task("bmod");
  const TaskFn bmod_body = [bs](TaskContext& ctx) {
    auto* a = static_cast<const float*>(ctx.arg(0));
    auto* b = static_cast<const float*>(ctx.arg(1));
    auto* c = static_cast<float*>(ctx.arg(2));
    if (a == nullptr) return;
    AccessWitness witness(ctx);
    witness.read(0);
    witness.read(1);
    witness.read_write(2);
    kernels::bmod_block(a, b, c, bs);
  };
  rt_.add_version(t_bmod_, DeviceKind::kCuda, "gpu", bmod_body,
                  gpu_cost(flops_bmod, 500e9));
  if (params_.hybrid) {
    rt_.add_version(t_bmod_, DeviceKind::kSmp, "smp", bmod_body,
                    gpu_cost(flops_bmod, 7e9));
  }
}

void SparseLuApp::submit_all() {
  if (params_.real_compute && original_.empty()) {
    original_ = data_;  // snapshot for the sequential reference
  }
  const std::size_t blocks = params_.blocks;
  for (std::size_t k = 0; k < blocks; ++k) {
    rt_.submit(t_lu0_, {Access::inout(regions_[index(k, k)])}, "lu0");
    ++submitted_tasks_;
    for (std::size_t j = k + 1; j < blocks; ++j) {
      if (!exists(k, j)) continue;
      rt_.submit(t_fwd_, {Access::in(regions_[index(k, k)]),
                          Access::inout(regions_[index(k, j)])},
                 "fwd");
      ++submitted_tasks_;
    }
    for (std::size_t i = k + 1; i < blocks; ++i) {
      if (!exists(i, k)) continue;
      rt_.submit(t_bdiv_, {Access::in(regions_[index(k, k)]),
                           Access::inout(regions_[index(i, k)])},
                 "bdiv");
      ++submitted_tasks_;
      for (std::size_t j = k + 1; j < blocks; ++j) {
        if (!exists(k, j)) continue;
        if (!exists(i, j)) {
          materialize(i, j, /*randomize=*/false);  // fill-in
        }
        rt_.submit(t_bmod_, {Access::in(regions_[index(i, k)]),
                             Access::in(regions_[index(k, j)]),
                             Access::inout(regions_[index(i, j)])},
                   "bmod");
        ++submitted_tasks_;
      }
    }
  }
}

void SparseLuApp::run() {
  submit_all();
  rt_.taskwait();
}

double SparseLuApp::max_error() const {
  VERSA_CHECK_MSG(params_.real_compute, "max_error needs real compute");
  const std::size_t blocks = params_.blocks;
  const std::size_t bs = params_.block_size;

  // Sequential replay on the snapshot with the identical block pattern
  // (fill-in re-derived the same way since submission order is fixed).
  std::vector<std::vector<float>> ref = original_;
  std::vector<bool> live(blocks * blocks, false);
  for (std::size_t i = 0; i < blocks * blocks; ++i) {
    live[i] = !ref[i].empty();
  }
  auto at = [&](std::size_t i, std::size_t j) -> std::vector<float>& {
    return ref[i * blocks + j];
  };
  for (std::size_t k = 0; k < blocks; ++k) {
    kernels::lu0_block(at(k, k).data(), bs);
    for (std::size_t j = k + 1; j < blocks; ++j) {
      if (live[k * blocks + j]) {
        kernels::fwd_block(at(k, k).data(), at(k, j).data(), bs);
      }
    }
    for (std::size_t i = k + 1; i < blocks; ++i) {
      if (!live[i * blocks + k]) continue;
      kernels::bdiv_block(at(k, k).data(), at(i, k).data(), bs);
      for (std::size_t j = k + 1; j < blocks; ++j) {
        if (!live[k * blocks + j]) continue;
        if (!live[i * blocks + j]) {
          at(i, j).assign(bs * bs, 0.0f);
          live[i * blocks + j] = true;
        }
        kernels::bmod_block(at(i, k).data(), at(k, j).data(),
                            at(i, j).data(), bs);
      }
    }
  }

  double worst = 0.0;
  for (std::size_t b = 0; b < blocks * blocks; ++b) {
    if (!present_[b]) continue;
    VERSA_CHECK(live[b]);
    const std::vector<float>& got = data_[b];
    const std::vector<float>& want = ref[b];
    for (std::size_t e = 0; e < got.size(); ++e) {
      worst = std::max(
          worst, std::fabs(static_cast<double>(got[e]) - want[e]));
    }
  }
  return worst;
}

}  // namespace versa::apps
