#include "apps/kernels.h"

#include <algorithm>
#include <cmath>

namespace versa::kernels {

void dgemm_naive(const double* a, const double* b, double* c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = c[i * n + j];
      for (std::size_t k = 0; k < n; ++k) {
        acc += a[i * n + k] * b[k * n + j];
      }
      c[i * n + j] = acc;
    }
  }
}

void dgemm_blocked(const double* a, const double* b, double* c,
                   std::size_t n) {
  constexpr std::size_t kBlock = 32;
  for (std::size_t ii = 0; ii < n; ii += kBlock) {
    const std::size_t i_end = std::min(ii + kBlock, n);
    for (std::size_t kk = 0; kk < n; kk += kBlock) {
      const std::size_t k_end = std::min(kk + kBlock, n);
      for (std::size_t jj = 0; jj < n; jj += kBlock) {
        const std::size_t j_end = std::min(jj + kBlock, n);
        for (std::size_t i = ii; i < i_end; ++i) {
          for (std::size_t k = kk; k < k_end; ++k) {
            const double aik = a[i * n + k];
            for (std::size_t j = jj; j < j_end; ++j) {
              c[i * n + j] += aik * b[k * n + j];
            }
          }
        }
      }
    }
  }
}


void dgemm_band(const double* a, const double* b, double* c, std::size_t n,
                std::size_t rows) {
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      const double aik = a[i * n + k];
      for (std::size_t j = 0; j < n; ++j) {
        c[i * n + j] += aik * b[k * n + j];
      }
    }
  }
}

bool spotrf_block(float* a, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a[j * n + j];
    for (std::size_t k = 0; k < j; ++k) {
      diag -= static_cast<double>(a[j * n + k]) * a[j * n + k];
    }
    if (diag <= 0.0) return false;
    const float ljj = static_cast<float>(std::sqrt(diag));
    a[j * n + j] = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double value = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) {
        value -= static_cast<double>(a[i * n + k]) * a[j * n + k];
      }
      a[i * n + j] = static_cast<float>(value / ljj);
    }
  }
  return true;
}

void strsm_block(const float* l, float* b, std::size_t n) {
  // Solve X * L^T = B row by row: forward substitution against L's rows.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double value = b[i * n + j];
      for (std::size_t k = 0; k < j; ++k) {
        value -= static_cast<double>(b[i * n + k]) * l[j * n + k];
      }
      b[i * n + j] = static_cast<float>(value / l[j * n + j]);
    }
  }
}

void ssyrk_block(const float* a, float* c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = c[i * n + j];
      for (std::size_t k = 0; k < n; ++k) {
        acc -= static_cast<double>(a[i * n + k]) * a[j * n + k];
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

void sgemm_nt_block(const float* a, const float* b, float* c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = c[i * n + j];
      for (std::size_t k = 0; k < n; ++k) {
        acc -= static_cast<double>(a[i * n + k]) * b[j * n + k];
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

void lu0_block(float* a, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const float pivot = a[k * n + k];
    for (std::size_t i = k + 1; i < n; ++i) {
      a[i * n + k] /= pivot;
      const float lik = a[i * n + k];
      for (std::size_t j = k + 1; j < n; ++j) {
        a[i * n + j] -= lik * a[k * n + j];
      }
    }
  }
}

void fwd_block(const float* diag, float* b, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = k + 1; i < n; ++i) {
      const float lik = diag[i * n + k];
      for (std::size_t j = 0; j < n; ++j) {
        b[i * n + j] -= lik * b[k * n + j];
      }
    }
  }
}

void bdiv_block(const float* diag, float* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      b[i * n + k] /= diag[k * n + k];
      const float bik = b[i * n + k];
      for (std::size_t j = k + 1; j < n; ++j) {
        b[i * n + j] -= bik * diag[k * n + j];
      }
    }
  }
}

void bmod_block(const float* a, const float* b, float* c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      const float aik = a[i * n + k];
      for (std::size_t j = 0; j < n; ++j) {
        c[i * n + j] -= aik * b[k * n + j];
      }
    }
  }
}

void pbpi_partial_likelihood(const float* sites, float* partials,
                             std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    // Bounded positive transform mixing the site pattern into the partial:
    // stays in (0, 2], so repeated generations neither overflow nor vanish.
    const float mixed = 0.5f * partials[i] + 0.5f * sites[i];
    partials[i] = 1.0f + std::tanh(mixed - 1.0f);
    partials[i] = std::max(partials[i], 1e-6f);
  }
}

double pbpi_accumulate(const float* partials, std::size_t count) {
  double log_likelihood = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    log_likelihood += std::log(static_cast<double>(partials[i]));
  }
  return log_likelihood;
}

}  // namespace versa::kernels
