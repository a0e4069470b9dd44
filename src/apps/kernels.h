// Real (host) computational kernels used by the examples and the
// functional tests. Every "device version" of a task computes the same
// mathematical result with a different loop structure, standing in for
// CBLAS / CUBLAS / hand-written CUDA implementations: versions must be
// interchangeable, exactly as the paper requires of `implements` sets.
#pragma once

#include <cstddef>

namespace versa::kernels {

// --- double-precision GEMM tile: C += A * B (n x n, row-major) ----------
void dgemm_naive(const double* a, const double* b, double* c, std::size_t n);
/// Cache-blocked variant (the "optimized library" stand-in).
void dgemm_blocked(const double* a, const double* b, double* c,
                   std::size_t n);
/// Row-band sub-kernel (adaptive granularity splits): `a` and `c` point at
/// a band of `rows` consecutive rows of the tile, `b` is the full n x n
/// operand. C_band += A_band * B.
void dgemm_band(const double* a, const double* b, double* c, std::size_t n,
                std::size_t rows);

// --- single-precision tiled Cholesky block kernels (row-major, lower) ---
/// In-place Cholesky of a diagonal block: A = L * L^T, L kept in the lower
/// triangle (upper triangle is left untouched). Returns false if the block
/// is not positive definite.
bool spotrf_block(float* a, std::size_t n);

/// Off-diagonal panel solve: B <- B * L^-T, with L the lower-triangular
/// result of spotrf_block on the diagonal block.
void strsm_block(const float* l, float* b, std::size_t n);

/// Symmetric rank-k update of a diagonal block: C <- C - A * A^T
/// (full block updated; symmetry keeps the math simple).
void ssyrk_block(const float* a, float* c, std::size_t n);

/// General update: C <- C - A * B^T.
void sgemm_nt_block(const float* a, const float* b, float* c, std::size_t n);

// --- single-precision blocked sparse LU kernels (row-major) --------------
/// In-place LU of a diagonal block without pivoting (caller guarantees
/// diagonal dominance): L strictly below the diagonal (unit diagonal
/// implied), U on and above.
void lu0_block(float* a, std::size_t n);

/// Forward elimination of a row-panel block: B <- L^-1 * B, with L the
/// unit-lower factor stored in `diag`.
void fwd_block(const float* diag, float* b, std::size_t n);

/// Column-panel update: B <- B * U^-1, with U the upper factor in `diag`.
void bdiv_block(const float* diag, float* b, std::size_t n);

/// Trailing update: C <- C - A * B.
void bmod_block(const float* a, const float* b, float* c, std::size_t n);

// --- PBPI-style likelihood arithmetic ------------------------------------
/// Per-site partial likelihood update over a slice: a smooth, strictly
/// positive transform keeping values in a stable range (MCMC-like shape,
/// no actual phylogenetics needed for the reproduction).
void pbpi_partial_likelihood(const float* sites, float* partials,
                             std::size_t count);

/// Accumulate log-likelihood over a partials slice.
double pbpi_accumulate(const float* partials, std::size_t count);

}  // namespace versa::kernels
