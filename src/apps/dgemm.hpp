// Double-precision GEMM kernel: C += A * B (row-major).
//
// The paper uses Intel MKL's DGEMM inside the matrix-multiplication
// benchmark; we substitute a cache-blocked, register-tiled kernel (the
// evaluation compares *placements*, not BLAS implementations).
#pragma once

#include <cstddef>

namespace orwl::apps {

/// C(m x n) += A(m x k) * B(k x n); row-major with explicit leading
/// dimensions (lda/ldb/ldc = row strides in elements).
void dgemm(std::size_t m, std::size_t n, std::size_t k, const double* a,
           std::size_t lda, const double* b, std::size_t ldb, double* c,
           std::size_t ldc);

/// Triple-loop reference used to validate the blocked kernel.
void dgemm_naive(std::size_t m, std::size_t n, std::size_t k,
                 const double* a, std::size_t lda, const double* b,
                 std::size_t ldb, double* c, std::size_t ldc);

}  // namespace orwl::apps
