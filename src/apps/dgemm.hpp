// Double-precision GEMM kernel: C += A * B (row-major).
//
// The paper uses Intel MKL's DGEMM inside the matrix-multiplication
// benchmark; we substitute a packed, register-tiled kernel (the
// evaluation compares *placements*, not BLAS implementations). Each
// (kc x nc) panel of B is packed into NR-wide strips and each (mc x kc)
// panel of A into MR-tall strips, zero-padded at the edges, in a buffer
// allocated for the call. A micro-kernel keeps one MR x NR tile of C in
// registers over the whole k-panel and adds it into C once. The kernel
// is compiled twice, for AVX2+FMA and for the baseline ISA of the build,
// and runs the one the CPU supports (dgemm_isa() names it). No build
// flag is needed.
#pragma once

#include <cstddef>

namespace orwl::apps {

/// C(m x n) += A(m x k) * B(k x n); row-major with explicit leading
/// dimensions (lda/ldb/ldc = row strides in elements).
void dgemm(std::size_t m, std::size_t n, std::size_t k, const double* a,
           std::size_t lda, const double* b, std::size_t ldb, double* c,
           std::size_t ldc);

/// The kernel dgemm() runs on this CPU: "avx2+fma" or "portable".
const char* dgemm_isa();

/// The baseline-ISA kernel dgemm() falls back to, callable directly so
/// that tests and benches cover it on CPUs that pick AVX2+FMA.
void dgemm_portable(std::size_t m, std::size_t n, std::size_t k,
                    const double* a, std::size_t lda, const double* b,
                    std::size_t ldb, double* c, std::size_t ldc);

/// Triple-loop reference used to validate the blocked kernel.
void dgemm_naive(std::size_t m, std::size_t n, std::size_t k,
                 const double* a, std::size_t lda, const double* b,
                 std::size_t ldb, double* c, std::size_t ldc);

}  // namespace orwl::apps
