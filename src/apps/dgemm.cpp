#include "apps/dgemm.hpp"

#include <algorithm>
#include <cstring>
#include <memory>

#include "apps/isa.hpp"

namespace orwl::apps {

void dgemm_naive(std::size_t m, std::size_t n, std::size_t k,
                 const double* a, std::size_t lda, const double* b,
                 std::size_t ldb, double* c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = c[i * ldc + j];
      for (std::size_t p = 0; p < k; ++p) {
        acc += a[i * lda + p] * b[p * ldb + j];
      }
      c[i * ldc + j] = acc;
    }
  }
}

namespace {

// Cache blocks: a packed (kc x nc) panel of B stays in L2 while packed
// (mc x kc) panels of A stream through it; one MR x NR tile of C lives in
// registers across a whole k-panel.
constexpr std::size_t kMC = 72;
constexpr std::size_t kKC = 128;
constexpr std::size_t kNC = 256;

/// The two instantiations of the kernel.
enum Isa { kPortable, kAvx2Fma };

/// GCC vector types: one SSE2/NEON register, one AVX2 register (or two
/// SSE2 ones). aligned(8): the packed B rows they load from are only
/// 8-byte aligned.
using v2d = double __attribute__((vector_size(16), aligned(8)));
using v4d = double __attribute__((vector_size(32), aligned(8)));

/// Register tile of each instantiation: MR x NR accumulators held in
/// `vec` registers. Both use 12 of the 16 vector registers, leaving
/// room for a row of B and the broadcast element of A.
template <Isa>
struct Tile {  // SSE2 on x86-64, NEON on AArch64
  using vec = v2d;
  static constexpr std::size_t MR = 6, NR = 4;
};
template <>
struct Tile<kAvx2Fma> {
  using vec = v4d;
  static constexpr std::size_t MR = 6, NR = 8;
};

constexpr std::size_t round_up(std::size_t x, std::size_t to) {
  return (x + to - 1) / to * to;
}

// Every helper below is always inlined, so each of the two entry points
// at the bottom compiles its own copy under its own target ISA.
#define ORWL_DGEMM_INLINE [[gnu::always_inline]] inline

/// Pack B(kc x nc) into NR-wide strips, each strip kc rows of NR
/// contiguous values; columns past nc are zero.
template <std::size_t NR>
ORWL_DGEMM_INLINE void pack_b(std::size_t kc, std::size_t nc,
                              const double* b, std::size_t ldb,
                              double* dst) {
  for (std::size_t j0 = 0; j0 < nc; j0 += NR) {
    const std::size_t w = std::min(NR, nc - j0);
    for (std::size_t p = 0; p < kc; ++p) {
      const double* src = b + p * ldb + j0;
      std::size_t j = 0;
      for (; j < w; ++j) dst[j] = src[j];
      for (; j < NR; ++j) dst[j] = 0.0;
      dst += NR;
    }
  }
}

/// Pack A(mc x kc) into MR-tall strips, each strip kc columns of MR
/// contiguous values; rows past mc are zero.
template <std::size_t MR>
ORWL_DGEMM_INLINE void pack_a(std::size_t mc, std::size_t kc,
                              const double* a, std::size_t lda,
                              double* dst) {
  for (std::size_t i0 = 0; i0 < mc; i0 += MR) {
    const std::size_t h = std::min(MR, mc - i0);
    for (std::size_t i = 0; i < MR; ++i) {
      if (i < h) {
        const double* src = a + (i0 + i) * lda;
        for (std::size_t p = 0; p < kc; ++p) dst[p * MR + i] = src[p];
      } else {
        for (std::size_t p = 0; p < kc; ++p) dst[p * MR + i] = 0.0;
      }
    }
    dst += MR * kc;
  }
}

/// C(h x w) += Apanel(MR x kc) * Bpanel(kc x NR), accumulated in an
/// MR x NR register tile and added into C once; h <= MR, w <= NR. The
/// tile is written with GCC vector types and forced unrolling so it
/// stays in registers at -O2 as well as -O3.
template <Isa I>
ORWL_DGEMM_INLINE void micro_kernel(std::size_t kc, const double* ap,
                                    const double* bp, double* c,
                                    std::size_t ldc, std::size_t h,
                                    std::size_t w) {
  using vec = typename Tile<I>::vec;
  constexpr std::size_t MR = Tile<I>::MR, NR = Tile<I>::NR;
  static_assert(NR * sizeof(double) % sizeof(vec) == 0);
  constexpr std::size_t NV = NR * sizeof(double) / sizeof(vec);
  vec acc[MR][NV] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const vec* bv = reinterpret_cast<const vec*>(bp);
#pragma GCC unroll 8
    for (std::size_t i = 0; i < MR; ++i) {
#pragma GCC unroll 8
      for (std::size_t v = 0; v < NV; ++v) acc[i][v] += ap[i] * bv[v];
    }
    ap += MR;
    bp += NR;
  }
  double tile[MR][NR];
  std::memcpy(tile, acc, sizeof tile);
  for (std::size_t i = 0; i < h; ++i) {
    for (std::size_t j = 0; j < w; ++j) c[i * ldc + j] += tile[i][j];
  }
}

/// The blocked loop nest (jc, pc, ic, jr, ir). The pack buffer (one B
/// panel, then one A panel: at most 328 KiB) lives for one call. Kept
/// per thread instead, it raised matmul_ring's peak RSS by up to 12 MiB:
/// Program::run starts a thread per task, and per-thread buffers changed
/// how much memory the allocator's arenas kept between runs.
template <Isa I>
ORWL_DGEMM_INLINE void blocked(std::size_t m, std::size_t n, std::size_t k,
                               const double* a, std::size_t lda,
                               const double* b, std::size_t ldb, double* c,
                               std::size_t ldc) {
  if (m == 0 || n == 0 || k == 0) return;
  constexpr std::size_t MR = Tile<I>::MR, NR = Tile<I>::NR;
  const std::size_t kc_max = std::min(k, kKC);
  const std::size_t b_size = kc_max * round_up(std::min(n, kNC), NR);
  const std::size_t a_size = round_up(std::min(m, kMC), MR) * kc_max;
  const auto pack = std::make_unique_for_overwrite<double[]>(b_size + a_size);
  double* const bpack = pack.get();
  double* const apack = bpack + b_size;
  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t nc = std::min(kNC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kc = std::min(kKC, k - pc);
      pack_b<NR>(kc, nc, b + pc * ldb + jc, ldb, bpack);
      for (std::size_t ic = 0; ic < m; ic += kMC) {
        const std::size_t mc = std::min(kMC, m - ic);
        pack_a<MR>(mc, kc, a + ic * lda + pc, lda, apack);
        for (std::size_t jr = 0; jr < nc; jr += NR) {
          for (std::size_t ir = 0; ir < mc; ir += MR) {
            micro_kernel<I>(kc, apack + ir * kc, bpack + jr * kc,
                            c + (ic + ir) * ldc + jc + jr, ldc,
                            std::min(MR, mc - ir), std::min(NR, nc - jr));
          }
        }
      }
    }
  }
}

#undef ORWL_DGEMM_INLINE

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2,fma"))) void blocked_avx2_fma(
    std::size_t m, std::size_t n, std::size_t k, const double* a,
    std::size_t lda, const double* b, std::size_t ldb, double* c,
    std::size_t ldc) {
  blocked<kAvx2Fma>(m, n, k, a, lda, b, ldb, c, ldc);
}
#endif

}  // namespace

const char* dgemm_isa() {
  return cpu_has_avx2(/*fma=*/true) ? "avx2+fma" : "portable";
}

void dgemm(std::size_t m, std::size_t n, std::size_t k, const double* a,
           std::size_t lda, const double* b, std::size_t ldb, double* c,
           std::size_t ldc) {
#if defined(__x86_64__) || defined(__i386__)
  if (cpu_has_avx2(/*fma=*/true)) {
    blocked_avx2_fma(m, n, k, a, lda, b, ldb, c, ldc);
    return;
  }
#endif
  dgemm_portable(m, n, k, a, lda, b, ldb, c, ldc);
}

void dgemm_portable(std::size_t m, std::size_t n, std::size_t k,
                    const double* a, std::size_t lda, const double* b,
                    std::size_t ldb, double* c, std::size_t ldc) {
  blocked<kPortable>(m, n, k, a, lda, b, ldb, c, ldc);
}

}  // namespace orwl::apps
