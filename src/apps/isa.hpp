// The run-time instruction-set pick of the kernels compiled twice, once
// for AVX2 and once for the build's baseline ISA (SSE2 on x86-64):
// apps::dgemm (AVX2 with FMA) and Scene::render (AVX2). Each calls this
// on every call, so no build flag or knob is needed.
#pragma once

namespace orwl::apps {

/// True when this CPU runs AVX2 code, and FMA code as well when `fma`;
/// always false off x86. libgcc tests the CPU once, in a constructor that
/// runs before main; a call only looks up the flags it stored.
inline bool cpu_has_avx2(bool fma) {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") &&
         (!fma || __builtin_cpu_supports("fma"));
#else
  (void)fma;
  return false;
#endif
}

}  // namespace orwl::apps
