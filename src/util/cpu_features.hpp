// The one runtime CPU-feature check behind every vectorized kernel.
//
// TC_AVX512_TARGET is 1 where the compiler can emit AVX-512 code for a
// single function (`__attribute__((target("avx512f")))`) whatever the
// build's -march, i.e. on x86-64 GCC and Clang; kernels compile their
// vector bodies only then. have_avx512() says whether the running CPU can
// execute them. Every vector kernel (spath arc scans, Algorithm 1's fused
// scan and restricted relaxation; DESIGN.md §13.2) dispatches on it at run
// time to a bit-identical scalar twin, so one binary serves every host and
// there is no option to pick a path.
#pragma once

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TC_AVX512_TARGET 1
#else
#define TC_AVX512_TARGET 0
#endif

namespace tc::util {

/// True when this CPU executes AVX-512F; false off x86-64. Evaluated once.
inline bool have_avx512() {
#if TC_AVX512_TARGET
  static const bool have = __builtin_cpu_supports("avx512f");
  return have;
#else
  return false;
#endif
}

}  // namespace tc::util
