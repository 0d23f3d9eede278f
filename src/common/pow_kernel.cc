#include "common/pow_kernel.h"

// PowColumn is cloned for AVX2 and baseline x86-64 and picked at load time
// through an ifunc. FMA-capable targets stay off the clone list: neither
// clone may fuse a multiply and an add, so both round exactly like the
// one-lane BoundedPow. ThreadSanitizer builds take the baseline only: its
// instrumentation of the ifunc resolver crashes before the runtime starts.
#if defined(__SANITIZE_THREAD__)
#define SQLB_POW_THREAD_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SQLB_POW_THREAD_SANITIZER 1
#endif
#endif

#if defined(__x86_64__) && defined(__has_attribute) && \
    !defined(SQLB_POW_THREAD_SANITIZER)
#if __has_attribute(target_clones)
#define SQLB_POW_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef SQLB_POW_CLONES
#define SQLB_POW_CLONES
#endif

namespace sqlb {

SQLB_POW_CLONES
void PowColumn(const double* x, const double* y, std::size_t n, double* out) {
  pow_internal::PowColumnLoop(x, y, n, out);
}

}  // namespace sqlb
