#ifndef SQLB_COMMON_CACHE_LINE_H_
#define SQLB_COMMON_CACHE_LINE_H_

#include <cstddef>

/// \file
/// The padding unit for state that different threads write.

namespace sqlb {

/// Bytes per cache line on the supported targets. A hot atomic written by
/// one thread and read by another gets alignas(kCacheLine), and so does the
/// field after it, so a write never invalidates a line another core keeps
/// reading for unrelated fields (false sharing).
inline constexpr std::size_t kCacheLine = 64;

}  // namespace sqlb

#endif  // SQLB_COMMON_CACHE_LINE_H_
