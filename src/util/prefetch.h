// Software prefetching (Section 6.1.2): the single largest native-code optimization
// for PageRank/BFS in the paper, hiding the latency of irregular gather accesses.
#ifndef MAZE_UTIL_PREFETCH_H_
#define MAZE_UTIL_PREFETCH_H_

#include <cstddef>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace maze {

// Hints the cache hierarchy to load the line containing `addr` for reading.
// No-ops on compilers without __builtin_prefetch.
inline void PrefetchRead(const void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/3);
#else
  (void)addr;
#endif
}

inline void PrefetchWrite(const void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/1, /*locality=*/3);
#else
  (void)addr;
#endif
}

// How far ahead (in elements) the native kernels issue prefetches; chosen to cover
// DRAM latency at typical per-element work.
inline constexpr int kPrefetchDistance = 16;

// Detected L2 size (1 MiB fallback). Software prefetch of gathered values only
// pays when the gathered span spills this level; below it the loads already
// hit and the prefetch instructions are pure overhead.
inline size_t InnerCacheBytes() {
  static const size_t l2 = [] {
#if defined(_SC_LEVEL2_CACHE_SIZE)
    long bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
    if (bytes > 0) return static_cast<size_t>(bytes);
#endif
    return size_t{1} << 20;
  }();
  return l2;
}

}  // namespace maze

#endif  // MAZE_UTIL_PREFETCH_H_
