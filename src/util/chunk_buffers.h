// Per-chunk output buffers: the ordered merge for parallel loops.
//
// A ParallelFor body that appends its results to shared state under a mutex
// folds them in the order chunks happen to finish, so a floating-point fold
// changes with the pool width and thread timing. ChunkBuffers gives every
// fixed `grain`-sized block of the index range its own buffer, indexed by block
// id (i / grain); the caller folds the buffers in block order once the loop is
// done, so the fold order is the index order whatever the schedule. Blocks are
// fixed by (n, grain) alone, not by how the pool splits the range: a
// worker-less pool runs the loop body once over [0, n), and Fill still splits
// that call by grain. This is the ordered-futures idiom of a pool that keeps
// one result slot per submitted task.
#ifndef MAZE_UTIL_CHUNK_BUFFERS_H_
#define MAZE_UTIL_CHUNK_BUFFERS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/check.h"
#include "util/thread_pool.h"

namespace maze {

template <typename T>
class ChunkBuffers {
 public:
  ChunkBuffers(uint64_t n, uint64_t grain)
      : n_(n), grain_(grain), chunks_(grain == 0 ? 0 : (n + grain - 1) / grain) {
    MAZE_CHECK(grain > 0);
  }

  // Runs fn(lo, hi, out) once per block [lo, hi) of [0, n) on the default
  // pool; `out` is that block's buffer. Blocks run concurrently.
  template <typename Fn>
  void Fill(Fn&& fn) {
    ParallelFor(n_, grain_, [&](uint64_t lo, uint64_t hi) {
      MAZE_DCHECK(lo % grain_ == 0);
      for (uint64_t b = lo; b < hi; b += grain_) {
        fn(b, std::min(hi, b + grain_), chunks_[b / grain_]);
      }
    });
  }

  // Visits every buffered element, block by block in index order.
  template <typename Fn>
  void ForEachInOrder(Fn&& fn) const {
    for (const std::vector<T>& chunk : chunks_) {
      for (const T& x : chunk) fn(x);
    }
  }

 private:
  uint64_t n_;
  uint64_t grain_;
  std::vector<std::vector<T>> chunks_;
};

}  // namespace maze

#endif  // MAZE_UTIL_CHUNK_BUFFERS_H_
