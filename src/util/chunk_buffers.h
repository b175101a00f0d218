// Per-block result slots: the one ordered merge for parallel loops.
//
// A ParallelFor body that merges its results into shared state under a mutex
// folds them in the order chunks happen to finish, so a floating-point fold or
// an appended list changes with the pool width and thread timing. ChunkBuffers
// gives every fixed `grain`-sized block of the index range its own slot of a
// caller-chosen type T (a vector, a struct of vectors and flags, a scalar
// sum), indexed by block id (i / grain); the caller folds the slots in block
// order once the loop is done, so the fold order is the index order whatever
// the schedule. Blocks are fixed by (n, grain) alone, not by how the pool
// splits the range: a worker-less pool runs the loop body once over [0, n),
// and Fill still splits that call by grain. This is the ordered-futures idiom
// of a pool that keeps one result slot per submitted task.
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
  // Slots start value-initialized (empty containers, zero sums).
  ChunkBuffers(uint64_t n, uint64_t grain)
      : n_(n), grain_(grain), slots_(grain == 0 ? 0 : (n + grain - 1) / grain) {
    MAZE_CHECK(grain > 0);
  }

  // Runs fn(lo, hi, slot) once per block [lo, hi) of [0, n) on the default
  // pool; `slot` is that block's T. Blocks run concurrently.
  template <typename Fn>
  void Fill(Fn&& fn) {
    ParallelFor(n_, grain_, [&](uint64_t lo, uint64_t hi) {
      MAZE_DCHECK(lo % grain_ == 0);
      for (uint64_t b = lo; b < hi; b += grain_) {
        fn(b, std::min(hi, b + grain_), slots_[b / grain_]);
      }
    });
  }

  // Visits every block's slot in block (= index) order; fn may move from or
  // otherwise mutate the slot.
  template <typename Fn>
  void ForEachInOrder(Fn&& fn) {
    for (T& slot : slots_) fn(slot);
  }

 private:
  uint64_t n_;
  uint64_t grain_;
  std::vector<T> slots_;
};

}  // namespace maze

#endif  // MAZE_UTIL_CHUNK_BUFFERS_H_
