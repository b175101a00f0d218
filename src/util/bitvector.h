// Bitvector: the data-structure optimization the paper credits with ~2x speedups in
// native BFS and Triangle Counting (Section 6.1.1). Provides O(1) membership tests
// over a dense id space with one bit per element, plus atomic set operations for
// concurrent frontier construction.
#ifndef MAZE_UTIL_BITVECTOR_H_
#define MAZE_UTIL_BITVECTOR_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace maze {

// Fixed-capacity bit set over ids [0, size). Thread-safe for concurrent SetAtomic /
// TestAtomic; Test and the non-atomic mutators require external synchronization.
class Bitvector {
 public:
  Bitvector() = default;
  explicit Bitvector(size_t size) { Resize(size); }

  // Resizes to hold `size` bits, clearing all of them.
  void Resize(size_t size) {
    size_ = size;
    words_.assign((size + 63) / 64, 0);
  }

  size_t size() const { return size_; }

  // Number of bytes of backing storage (used for memory accounting).
  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

  bool Test(size_t i) const {
    MAZE_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  // Test for bits that other threads may be setting concurrently with
  // TestAndSetAtomic (a relaxed load: same code as Test on x86).
  bool TestAtomic(size_t i) const {
    MAZE_DCHECK(i < size_);
    // The words are never const objects; only this view of them is.
    std::atomic_ref<uint64_t> word(const_cast<uint64_t&>(words_[i >> 6]));
    return (word.load(std::memory_order_relaxed) >> (i & 63)) & 1u;
  }

  void Set(size_t i) {
    MAZE_DCHECK(i < size_);
    words_[i >> 6] |= (uint64_t{1} << (i & 63));
  }

  void Clear(size_t i) {
    MAZE_DCHECK(i < size_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  // Atomically sets bit i; returns true if this call changed it from 0 to 1.
  // This is the BFS "claim a vertex" primitive.
  bool TestAndSetAtomic(size_t i) {
    MAZE_DCHECK(i < size_);
    uint64_t mask = uint64_t{1} << (i & 63);
    auto* word = reinterpret_cast<std::atomic<uint64_t>*>(&words_[i >> 6]);
    uint64_t prev = word->fetch_or(mask, std::memory_order_relaxed);
    return (prev & mask) == 0;
  }

  void SetAtomic(size_t i) { (void)TestAndSetAtomic(i); }

  // Zeroes every bit, keeping capacity.
  void Reset() { std::fill(words_.begin(), words_.end(), 0); }

  // Population count over the whole vector.
  size_t Count() const;

  // Bitwise-AND population count with another vector of the same size: the core of
  // bitvector-based triangle counting (|N(u) AND N(v)|).
  size_t IntersectCount(const Bitvector& other) const;

  // Appends the indices of all set bits to `out` in increasing order.
  void AppendSetBits(std::vector<uint32_t>* out) const;

  const uint64_t* words() const { return words_.data(); }
  size_t word_count() const { return words_.size(); }

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace maze

#endif  // MAZE_UTIL_BITVECTOR_H_
