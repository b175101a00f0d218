#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/chunk_buffers.h"

namespace maze {
namespace {

TEST(ThreadPoolTest, CoversEntireRangeExactlyOnce) {
  ThreadPool pool(4);
  constexpr uint64_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, 128, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.ParallelFor(0, 16, [&](uint64_t, uint64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SmallRangeRunsInline) {
  ThreadPool pool(4);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(10, 100, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t i = lo; i < hi; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 45u);
}

TEST(ThreadPoolTest, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(1000, 10, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t i = lo; i < hi; ++i) sum.fetch_add(1);
  });
  EXPECT_EQ(sum.load(), 1000u);
}

TEST(ThreadPoolTest, ReentrantCallExecutesInline) {
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  pool.ParallelFor(8, 1, [&](uint64_t, uint64_t) {
    // Nested call from a worker must not deadlock.
    pool.ParallelFor(100, 10, [&](uint64_t lo, uint64_t hi) {
      total.fetch_add(hi - lo);
    });
  });
  EXPECT_EQ(total.load(), 800u);
}

TEST(ThreadPoolTest, SequentialLoopsReuseWorkers) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<uint64_t> count{0};
    pool.ParallelFor(1000, 16, [&](uint64_t lo, uint64_t hi) {
      count.fetch_add(hi - lo);
    });
    ASSERT_EQ(count.load(), 1000u) << "round " << round;
  }
}

TEST(ThreadPoolTest, ParallelForEachVisitsAll) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(5000);
  pool.ParallelForEach(hits.size(), [&](uint64_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ConcurrentLoopsFromManyThreads) {
  // Several threads each open their own parallel region on one shared pool;
  // every region must cover its range exactly once, with no cross-talk.
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  constexpr uint64_t kN = 20000;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kN);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 20; ++round) {
        pool.ParallelFor(kN, 64, [&, c](uint64_t lo, uint64_t hi) {
          for (uint64_t i = lo; i < hi; ++i) hits[c][i].fetch_add(1);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (uint64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[c][i].load(), 20) << "caller " << c << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, DeeplyNestedLoopsComplete) {
  ThreadPool pool(4);
  std::atomic<uint64_t> leaf{0};
  pool.ParallelFor(4, 1, [&](uint64_t, uint64_t) {
    pool.ParallelFor(4, 1, [&](uint64_t, uint64_t) {
      pool.ParallelFor(64, 4, [&](uint64_t lo, uint64_t hi) {
        leaf.fetch_add(hi - lo);
      });
    });
  });
  EXPECT_EQ(leaf.load(), 4u * 4u * 64u);
}

TEST(ThreadPoolTest, ConcurrentNestedStress) {
  // Concurrent callers each running nested regions: the worst case for the
  // loop registry (many loops in flight, opened and retired out of order).
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  std::atomic<uint64_t> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        pool.ParallelFor(8, 1, [&](uint64_t, uint64_t) {
          pool.ParallelFor(200, 8, [&](uint64_t lo, uint64_t hi) {
            total.fetch_add(hi - lo);
          });
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), static_cast<uint64_t>(kCallers) * 10u * 8u * 200u);
}

TEST(ThreadPoolTest, RegionCpuMeterCountsChunkWork) {
  ThreadPool pool(4);
  RegionCpuMeter meter;
  std::atomic<uint64_t> sink{0};
  pool.ParallelFor(1u << 16, 256, [&](uint64_t lo, uint64_t hi) {
    uint64_t acc = 0;
    for (uint64_t i = lo; i < hi; ++i) acc += i * i;
    sink.fetch_add(acc, std::memory_order_relaxed);
  });
  // Chunks executed under the innermost live meter must have charged it.
  EXPECT_GT(meter.worker_nanos(), 0u);
  EXPECT_GE(meter.serial_seconds(), 0.0);
}

TEST(ThreadPoolTest, InlineFastPathChargesSerialNotWorker) {
  ThreadPool pool(4);
  RegionCpuMeter meter;
  uint64_t acc = 0;
  // n <= grain runs inline with no scheduler interaction: the time is the
  // owning thread's serial share, not chunk (worker) time.
  pool.ParallelFor(100, 100, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t i = lo; i < hi; ++i) acc += i;
  });
  EXPECT_EQ(acc, 4950u);
  EXPECT_EQ(meter.worker_nanos(), 0u);
}

TEST(ThreadPoolTest, ResizeChangesWorkerCountAndPoolStaysUsable) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.num_threads(), 2u);
  pool.Resize(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(1000, 16, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t i = lo; i < hi; ++i) sum.fetch_add(1);
  });
  EXPECT_EQ(sum.load(), 1000u);
  pool.Resize(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  sum = 0;
  pool.ParallelFor(100, 16, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t i = lo; i < hi; ++i) sum.fetch_add(1);
  });
  EXPECT_EQ(sum.load(), 100u);
}

TEST(ThreadPoolTest, DefaultPoolIsUsable) {
  std::atomic<uint64_t> sum{0};
  ParallelFor(10000, 64, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t i = lo; i < hi; ++i) sum.fetch_add(1);
  });
  EXPECT_EQ(sum.load(), 10000u);
  EXPECT_GE(ThreadPool::Default().num_threads(), 1u);
}

// Blocks are fixed by (n, grain), not by the pool's split: a worker-less pool
// runs the loop as one call, which Fill still hands out block by block. The
// fold then visits elements in index order at any width.
TEST(ChunkBuffersTest, BlocksFollowGrainAndFoldInIndexOrder) {
  constexpr uint64_t kN = 1000;
  constexpr uint64_t kGrain = 7;
  std::vector<uint64_t> expected(kN);
  std::iota(expected.begin(), expected.end(), 0);
  for (unsigned width : {1u, 4u}) {
    ThreadPool::Default().Resize(width);
    ChunkBuffers<std::vector<uint64_t>> buffers(kN, kGrain);
    std::atomic<uint64_t> blocks{0};
    buffers.Fill([&](uint64_t lo, uint64_t hi, std::vector<uint64_t>& out) {
      EXPECT_EQ(lo % kGrain, 0u);
      EXPECT_EQ(hi, std::min(kN, lo + kGrain));
      EXPECT_TRUE(out.empty());
      blocks.fetch_add(1);
      for (uint64_t i = lo; i < hi; ++i) out.push_back(i);
    });
    EXPECT_EQ(blocks.load(), (kN + kGrain - 1) / kGrain) << "width " << width;
    std::vector<uint64_t> seen;
    buffers.ForEachInOrder([&](std::vector<uint64_t>& block) {
      seen.insert(seen.end(), block.begin(), block.end());
    });
    EXPECT_EQ(seen, expected) << "width " << width;
  }
  ThreadPool::Default().Resize(0);
}

// A slot can be any value-initialized type: a struct of a vector and a flag,
// or a scalar floating-point sum. Folding the slots in block order gives the
// same bits at every pool width.
TEST(ChunkBuffersTest, StructAndScalarSlotsFoldInBlockOrder) {
  constexpr uint64_t kN = 5000;
  constexpr uint64_t kGrain = 64;
  struct Slot {
    std::vector<uint64_t> multiples_of_7;
    bool any = false;
  };
  auto term = [](uint64_t i) { return 1.0 / static_cast<double>(i + 1); };
  // The block-order fold, written out serially.
  double expected_sum = 0;
  for (uint64_t lo = 0; lo < kN; lo += kGrain) {
    double block = 0;
    for (uint64_t i = lo; i < std::min(kN, lo + kGrain); ++i) block += term(i);
    expected_sum += block;
  }
  std::vector<uint64_t> expected_multiples;
  for (uint64_t i = 0; i < kN; i += 7) expected_multiples.push_back(i);

  for (unsigned width : {1u, 4u}) {
    ThreadPool::Default().Resize(width);
    ChunkBuffers<Slot> slots(kN, kGrain);
    slots.Fill([](uint64_t lo, uint64_t hi, Slot& out) {
      EXPECT_FALSE(out.any);
      for (uint64_t i = lo; i < hi; ++i) {
        if (i % 7 == 0) out.multiples_of_7.push_back(i);
      }
      out.any = !out.multiples_of_7.empty();
    });
    std::vector<uint64_t> multiples;
    uint64_t blocks_with_any = 0;
    slots.ForEachInOrder([&](Slot& slot) {
      EXPECT_EQ(slot.any, !slot.multiples_of_7.empty());
      blocks_with_any += slot.any ? 1 : 0;
      multiples.insert(multiples.end(), slot.multiples_of_7.begin(),
                       slot.multiples_of_7.end());
    });
    EXPECT_EQ(multiples, expected_multiples) << "width " << width;
    EXPECT_EQ(blocks_with_any, (kN + kGrain - 1) / kGrain) << "width " << width;

    ChunkBuffers<double> sums(kN, kGrain);
    sums.Fill([&](uint64_t lo, uint64_t hi, double& out) {
      EXPECT_EQ(out, 0.0);
      for (uint64_t i = lo; i < hi; ++i) out += term(i);
    });
    double sum = 0;
    sums.ForEachInOrder([&](double block) { sum += block; });
    EXPECT_EQ(std::memcmp(&sum, &expected_sum, sizeof(double)), 0)
        << "width " << width << ": " << sum << " vs " << expected_sum;
  }
  ThreadPool::Default().Resize(0);
}

// Empty ranges have no blocks; a range shorter than one grain is one block;
// the last block of a range that is not a multiple of grain is partial.
TEST(ChunkBuffersTest, EmptyShortAndPartialFinalBlocks) {
  constexpr uint64_t kGrain = 16;
  for (unsigned width : {1u, 4u}) {
    ThreadPool::Default().Resize(width);
    for (uint64_t n : {uint64_t{0}, uint64_t{5}, 3 * kGrain + 2}) {
      SCOPED_TRACE(::testing::Message() << "width " << width << ", n " << n);
      ChunkBuffers<std::vector<std::pair<uint64_t, uint64_t>>> ranges(n,
                                                                       kGrain);
      ranges.Fill([](uint64_t lo, uint64_t hi,
                     std::vector<std::pair<uint64_t, uint64_t>>& out) {
        out.emplace_back(lo, hi);
      });
      std::vector<std::pair<uint64_t, uint64_t>> seen;
      uint64_t slots = 0;
      ranges.ForEachInOrder(
          [&](std::vector<std::pair<uint64_t, uint64_t>>& block) {
            ++slots;
            seen.insert(seen.end(), block.begin(), block.end());
          });
      std::vector<std::pair<uint64_t, uint64_t>> expected;
      for (uint64_t lo = 0; lo < n; lo += kGrain) {
        expected.emplace_back(lo, std::min(n, lo + kGrain));
      }
      EXPECT_EQ(slots, expected.size());
      EXPECT_EQ(seen, expected);
    }
  }
  ThreadPool::Default().Resize(0);
}

}  // namespace
}  // namespace maze
