#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
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
    ChunkBuffers<uint64_t> buffers(kN, kGrain);
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
    buffers.ForEachInOrder([&](uint64_t x) { seen.push_back(x); });
    EXPECT_EQ(seen, expected) << "width " << width;
  }
  ThreadPool::Default().Resize(0);
}

}  // namespace
}  // namespace maze
