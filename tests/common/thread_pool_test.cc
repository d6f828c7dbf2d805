#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace ecrint::common {
namespace {

TEST(ThreadPoolTest, SizeIsClampedToAtLeastOne) {
  ThreadPool zero(0);
  EXPECT_EQ(zero.size(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.size(), 1);
  ThreadPool two(2);
  EXPECT_EQ(two.size(), 2);
}

TEST(ThreadPoolTest, EmptyRangeIsNoOp) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, 1, [&](int, int) { ++calls; });
  pool.ParallelFor(7, 3, 1, [&](int, int) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, ChunksCoverRangeExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kBegin = 3;
  constexpr int kEnd = 145;
  std::vector<std::atomic<int>> seen(kEnd);
  pool.ParallelFor(kBegin, kEnd, 7, [&](int begin, int end) {
    ASSERT_LT(begin, end);
    ASSERT_LE(end - begin, 7);
    for (int i = begin; i < end; ++i) seen[i]++;
  });
  for (int i = 0; i < kBegin; ++i) EXPECT_EQ(seen[i].load(), 0);
  for (int i = kBegin; i < kEnd; ++i) EXPECT_EQ(seen[i].load(), 1) << i;
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  ASSERT_EQ(pool.size(), 1);
  std::thread::id caller = std::this_thread::get_id();
  std::vector<int> sums;
  std::mutex mu;
  pool.ParallelFor(0, 100, 10, [&](int begin, int end) {
    // With one worker, ParallelFor must stay on the calling thread — that is
    // the determinism guarantee the resemblance fallback path relies on.
    EXPECT_EQ(std::this_thread::get_id(), caller);
    int sum = 0;
    for (int i = begin; i < end; ++i) sum += i;
    std::lock_guard<std::mutex> lock(mu);
    sums.push_back(sum);
  });
  EXPECT_EQ(std::accumulate(sums.begin(), sums.end(), 0), 99 * 100 / 2);
}

TEST(ThreadPoolTest, SingleChunkRunsInline) {
  ThreadPool pool(4);
  std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  pool.ParallelFor(0, 5, 100, [&](int begin, int end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 5);
    ++calls;  // safe: inline path, no concurrency
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, FirstExceptionInChunkOrderIsRethrown) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.ParallelFor(0, 64, 4, [&](int begin, int) {
      if (begin == 12) throw std::runtime_error("chunk 12");
      if (begin == 40) throw std::out_of_range("chunk 40");
      ++completed;
    });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    // Chunk order, not completion order: the runtime_error from the chunk
    // starting at 12 must win over the out_of_range from 40.
    EXPECT_STREQ(e.what(), "chunk 12");
  }
  // Every non-throwing chunk still ran to completion before the rethrow.
  EXPECT_EQ(completed.load(), 64 / 4 - 2);
}

TEST(ThreadPoolTest, PoolIsReusableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.ParallelFor(0, 8, 1,
                       [](int, int) { throw std::runtime_error("boom"); }),
      std::runtime_error);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 8, 1, [&](int, int) { ++calls; });
  EXPECT_EQ(calls.load(), 8);
}

// A ParallelFor issued from inside a chunk, with every worker of the pool
// blocked in one at the same time: only the waiting callers can run the
// inner chunks, so they must. A regression hangs here, and the ctest
// TIMEOUT on common_test turns the hang into a failure.
TEST(ThreadPoolTest, NestedParallelForFinishesAtFullPoolWidth) {
  for (int width : {2, 4}) {
    ThreadPool pool(width);
    for (int round = 0; round < 20; ++round) {
      std::atomic<int> started{0};
      std::vector<std::atomic<int>> hits(static_cast<size_t>(width) * 4);
      pool.ParallelFor(0, width, 1, [&](int outer, int) {
        ++started;
        // Hold each outer chunk until all have started, so every thread
        // nests at once; bounded, so a slow wake-up alone cannot hang.
        auto until =
            std::chrono::steady_clock::now() + std::chrono::seconds(2);
        while (started.load() < width &&
               std::chrono::steady_clock::now() < until) {
          std::this_thread::yield();
        }
        pool.ParallelFor(0, 4, 1, [&](int inner, int) {
          ++hits[static_cast<size_t>(outer) * 4 + inner];
        });
      });
      for (size_t i = 0; i < hits.size(); ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "width " << width << ", cell " << i;
      }
    }
  }
}

TEST(ThreadPoolTest, SharedPoolIsSingletonAndUsable) {
  ThreadPool& a = ThreadPool::Shared();
  ThreadPool& b = ThreadPool::Shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1);
  std::atomic<long> sum{0};
  a.ParallelFor(1, 1001, 37, [&](int begin, int end) {
    long local = 0;
    for (int i = begin; i < end; ++i) local += i;
    sum += local;
  });
  EXPECT_EQ(sum.load(), 1000L * 1001 / 2);
}

}  // namespace
}  // namespace ecrint::common
