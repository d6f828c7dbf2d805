#ifndef ECRINT_COMMON_THREAD_POOL_H_
#define ECRINT_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ecrint::common {

// A fixed-size pool of worker threads with a single shared task queue (no
// work stealing; the units of work submitted here are coarse chunks, so a
// simple queue is contention-free enough). Used by the assertion store's
// clustered batch path to close independent constraint clusters at once.
//
// ParallelFor is the only entry point: it splits [begin, end) into chunks
// of at most `grain` indices and blocks until every chunk ran. Work is
// executed inline on the calling thread when the pool has no workers or the
// range fits in a single chunk, so small inputs take the exact same code
// path (and produce bit-identical results) as a single-threaded build.
// The caller runs chunks of its own batch while it waits, so a ParallelFor
// issued from inside a pool worker (nested) always finishes, even when
// every worker is blocked in one.
class ThreadPool {
 public:
  // Spawns `num_threads` workers; values < 1 are clamped to 1. A pool of
  // size 1 still spawns its single worker, but ParallelFor runs inline.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  // Runs fn(chunk_begin, chunk_end) for consecutive chunks covering
  // [begin, end), each at most `grain` wide. Blocks until all chunks
  // completed. If any chunk throws, the first exception (in chunk order) is
  // rethrown on the calling thread after every chunk has finished. An empty
  // range is a no-op.
  void ParallelFor(int begin, int end, int grain,
                   const std::function<void(int, int)>& fn);

  // Process-wide pool sized to the hardware concurrency. Lazily constructed
  // on first use and kept alive for the process lifetime.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  // Enqueues one task for any worker; returns immediately. Tasks posted
  // after the destructor started are never executed; the destructor drains
  // tasks already queued.
  void Post(std::function<void()> task);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
};

}  // namespace ecrint::common

#endif  // ECRINT_COMMON_THREAD_POOL_H_
