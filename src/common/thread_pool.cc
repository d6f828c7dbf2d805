#include "common/thread_pool.h"

#include <algorithm>
#include <exception>
#include <memory>

namespace ecrint::common {

ThreadPool::ThreadPool(int num_threads) {
  int n = std::max(1, num_threads);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::ParallelFor(int begin, int end, int grain,
                             const std::function<void(int, int)>& fn) {
  if (begin >= end) return;
  grain = std::max(1, grain);
  int chunks = (end - begin + grain - 1) / grain;
  if (chunks == 1 || size() <= 1) {
    fn(begin, end);
    return;
  }

  // Chunks are claimed from one counter by whoever gets there first: the
  // posted helpers and the caller itself. The caller therefore never waits
  // on a chunk that is still queued, only on chunks another thread is
  // running, which is what keeps a nested ParallelFor from deadlocking when
  // every worker is blocked in one. A helper that runs after the batch
  // finished claims nothing and never touches `fn`; it only holds the
  // shared batch state alive.
  struct Batch {
    std::mutex mutex;
    std::condition_variable done;
    int next = 0;       // next unclaimed chunk
    int remaining = 0;  // chunks not yet finished
    std::vector<std::exception_ptr> errors;
  };
  auto batch = std::make_shared<Batch>();
  batch->remaining = chunks;
  batch->errors.resize(chunks);
  // Runs chunks until none is left to claim. The first exception in chunk
  // order wins, so a failing ParallelFor reports deterministically.
  auto run_chunks = [begin, end, grain, chunks, &fn](Batch& b) {
    for (;;) {
      int c;
      {
        std::lock_guard<std::mutex> lock(b.mutex);
        if (b.next == chunks) return;
        c = b.next++;
      }
      int chunk_begin = begin + c * grain;
      try {
        fn(chunk_begin, std::min(end, chunk_begin + grain));
      } catch (...) {
        b.errors[c] = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(b.mutex);
      if (--b.remaining == 0) b.done.notify_all();
    }
  };

  int helpers = std::min(chunks - 1, size());
  for (int h = 0; h < helpers; ++h) {
    Post([batch, run_chunks] { run_chunks(*batch); });
  }
  run_chunks(*batch);
  {
    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->done.wait(lock, [&] { return batch->remaining == 0; });
  }
  for (std::exception_ptr& error : batch->errors) {
    if (error) std::rethrow_exception(error);
  }
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool(
      static_cast<int>(std::thread::hardware_concurrency()));
  return *pool;
}

}  // namespace ecrint::common
