#include "src/util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace fmoe {

ThreadPool::ThreadPool(int threads) {
  const int count = std::max(threads, 1);
  workers_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

int ThreadPool::HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // Shutdown with a drained queue.
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) {
        idle_.notify_all();
      }
    }
  }
}

void ParallelForIndex(size_t count, int threads, const std::function<void(size_t)>& fn) {
  if (threads <= 1 || count <= 1) {
    for (size_t i = 0; i < count; ++i) {
      fn(i);
    }
    return;
  }
  // Dynamic index claiming: workers pull the next unclaimed index, so uneven task costs
  // (one model's runs dominating a cross-product) still load-balance.
  ThreadPool pool(std::min<int>(threads, static_cast<int>(count)));
  std::atomic<size_t> next{0};
  for (int t = 0; t < pool.thread_count(); ++t) {
    pool.Submit([&] {
      for (;;) {
        const size_t index = next.fetch_add(1, std::memory_order_relaxed);
        if (index >= count) {
          return;
        }
        fn(index);
      }
    });
  }
  pool.Wait();
}

}  // namespace fmoe
