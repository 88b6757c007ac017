#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace rapids {

ThreadPool::ThreadPool(int workers) : workers_(std::max(workers, 1)) {
  errors_.resize(static_cast<std::size_t>(workers_));
  threads_.reserve(static_cast<std::size_t>(workers_ - 1));
  for (int w = 1; w < workers_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

int ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void ThreadPool::worker_loop(int worker) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    try {
      // Scope the worker identity around the job so log lines and trace
      // events emitted from inside fn() carry the worker index.
      const WorkerIdScope scope(worker);
      (*job)(worker);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      errors_[static_cast<std::size_t>(worker)] = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--remaining_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::run(const std::function<void(int)>& fn) {
  if (workers_ == 1) {
    const WorkerIdScope scope(0);
    fn(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    remaining_ = workers_ - 1;
    std::fill(errors_.begin(), errors_.end(), std::exception_ptr{});
    ++generation_;
  }
  start_cv_.notify_all();
  try {
    const WorkerIdScope scope(0);
    fn(0);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    errors_[0] = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return remaining_ == 0; });
    job_ = nullptr;
  }
  for (const std::exception_ptr& e : errors_) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace rapids
