#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>

namespace seg {

ThreadPool::ThreadPool(std::size_t threads,
                       const std::string& telemetry_label) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
#if !defined(SEG_TELEMETRY_DISABLED)
  if (!telemetry_label.empty()) {
    obs::Registry& registry = obs::Registry::instance();
    const std::string prefix = "pool." + telemetry_label;
    tasks_id_ = registry.counter(prefix + ".tasks");
    busy_ids_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      busy_ids_.push_back(registry.counter(
          prefix + ".worker." + std::to_string(i) + ".busy_us"));
    }
  }
#else
  (void)telemetry_label;
#endif
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
  }
  task_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return tasks_.empty() && in_flight_ == 0; });
}

// Runs one task, charging its wall time to the worker's busy counter
// when the pool is labeled and telemetry is runtime-enabled. Tasks here
// are coarse (whole replicas, shard sweep quanta), so the two clock
// reads are noise next to the work they bracket.
void ThreadPool::run_task(std::size_t worker, std::function<void()>& task) {
#if !defined(SEG_TELEMETRY_DISABLED)
  if (!busy_ids_.empty() && obs::enabled()) {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    task();
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        Clock::now() - start)
                        .count();
    obs::Registry& registry = obs::Registry::instance();
    registry.add(busy_ids_[worker], static_cast<std::uint64_t>(us));
    registry.add(tasks_id_, 1);
    return;
  }
#endif
  (void)worker;
  task();
}

void ThreadPool::worker_loop(std::size_t worker) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      ++in_flight_;
    }
    run_task(worker, task);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (tasks_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = 0; i < count; ++i) {
    pool.submit([i, &fn] { fn(i); });
  }
  pool.wait_idle();
}

ThreadTeam::ThreadTeam(std::size_t width, std::size_t count)
    : count_(count),
      width_(std::clamp<std::size_t>(width, 1,
                                     std::max<std::size_t>(count, 1))) {
  helpers_.reserve(width_ - 1);
  for (std::size_t j = 1; j < width_; ++j) {
    helpers_.emplace_back([this, j] { helper_loop(j); });
  }
}

ThreadTeam::~ThreadTeam() {
  stop_.store(true, std::memory_order_relaxed);
  round_.fetch_add(1, std::memory_order_release);
  round_.notify_all();
  for (auto& h : helpers_) h.join();
}

void ThreadTeam::run(const std::function<void(std::size_t)>& fn) {
  fn_ = &fn;
  pending_.store(helpers_.size(), std::memory_order_relaxed);
  round_.fetch_add(1, std::memory_order_release);
  round_.notify_all();
  run_share(0);
  for (std::size_t left = pending_.load(std::memory_order_acquire);
       left != 0; left = pending_.load(std::memory_order_acquire)) {
    pending_.wait(left, std::memory_order_acquire);
  }
  fn_ = nullptr;
}

void ThreadTeam::run_share(std::size_t j) {
  for (std::size_t i = j; i < count_; i += width_) (*fn_)(i);
}

// The caller waits for every helper before it starts the next round, so
// a helper never misses one: at worst it finds the counter already moved
// and starts at once.
void ThreadTeam::helper_loop(std::size_t j) {
  std::uint64_t seen = 0;
  for (;;) {
    round_.wait(seen, std::memory_order_acquire);
    seen = round_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_relaxed)) return;
    run_share(j);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
  }
}

}  // namespace seg
