// Small fixed-size thread pool used to parallelize independent Monte-Carlo
// trials. Each trial derives its own RNG stream from the experiment seed,
// so results are identical regardless of the number of workers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry.h"

namespace seg {

class ThreadPool {
 public:
  // threads == 0 selects std::thread::hardware_concurrency() (min 1).
  //
  // A non-empty `telemetry_label` registers per-worker busy-time
  // counters "pool.<label>.worker.<i>.busy_us" and a task counter
  // "pool.<label>.tasks" in the telemetry registry; workers then time
  // each task while telemetry is runtime-enabled (two clock reads per
  // task — the pools run coarse tasks, replicas and shard sweeps). The
  // progress reporter turns the busy counters into per-worker
  // utilization. An empty label keeps the pool entirely uninstrumented.
  explicit ThreadPool(std::size_t threads = 0,
                      const std::string& telemetry_label = "");
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Tasks must not throw.
  void submit(std::function<void()> task);

  // Blocks until every submitted task has finished.
  void wait_idle();

  std::size_t thread_count() const { return workers_.size(); }

 private:
  void worker_loop(std::size_t worker);
  void run_task(std::size_t worker, std::function<void()>& task);

  std::vector<std::thread> workers_;
  // Parallel to workers_ when a telemetry label was given; empty
  // otherwise (the task loop then skips the timing entirely).
  std::vector<obs::MetricId> busy_ids_;
  obs::MetricId tasks_id_{};
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_cv_;
  std::condition_variable idle_cv_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

// Runs fn(i) for i in [0, count) across the pool's workers and waits for
// completion. fn must be safe to call concurrently for distinct i.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

// A fixed team for repeated rounds of `count` equal tasks (one per shard):
// the calling thread plus `width - 1` helpers, where thread j always runs
// indices j, j + width, j + 2 width, ... A round therefore costs the
// slowest thread's fixed share. A shared queue (parallel_for) lets the
// first worker to wake take a second task while another worker is still
// waking, which doubles that round at random.
class ThreadTeam {
 public:
  // width is clamped to [1, count].
  ThreadTeam(std::size_t width, std::size_t count);
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  // Runs fn(i) for i in [0, count) and returns when every call has
  // finished. fn must be safe to call concurrently for distinct i.
  void run(const std::function<void(std::size_t)>& fn);

  std::size_t width() const { return width_; }

 private:
  void helper_loop(std::size_t j);
  void run_share(std::size_t j);

  const std::size_t count_;
  const std::size_t width_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::atomic<std::uint64_t> round_{0};  // bumped to start a round
  std::atomic<std::size_t> pending_{0};  // helpers still in the round
  std::atomic<bool> stop_{false};
  std::vector<std::thread> helpers_;
};

}  // namespace seg
