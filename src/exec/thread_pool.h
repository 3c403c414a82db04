// Execution primitives for the parallel scan layer (and every future
// scaling subsystem: sharding, cache warming).
//
//   ThreadPool — a fixed set of worker threads draining a FIFO task
//     queue. Construction spawns the workers; destruction drains
//     nothing: pending tasks still run, then workers join.
//   TaskGroup  — a fork/join scope over a pool: Submit() fans
//     Status-returning tasks out (bounded by max_in_flight for
//     prefetch-window control), Wait() joins and reports the first
//     failure in submission order, which keeps error reporting
//     deterministic regardless of scheduling.
//
// A TaskGroup over a null pool (or a pool with zero workers) runs
// every task inline on the submitting thread — the serial fallback the
// determinism tests compare against.

#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace bullion {

/// \brief Fixed-size worker pool with a FIFO task queue.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 is allowed: Schedule then runs
  /// tasks inline).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues `fn` for execution by a worker (inline if the pool has
  /// no workers). Never blocks.
  void Schedule(std::function<void()> fn);

  /// std::thread::hardware_concurrency() with a floor of 1.
  static size_t DefaultThreadCount();

 private:
  /// A queued task remembers when it was enqueued so the worker that
  /// dequeues it can report scheduling delay (bullion.exec.queue_wait_ns)
  /// separately from execution time (bullion.exec.task_run_ns).
  struct QueuedTask {
    std::function<void()> fn;
    uint64_t enqueue_ns = 0;
  };

  void WorkerLoop();
  void RunTask(QueuedTask task);

  Mutex mu_;
  CondVar cv_;
  std::deque<QueuedTask> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  /// Written only during construction, joined in the destructor; read
  /// concurrently via num_threads() — safe without mu_.
  std::vector<std::thread> workers_;
};

/// \brief Fork/join scope for a batch of Status-returning tasks.
class TaskGroup {
 public:
  /// Tasks run on `pool` (inline when pool is null or has no workers).
  /// `max_in_flight` bounds submitted-but-unfinished tasks; Submit()
  /// blocks while the window is full. 0 means unbounded.
  explicit TaskGroup(ThreadPool* pool, size_t max_in_flight = 0);

  /// Waits for all outstanding tasks.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Fans out one task. May block to respect max_in_flight.
  void Submit(std::function<Status()> task);

  /// Joins every submitted task; returns OK if all succeeded, else the
  /// failing status with the smallest submission index.
  Status Wait();

 private:
  void Run(size_t index, const std::function<Status()>& task);

  ThreadPool* pool_;
  size_t max_in_flight_;
  Mutex mu_;
  CondVar cv_;
  size_t in_flight_ GUARDED_BY(mu_) = 0;
  size_t next_index_ GUARDED_BY(mu_) = 0;
  bool has_error_ GUARDED_BY(mu_) = false;
  size_t first_error_index_ GUARDED_BY(mu_) = 0;
  Status first_error_ GUARDED_BY(mu_);
};

}  // namespace bullion
