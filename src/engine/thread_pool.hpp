#pragma once
/// \file thread_pool.hpp
/// \brief Fixed-size thread pool with a FIFO work queue - the execution
///        substrate of the batch evaluation engine. Deliberately minimal:
///        submit fire-and-forget jobs and wait_idle() for a barrier, or
///        run_range() a blocking fork-join over an index range in which
///        the calling thread computes too. Determinism of batch results is
///        achieved above the pool (each task derives its own seeds and
///        writes its own output slot), so the pool needs no ordering
///        guarantees beyond running every index exactly once.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace oscs::engine {

/// Fixed pool of worker threads consuming a shared FIFO queue.
class ThreadPool {
 public:
  /// \param threads worker count; 0 picks std::thread::hardware_concurrency
  ///        (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains the queue (pending jobs still run), then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue one job. Thread-safe; may be called from worker threads.
  void submit(std::function<void()> job);

  /// Caller-runs fork-join: run fn(0), ..., fn(count-1) and return once
  /// every index has finished. `fn` is borrowed for the call, not copied.
  ///
  ///   * count == 1 runs fn(0) on the calling thread: no lock, no queue
  ///     entry, no wake-up.
  ///   * count > 1 queues min(count - 1, size()) helper jobs, waking each
  ///     with notify_one; the caller and the helpers claim indices from
  ///     one shared counter. Once the caller has drained the counter it
  ///     withdraws the helpers still queued, so a run_range issued from
  ///     inside a job of the same pool completes, even on a one-worker
  ///     pool.
  ///
  /// Every index runs exactly once and counts as one job in the pool
  /// metrics, its queue wait measured from run_range entry to the index's
  /// start. If any index threw, the first exception is rethrown after all
  /// indices have run. Thread-safe; may be called from worker threads.
  template <typename Fn>
  void run_range(std::size_t count, const Fn& fn) {
    run_body(count, RangeBody{&fn, [](const void* body, std::size_t i) {
                               (*static_cast<const Fn*>(body))(i);
                             }});
  }

  /// Block until every submitted job has finished. If any job threw, the
  /// first captured exception is rethrown here (subsequent ones are
  /// dropped); the pool stays usable afterwards.
  void wait_idle();

  /// Jobs submitted but not yet finished (racy snapshot, for diagnostics).
  [[nodiscard]] std::size_t pending() const;

 private:
  /// Non-owning, type-erased reference to a run_range body.
  struct RangeBody {
    const void* fn;
    void (*call)(const void* fn, std::size_t index);
  };

  /// One run_range call's shared state. Helper jobs own it through a
  /// shared_ptr, so a helper that dequeues after the caller has returned
  /// still finds a drained counter rather than freed memory.
  struct RangeState {
    RangeBody body;
    std::size_t count = 0;
    std::chrono::steady_clock::time_point start;
    std::atomic<std::size_t> next{0};      ///< next index to claim
    std::atomic<std::size_t> finished{0};  ///< indices completed
    std::mutex mutex;  ///< guards `done` and `error`
    bool done = false;  ///< every index has finished
    std::exception_ptr error;  ///< first exception an index threw
    std::condition_variable done_cv;
  };

  /// Queued job plus its enqueue timestamp, so dequeue can export the
  /// queue-wait distribution (obs histogram) per job. run_range helpers
  /// leave `fn` empty and carry their call's state instead.
  struct Job {
    std::function<void()> fn;
    std::shared_ptr<RangeState> range;
    std::chrono::steady_clock::time_point enqueued;
  };

  void run_body(std::size_t count, RangeBody body);
  /// Run one index with its per-job metrics (queue wait measured from
  /// `start`); returns what it threw, if anything.
  static std::exception_ptr run_index(
      const RangeBody& body, std::size_t index,
      std::chrono::steady_clock::time_point start);
  /// Claim and run indices of `state` until its counter is drained.
  static void drain(RangeState& state);
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< signals workers: job or stop
  std::condition_variable idle_cv_;   ///< signals waiters: all drained
  std::deque<Job> queue_;
  std::vector<std::thread> workers_;
  std::size_t in_flight_ = 0;  ///< jobs queued or currently executing
  std::exception_ptr first_error_;
  bool stop_ = false;
};

}  // namespace oscs::engine
