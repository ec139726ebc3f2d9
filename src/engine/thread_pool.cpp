#include "engine/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"

namespace oscs::engine {

namespace {

// Pool metrics live in the global registry (one series aggregated across
// every pool instance - a server's engine pool, certification's temporary
// pools, bench pools - since the scrape cares about the process-wide
// queue behavior). The references are resolved once; the hot path is
// pure relaxed atomics.

obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& gauge = obs::Registry::global().gauge(
      "oscs_engine_pool_queue_depth",
      "jobs queued or executing across all thread pools");
  return gauge;
}

obs::Counter& tasks_counter() {
  static obs::Counter& counter = obs::Registry::global().counter(
      "oscs_engine_pool_tasks_total",
      "jobs executed across all thread pools");
  return counter;
}

obs::Histogram& wait_histogram() {
  static obs::Histogram& histogram = obs::Registry::global().histogram(
      "oscs_engine_pool_task_wait_us",
      "queue wait per job: submit (run_range entry) to start [microseconds]",
      {},
      obs::Histogram::latency_us());
  return histogram;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(
        {std::move(job), nullptr, std::chrono::steady_clock::now()});
    ++in_flight_;
  }
  queue_depth_gauge().add(1);
  work_cv_.notify_one();
}

void ThreadPool::run_body(std::size_t count, RangeBody body) {
  if (count == 0) return;
  const auto start = std::chrono::steady_clock::now();
  queue_depth_gauge().add(static_cast<std::int64_t>(count));
  if (count == 1) {
    if (std::exception_ptr error = run_index(body, 0, start)) {
      std::rethrow_exception(error);
    }
    return;
  }

  auto state = std::make_shared<RangeState>();
  state->body = body;
  state->count = count;
  state->start = start;
  const std::size_t helpers = std::min(count - 1, size());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t h = 0; h < helpers; ++h) {
      queue_.push_back({{}, state, start});
    }
    in_flight_ += helpers;
  }
  for (std::size_t h = 0; h < helpers; ++h) work_cv_.notify_one();

  drain(*state);

  // Nothing is left to claim: helpers no worker has dequeued yet would
  // only find a drained counter, and on a pool whose workers are all busy
  // (a nested call) they would never be dequeued before we return.
  bool idle = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto withdrawn = std::remove_if(
        queue_.begin(), queue_.end(),
        [&state](const Job& job) { return job.range == state; });
    const auto n = static_cast<std::size_t>(queue_.end() - withdrawn);
    queue_.erase(withdrawn, queue_.end());
    in_flight_ -= n;
    idle = n > 0 && in_flight_ == 0;
  }
  if (idle) idle_cv_.notify_all();

  // Indices helpers claimed may still be running. The error moves out of
  // the shared state (as wait_idle() takes first_error_), so this thread
  // releases the exception after its handler ran, not a helper dropping
  // the last state reference: that order is safe too, but it rests on
  // reference counts inside the C++ runtime the thread sanitizer cannot
  // see.
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->done_cv.wait(lock, [&state] { return state->done; });
    error = std::move(state->error);
  }
  if (error) std::rethrow_exception(error);
}

std::exception_ptr ThreadPool::run_index(
    const RangeBody& body, std::size_t index,
    std::chrono::steady_clock::time_point start) {
  wait_histogram().record(std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - start)
                              .count());
  std::exception_ptr error;
  try {
    body.call(body.fn, index);
  } catch (...) {
    error = std::current_exception();
  }
  tasks_counter().inc();
  queue_depth_gauge().add(-1);
  return error;
}

void ThreadPool::drain(RangeState& state) {
  for (std::size_t i = state.next++; i < state.count; i = state.next++) {
    if (std::exception_ptr error = run_index(state.body, i, state.start)) {
      std::lock_guard<std::mutex> lock(state.mutex);
      if (!state.error) state.error = std::move(error);
    }
    if (++state.finished == state.count) {
      {
        std::lock_guard<std::mutex> lock(state.mutex);
        state.done = true;
      }
      state.done_cv.notify_all();
    }
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr err = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

std::size_t ThreadPool::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

void ThreadPool::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    if (job.range) {
      // A run_range helper: its indices carry their own metrics and
      // errors, which go back to the run_range caller.
      drain(*job.range);
    } else {
      wait_histogram().record(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - job.enqueued)
              .count());
      try {
        job.fn();
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      tasks_counter().inc();
      queue_depth_gauge().add(-1);
    }
    bool idle;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      idle = --in_flight_ == 0;
    }
    if (idle) idle_cv_.notify_all();
  }
}

}  // namespace oscs::engine
