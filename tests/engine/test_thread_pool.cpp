#include "engine/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <latch>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace oscs::engine {
namespace {

TEST(ThreadPool, RunsEverySubmittedJob) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, WaitIdleIsReusableBetweenWaves) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int wave = 1; wave <= 3; ++wave) {
    for (int i = 0; i < 10; ++i) pool.submit([&counter] { ++counter; });
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 10 * wave);
  }
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // nothing submitted: must not deadlock
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPool, FirstWorkerExceptionIsRethrownAndPoolSurvives) {
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.submit([] { throw std::runtime_error("job failed"); });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The error slot is cleared and the workers keep serving jobs.
  std::atomic<int> counter{0};
  pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, WorkersCanSubmitFollowUpJobs) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&pool, &counter] {
    ++counter;
    pool.submit([&counter] { ++counter; });
  });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, ZeroTasksAcrossRepeatedWaitsAndManyWorkers) {
  // A pool that never receives work must be safely waitable any number of
  // times and destructible with idle workers outnumbering the CPU count.
  ThreadPool pool(32);
  for (int i = 0; i < 5; ++i) {
    pool.wait_idle();
    EXPECT_EQ(pool.pending(), 0u);
  }
}

TEST(ThreadPool, TaskThrowPropagatesTheExactErrorMessage) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task exploded"); });
  try {
    pool.wait_idle();
    FAIL() << "expected wait_idle to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task exploded");
  }
  // A second wait after the rethrow reports no stale error.
  pool.wait_idle();
}

TEST(ThreadPool, PoolReuseAfterExceptionRunsFullWavesAgain) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  // Wave 1: a mix of throwing and counting jobs.
  for (int i = 0; i < 20; ++i) {
    if (i % 4 == 0) {
      pool.submit([] { throw std::logic_error("poisoned job"); });
    } else {
      pool.submit([&counter] { ++counter; });
    }
  }
  EXPECT_THROW(pool.wait_idle(), std::logic_error);
  // Every non-throwing job still ran: the error does not cancel the queue.
  EXPECT_EQ(counter.load(), 15);
  // Waves 2..4: the pool keeps full throughput after the exception.
  for (int wave = 0; wave < 3; ++wave) {
    counter = 0;
    for (int i = 0; i < 100; ++i) pool.submit([&counter] { ++counter; });
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 100);
  }
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPool, NonStdExceptionIsRethrownToo) {
  ThreadPool pool(1);
  pool.submit([] { throw 42; });  // NOLINT: deliberate non-std throw
  EXPECT_THROW(pool.wait_idle(), int);
  std::atomic<int> counter{0};
  pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, RunRangeRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 777;
  std::vector<std::atomic<int>> hits(kCount);
  pool.run_range(kCount, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  // run_range is a fork-join: every index has finished on return.
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  pool.wait_idle();
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPool, RunRangeZeroCountIsANoOp) {
  ThreadPool pool(2);
  pool.run_range(0, [](std::size_t) { FAIL() << "must never run"; });
  pool.wait_idle();
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPool, RunRangeExceptionPropagatesAndRestRuns) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.run_range(16,
                              [&ran](std::size_t i) {
                                if (i == 3) {
                                  throw std::runtime_error("slab 3 failed");
                                }
                                ++ran;
                              }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 15);  // the error does not cancel the other indices
  // Pool stays usable, and the range error never reaches wait_idle.
  pool.run_range(4, [&ran](std::size_t) { ++ran; });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 19);
}

TEST(ThreadPool, RunRangeMixesWithSingleSubmits) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  pool.submit([&counter] { ++counter; });
  pool.run_range(10, [&counter](std::size_t) { ++counter; });
  pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 12);
}

TEST(ThreadPool, RunRangeSingleIndexRunsOnTheCallingThread) {
  ThreadPool pool(2);
  std::thread::id ran_on;
  pool.run_range(1, [&ran_on](std::size_t) {
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  // A single index is a plain call: an exception comes straight back.
  EXPECT_THROW(pool.run_range(1,
                              [](std::size_t) {
                                throw std::runtime_error("inline failure");
                              }),
               std::runtime_error);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPool, RunRangeWakesAtMostCountMinusOneWorkers) {
  // Every index sleeps, so idle helpers get every chance to join in; the
  // distinct worker threads that ran an index can still never exceed the
  // helpers queued, min(count - 1, size()).
  const auto workers_used = [](ThreadPool& pool, std::size_t count) {
    const std::thread::id caller = std::this_thread::get_id();
    std::mutex mutex;
    std::vector<std::thread::id> seen;
    pool.run_range(count, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      const std::thread::id self = std::this_thread::get_id();
      std::lock_guard<std::mutex> lock(mutex);
      if (self != caller &&
          std::find(seen.begin(), seen.end(), self) == seen.end()) {
        seen.push_back(self);
      }
    });
    return seen.size();
  };
  ThreadPool pool(4);
  EXPECT_LE(workers_used(pool, 2), 1u);
  EXPECT_LE(workers_used(pool, 3), 2u);
  EXPECT_LE(workers_used(pool, 40), 4u);
  ThreadPool small(2);
  EXPECT_LE(workers_used(small, 10), 2u);
  pool.wait_idle();
  small.wait_idle();
  EXPECT_EQ(pool.pending(), 0u);
  EXPECT_EQ(small.pending(), 0u);
}

TEST(ThreadPool, NestedRunRangeOnOneWorkerPoolCompletes) {
  // The only worker issues a run_range on its own pool: no other thread
  // can dequeue the helpers, so the caller must drain the range itself
  // and withdraw them instead of waiting.
  ThreadPool pool(1);
  std::atomic<int> inner{0};
  pool.submit([&pool, &inner] {
    pool.run_range(5, [&inner](std::size_t) { ++inner; });
  });
  pool.wait_idle();
  EXPECT_EQ(inner.load(), 5);
  // The same from inside a run_range index the worker picked up.
  std::atomic<int> nested{0};
  pool.run_range(3, [&pool, &nested](std::size_t) {
    pool.run_range(4, [&nested](std::size_t) { ++nested; });
  });
  EXPECT_EQ(nested.load(), 12);
  pool.wait_idle();
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPool, ConcurrentRunRangeCallersShareOnePool) {
  // External threads fork-join on one pool at once, as a server's
  // concurrent requests do. Each call must return only after its own
  // indices finished, run each exactly once, and an exception must reach
  // only the call whose index threw. Tallies are per caller, checked
  // after the join.
  constexpr std::size_t kCallers = 6;
  constexpr std::size_t kCount = 64;
  constexpr int kRounds = 100;
  constexpr std::size_t kThrowingIndex = 17;
  ThreadPool pool(2);
  std::latch start(kCallers);
  std::vector<int> wrong_counts(kCallers, 0);
  std::vector<int> wrong_errors(kCallers, 0);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      start.arrive_and_wait();
      for (int round = 0; round < kRounds; ++round) {
        // Caller 0 throws from one index on every other round.
        const bool throws = c == 0 && round % 2 == 0;
        const std::string message = "caller 0 round " + std::to_string(round);
        std::array<std::atomic<int>, kCount> finished{};
        bool threw = false;
        try {
          pool.run_range(kCount, [&](std::size_t i) {
            if (throws && i == kThrowingIndex) {
              throw std::runtime_error(message);
            }
            // A late finisher: an early return would miss its count.
            if (i % 16 == 5) {
              std::this_thread::sleep_for(std::chrono::microseconds(20));
            }
            finished[i].fetch_add(1);
          });
        } catch (const std::runtime_error& e) {
          threw = true;
          if (!throws || e.what() != message) ++wrong_errors[c];
        } catch (...) {
          threw = true;
          ++wrong_errors[c];
        }
        if (throws != threw) ++wrong_errors[c];
        for (std::size_t i = 0; i < kCount; ++i) {
          const int expected = throws && i == kThrowingIndex ? 0 : 1;
          if (finished[i].load() != expected) ++wrong_counts[c];
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(wrong_counts[c], 0) << "caller " << c;
    EXPECT_EQ(wrong_errors[c], 0) << "caller " << c;
  }
  pool.wait_idle();
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPool, QueueWaitHistogramReconcilesWithTaskCounter) {
  // Every job - range index or single - must record exactly one
  // queue-wait sample and one task count, so the two series stay
  // reconcilable (their difference is the jobs currently executing, zero
  // at idle).
  auto& registry = obs::Registry::global();
  const auto* tasks =
      registry.find_counter("oscs_engine_pool_tasks_total");
  const auto* waits =
      registry.find_histogram("oscs_engine_pool_task_wait_us");
  const auto* depth = registry.find_gauge("oscs_engine_pool_queue_depth");
  ThreadPool pool(3);
  // Metrics are process-global and lazily registered; prime them.
  pool.submit([] {});
  pool.wait_idle();
  if (!tasks) tasks = registry.find_counter("oscs_engine_pool_tasks_total");
  if (!waits) {
    waits = registry.find_histogram("oscs_engine_pool_task_wait_us");
  }
  if (!depth) depth = registry.find_gauge("oscs_engine_pool_queue_depth");
  ASSERT_NE(tasks, nullptr);
  ASSERT_NE(waits, nullptr);
  ASSERT_NE(depth, nullptr);

  const std::uint64_t tasks0 = tasks->value();
  const std::uint64_t waits0 = waits->snapshot().count();
  constexpr std::size_t kRange = 250;
  std::atomic<int> counter{0};
  pool.run_range(kRange, [&counter](std::size_t) { ++counter; });
  for (int i = 0; i < 7; ++i) pool.submit([&counter] { ++counter; });
  pool.wait_idle();

  EXPECT_EQ(counter.load(), static_cast<int>(kRange) + 7);
  EXPECT_EQ(tasks->value() - tasks0, kRange + 7);
  EXPECT_EQ(waits->snapshot().count() - waits0, kRange + 7);
  EXPECT_EQ(depth->value(), 0);  // queued-or-executing drains to zero
}

TEST(ThreadPool, DestructorDrainsPendingJobs) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++counter;
      });
    }
  }  // destructor joins after the queue drains
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace oscs::engine
