/// \file test_alloc_budget.cpp
/// \brief Heap-allocation budget of warm packed evaluations. The run
///        paths fill stimulus into per-thread scratch rows and count
///        decisions in place, so once a thread is warm an evaluation
///        makes no heap allocation at all, and a batch allocates per
///        request and per slab, never per task.
///
/// This binary replaces the global operator new to count allocations,
/// which is why it lives in a test directory of its own: the replacement
/// stays confined to this one executable.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/batch.hpp"
#include "engine/packed_sim.hpp"
#include "engine/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "optsc/defaults.hpp"
#include "stochastic/bernstein.hpp"
#include "stochastic/separable.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(size);
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}

void* counted_alloc_or_throw(std::size_t size, std::size_t align) {
  if (void* p = counted_alloc(size, align)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc_or_throw(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc_or_throw(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_or_throw(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_or_throw(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, alignof(std::max_align_t));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace oscs::engine {
namespace {

namespace sc = oscs::stochastic;

/// Heap allocations, on every thread, while fn() runs.
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// An LFSR-fed operating point with receiver noise on, so the flip path
/// runs too.
oscs::OperatingPoint noisy_op(std::size_t length) {
  return oscs::OperatingPoint{.probe_power_mw = 1.0,
                              .ber = 1e-3,
                              .snr = 20.0,
                              .threshold_mw = 0.5,
                              .stream_length = length,
                              .sng_width = 16};
}

/// Rank-3 program over three axes with degree-3 factors.
sc::SeparableProgram three_input_cubic() {
  const auto term = [](double weight, std::vector<double> cx,
                       std::vector<double> cy, std::vector<double> cz) {
    sc::SeparableTerm t;
    t.weight = weight;
    t.factors = {{0, sc::BernsteinPoly(std::move(cx))},
                 {1, sc::BernsteinPoly(std::move(cy))},
                 {2, sc::BernsteinPoly(std::move(cz))}};
    return t;
  };
  return sc::SeparableProgram(
      3, {term(0.5, {0.1, 0.6, 0.8, 0.9}, {0.9, 0.4, 0.3, 0.2},
               {0.2, 0.7, 0.5, 1.0}),
          term(0.3, {0.8, 0.2, 0.4, 0.1}, {0.3, 0.9, 0.6, 0.7},
               {1.0, 0.5, 0.2, 0.0}),
          term(0.2, {0.4, 0.4, 0.9, 0.6}, {0.0, 0.3, 0.8, 1.0},
               {0.6, 0.1, 0.9, 0.3})});
}

std::vector<double> grid33() {
  std::vector<double> grid(16);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i] = static_cast<double>((i * 5) % 16) / 15.0;
  }
  return grid;
}

TEST(PackedAllocBudget, WarmRunNdMakesNoHeapAllocation) {
  const optsc::OpticalScCircuit c3(optsc::paper_defaults(3));
  const optsc::OpticalScCircuit c6(optsc::paper_defaults(6));
  const PackedKernel order3(c3);
  const PackedKernel order6(c6);
  const PackedKernel two_bank(c3, 3, 3);
  const sc::SeparableProgram p3(sc::BernsteinPoly({0.1, 0.8, 0.3, 0.95}));
  const sc::SeparableProgram p6(
      sc::BernsteinPoly({0.9, 0.1, 0.7, 0.3, 0.5, 0.2, 0.8}));
  const sc::SeparableProgram p33(sc::BernsteinPoly2(3, 3, grid33()));
  const sc::SeparableProgram p3in = three_input_cubic();
  struct Case {
    const char* name;
    const PackedKernel* kernel;
    const sc::SeparableProgram* program;
    std::vector<double> point;
  };
  const std::vector<Case> cases = {
      {"1D order 3", &order3, &p3, {0.4}},
      {"1D order 6", &order6, &p6, {0.6}},
      {"2D (3,3)", &two_bank, &p33, {0.3, 0.7}},
      {"3-input", &order3, &p3in, {0.2, 0.5, 0.8}},
  };
  PackedRunConfig cfg;
  cfg.op = noisy_op(4096);
  for (const Case& c : cases) {
    (void)c.kernel->run_nd(*c.program, c.point, cfg);  // warm-up
  }
  for (const Case& c : cases) {
    PackedRunResult result;
    const std::size_t allocations = allocations_during([&] {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        cfg.stimulus_seed = seed;
        cfg.noise_seed = seed + 100;
        result = c.kernel->run_nd(*c.program, c.point, cfg);
      }
    });
    EXPECT_EQ(allocations, 0u) << c.name;
    EXPECT_EQ(result.length, 4096u) << c.name;
  }
}

TEST(PackedAllocBudget, WarmLaneEvalsMakeNoHeapAllocation) {
  // The lane loop counts its decisions block by block and draws flips
  // lazily, so nothing it holds grows with the stream length or the flip
  // count: 2^22 bits at BER 1e-2 (~42k flips per draw) allocates nothing.
  const optsc::OpticalScCircuit c3(optsc::paper_defaults(3));
  const PackedKernel order3(c3);
  const PackedKernel two_bank(c3, 1, 1);
  const std::vector<sc::SeparableProgram> one_d = {
      sc::SeparableProgram(sc::BernsteinPoly({0.1, 0.8, 0.3, 0.95}))};
  const std::vector<sc::SeparableProgram> two_d = {
      sc::SeparableProgram(sc::BernsteinPoly2(1, 1, {0.2, 0.7, 0.4, 0.9}))};
  const std::vector<sc::SeparableProgram> fused = {
      sc::SeparableProgram(sc::BernsteinPoly({0.1, 0.8, 0.3, 0.95})),
      sc::SeparableProgram(sc::BernsteinPoly({0.5, 0.5, 0.2, 0.1})),
      sc::SeparableProgram(sc::BernsteinPoly({0.0, 0.3, 0.6, 1.0})),
      sc::SeparableProgram(sc::BernsteinPoly({0.9, 0.7, 0.4, 0.2}))};
  const std::vector<sc::SeparableProgram> three = {three_input_cubic()};
  struct Case {
    const char* name;
    const PackedKernel* kernel;
    const std::vector<sc::SeparableProgram>* programs;
    bool fused;
    std::vector<double> point;
  };
  const std::vector<Case> cases = {
      {"1D order 3", &order3, &one_d, false, {0.4}},
      {"2D (1,1)", &two_bank, &two_d, false, {0.3, 0.7}},
      {"fused K = 4", &order3, &fused, true, {0.45}},
      {"3-input", &order3, &three, false, {0.2, 0.5, 0.8}},
  };
  for (std::size_t length : {std::size_t{4096}, std::size_t{1} << 22}) {
    for (double ber : {0.0, 1e-2}) {
      oscs::OperatingPoint op = noisy_op(length);
      op.ber = ber;
      for (const Case& c : cases) {
        SCOPED_TRACE(std::string(c.name) + " length " +
                     std::to_string(length) + " ber " + std::to_string(ber));
        std::vector<PackedRunResult> results(c.programs->size());
        const auto evaluate = [&](std::uint64_t seed) {
          if (c.fused) {
            PackedCell cell(*c.kernel, std::span(*c.programs), c.point, op,
                            sc::SourceKind::kLfsr);
            cell.run(seed, seed + 100, results.data());
          } else {
            PackedCell cell(*c.kernel, c.programs->front(), c.point, op,
                            sc::SourceKind::kLfsr);
            cell.run(seed, seed + 100, results.data());
          }
        };
        evaluate(1);  // warm-up
        EXPECT_EQ(allocations_during([&] {
                    for (std::uint64_t seed = 2; seed <= 3; ++seed) {
                      evaluate(seed);
                    }
                  }),
                  0u);
        EXPECT_EQ(results.front().length, length);
        if (!c.fused) {
          PackedRunConfig cfg;
          cfg.op = op;
          EXPECT_EQ(allocations_during([&] {
                      results.front() =
                          c.kernel->run_nd(c.programs->front(), c.point, cfg);
                    }),
                    0u)
              << "run_nd";
        }
      }
    }
  }
}

TEST(PackedAllocBudget, FusedRunAllocatesOnlyItsResultVector) {
  const optsc::OpticalScCircuit circuit(optsc::paper_defaults(3));
  const PackedKernel kernel(circuit);
  const std::vector<sc::SeparableProgram> programs = {
      sc::SeparableProgram(sc::BernsteinPoly({0.1, 0.8, 0.3, 0.95})),
      sc::SeparableProgram(sc::BernsteinPoly({0.5, 0.5, 0.2, 0.1})),
      sc::SeparableProgram(sc::BernsteinPoly({0.0, 0.3, 0.6, 1.0})),
      sc::SeparableProgram(sc::BernsteinPoly({0.9, 0.7, 0.4, 0.2}))};
  PackedRunConfig cfg;
  cfg.op = noisy_op(4096);
  const std::vector<double> point = {0.45};
  std::vector<PackedRunResult> results = kernel.run_fused(programs, point, cfg);
  const std::size_t allocations = allocations_during(
      [&] { results = kernel.run_fused(programs, point, cfg); });
  EXPECT_EQ(allocations, 1u);
  EXPECT_EQ(results.size(), 4u);
}

/// Heap allocations of one warm BatchRunner::run_nd, and the number of
/// slabs it was scheduled in (read off the slab-size histogram).
struct BatchCost {
  std::size_t allocations = 0;
  std::size_t slabs = 0;
};

BatchCost batch_cost(const BatchRunner& runner, const BatchRequest& request,
                     ThreadPool& pool) {
  const obs::Histogram* slab_sizes =
      obs::Registry::global().find_histogram("oscs_engine_slab_tasks");
  const double slab_sum0 = slab_sizes ? slab_sizes->snapshot().sum : 0.0;
  BatchCost cost;
  cost.allocations =
      allocations_during([&] { (void)runner.run_nd(request, pool); });
  slab_sizes = obs::Registry::global().find_histogram("oscs_engine_slab_tasks");
  EXPECT_NE(slab_sizes, nullptr);
  if (slab_sizes == nullptr) return cost;
  const auto slab =
      static_cast<std::size_t>(slab_sizes->snapshot().sum - slab_sum0);
  cost.slabs = (request.tasks() + slab - 1) / slab;
  return cost;
}

TEST(PackedAllocBudget, BatchAllocationsDoNotGrowWithRepeats) {
  const optsc::OpticalScCircuit circuit(optsc::paper_defaults(3));
  const BatchRunner runner(circuit);
  ThreadPool pool(2);
  std::vector<double> xs;
  for (std::size_t i = 0; i < 9; ++i) xs.push_back(0.1 * (i + 1));

  BatchRequest dense;
  dense.programs_nd = {
      sc::SeparableProgram(sc::BernsteinPoly({0.1, 0.8, 0.3, 0.95}))};
  dense.inputs = {xs};
  BatchRequest nary;
  nary.programs_nd = {three_input_cubic()};
  nary.inputs = {xs, xs, xs};
  for (BatchRequest* request : {&dense, &nary}) {
    request->stream_lengths = {4096};
    request->op = noisy_op(4096);
    request->seed = 11;
    SCOPED_TRACE(request == &dense ? "dense" : "3-input");

    BatchRequest single = *request;
    single.repeats = 1;
    BatchRequest many = *request;
    many.repeats = 64;
    for (int warm = 0; warm < 3; ++warm) {
      (void)runner.run_nd(many, pool);
      (void)runner.run_nd(single, pool);
    }
    const BatchCost one = batch_cost(runner, single, pool);
    const BatchCost sixty_four = batch_cost(runner, many, pool);
    EXPECT_GT(sixty_four.slabs, 1u);
    EXPECT_LE(sixty_four.allocations, one.allocations + sixty_four.slabs)
        << "1 repeat: " << one.allocations << " allocations; 64 repeats: "
        << sixty_four.allocations << " in " << sixty_four.slabs << " slabs";
  }
}

TEST(PackedAllocBudget, LongStreamScratchIsReleased) {
  // 2^22 bits is 512 KiB per row, past the scratch a thread keeps between
  // evaluations: each evaluation of a path that materializes rows (a
  // 24-bit counter source) allocates its rows afresh.
  const optsc::OpticalScCircuit circuit(optsc::paper_defaults(3));
  const PackedKernel kernel(circuit);
  const sc::SeparableProgram program(sc::BernsteinPoly({0.1, 0.8, 0.3, 0.95}));
  PackedRunConfig cfg;
  cfg.op = noisy_op(std::size_t{1} << 22);
  cfg.op.sng_width = 24;
  cfg.source_kind = sc::SourceKind::kCounter;
  PackedRunResult result;
  const std::size_t first =
      allocations_during([&] { result = kernel.run_nd(program, {0.4}, cfg); });
  cfg.stimulus_seed = 2;
  const std::size_t second =
      allocations_during([&] { result = kernel.run_nd(program, {0.4}, cfg); });
  EXPECT_GE(first, 1u);
  EXPECT_GE(second, 1u);
  EXPECT_EQ(result.length, std::size_t{1} << 22);
}

}  // namespace
}  // namespace oscs::engine
