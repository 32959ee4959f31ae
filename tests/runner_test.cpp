// ParallelRunner contract tests: submission-order collection, serial
// exception semantics, and the determinism guarantee the whole experiment
// pipeline rests on — a parallel sweep must equal the serial reference
// cell-for-cell, including audit event-stream digests, at every thread
// count.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "runner/runner.hpp"
#include "util/rng.hpp"
#include "workload/campaign.hpp"

namespace cosched {
namespace {

// --- Seed derivation ------------------------------------------------------------

// Pinned outputs: goldens and recorded experiments depend on these exact
// values. If this test fails, the derivation changed and every golden
// baseline is invalid — that must be a deliberate, documented decision.
TEST(DeriveSeed, PinnedValues) {
  EXPECT_EQ(splitmix64(1), 0x5692161d100b05e5ULL);
  EXPECT_EQ(derive_seed(1, 0), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(derive_seed(1, 1), 0xbeeb8da1658eec67ULL);
  EXPECT_EQ(derive_seed(1, 2), 0xf893a2eefb32555eULL);
  EXPECT_EQ(derive_seed(42, 0), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(derive_seed(42, 7), 0xccf635ee9e9e2fa4ULL);
}

TEST(DeriveSeed, CellsAreDecorrelated) {
  // Consecutive cells of the same base must not share low bits the way the
  // raw 1..N seeds did.
  for (std::uint64_t base : {1ULL, 2ULL, 1000ULL}) {
    EXPECT_NE(derive_seed(base, 0), derive_seed(base, 1));
    EXPECT_NE(derive_seed(base, 0) & 0xffff, derive_seed(base, 1) & 0xffff);
  }
}

// --- ParallelRunner unit behaviour ----------------------------------------------

TEST(ParallelRunner, ResolveThreads) {
  EXPECT_EQ(runner::resolve_threads(1), 1);
  EXPECT_EQ(runner::resolve_threads(5), 5);
  EXPECT_GE(runner::resolve_threads(0), 1);  // hardware concurrency
}

TEST(ParallelRunner, SingleThreadRunsInline) {
  runner::ParallelRunner pool(1);
  EXPECT_EQ(pool.threads(), 1);
  const auto caller = std::this_thread::get_id();
  pool.for_each(4, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ParallelRunner, MapCollectsInSubmissionOrder) {
  runner::ParallelRunner pool(4);
  const auto out = pool.map<std::size_t>(
      100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelRunner, RunsEveryCellExactlyOnce) {
  runner::ParallelRunner pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.for_each(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelRunner, ReusableAcrossBatches) {
  runner::ParallelRunner pool(3);
  for (int batch = 0; batch < 5; ++batch) {
    const auto out = pool.map<int>(
        17, [&](std::size_t i) { return batch * 100 + static_cast<int>(i); });
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], batch * 100 + static_cast<int>(i));
    }
  }
}

TEST(ParallelRunner, RethrowsLowestFailingCell) {
  for (int threads : {1, 4}) {
    runner::ParallelRunner pool(threads);
    try {
      pool.for_each(64, [](std::size_t i) {
        if (i == 3 || i == 40) {
          throw std::runtime_error("cell " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      // The lowest-indexed failure wins — what a serial loop would throw.
      EXPECT_STREQ(e.what(), "cell 3");
    }
    // The pool must stay usable after a failed batch.
    EXPECT_EQ(pool.map<int>(5, [](std::size_t i) {
      return static_cast<int>(i);
    })[4], 4);
  }
}

// Batch shapes a sweep never hits by hand: counts below, at and far above
// the pool width, on pools of every small width, reused batch after batch.
// Each cell's slot must hold what a plain serial loop computes.
TEST(ParallelRunner, MapEqualsSerialLoopAcrossRandomCountsAndWidths) {
  for (int threads = 1; threads <= 5; ++threads) {
    runner::ParallelRunner pool(threads);
    for (std::uint64_t round = 0; round < 8; ++round) {
      const std::uint64_t salt =
          derive_seed(static_cast<std::uint64_t>(threads), round);
      const std::size_t count = static_cast<std::size_t>(salt % 300);
      std::vector<std::uint64_t> serial(count);
      for (std::size_t i = 0; i < count; ++i) serial[i] = splitmix64(salt ^ i);
      const auto pooled = pool.map<std::uint64_t>(
          count, [&](std::size_t i) { return splitmix64(salt ^ i); });
      EXPECT_EQ(pooled, serial) << "threads " << threads << " count " << count;
    }
  }
}

TEST(ParallelRunner, EmptyBatchCompletes) {
  runner::ParallelRunner pool(4);
  pool.for_each(0, [](std::size_t) { FAIL() << "no cells to run"; });
}

// --- Parallel == serial parity --------------------------------------------------

class RunnerParity
    : public ::testing::TestWithParam<std::tuple<core::StrategyKind, int>> {};

// The tier-1 determinism contract from ISSUE 2: per-cell metrics AND
// FNV-1a event-stream digests from a pooled sweep equal a serial
// reference run cell-for-cell, for every strategy at 1, 2, and 8 threads.
TEST_P(RunnerParity, SweepEqualsSerialReferenceIncludingDigests) {
  const auto [kind, threads] = GetParam();
  const auto catalog = apps::Catalog::trinity();
  constexpr std::uint64_t kBase = 1;
  constexpr int kCells = 4;

  slurmlite::SimulationSpec proto;
  proto.controller.nodes = 8;
  proto.controller.strategy = kind;
  proto.workload = workload::trinity_campaign(8, 40);
  proto.hash_events = true;

  // Serial reference: a plain loop on this thread.
  std::vector<slurmlite::SimulationResult> serial;
  for (int c = 0; c < kCells; ++c) {
    auto spec = proto;
    spec.seed = derive_seed(kBase, static_cast<std::uint64_t>(c));
    serial.push_back(slurmlite::run_simulation(spec, catalog));
  }

  runner::ParallelRunner pool(threads);
  const auto parallel =
      runner::run_seed_sweep(pool, proto, catalog, kBase, kCells);

  ASSERT_EQ(parallel.size(), serial.size());
  for (int c = 0; c < kCells; ++c) {
    const auto& s = serial[static_cast<std::size_t>(c)];
    const auto& p = parallel[static_cast<std::size_t>(c)];
    EXPECT_NE(p.event_stream_hash, 0u) << "cell " << c;
    EXPECT_EQ(p.event_stream_hash, s.event_stream_hash) << "cell " << c;
    EXPECT_EQ(p.events_executed, s.events_executed) << "cell " << c;
    EXPECT_EQ(p.jobs.size(), s.jobs.size()) << "cell " << c;
    // Metrics are doubles computed from identical event streams — bitwise
    // equality, not tolerance.
    EXPECT_EQ(p.metrics.makespan_s, s.metrics.makespan_s) << "cell " << c;
    EXPECT_EQ(p.metrics.scheduling_efficiency,
              s.metrics.scheduling_efficiency)
        << "cell " << c;
    EXPECT_EQ(p.metrics.computational_efficiency,
              s.metrics.computational_efficiency)
        << "cell " << c;
    EXPECT_EQ(p.metrics.mean_wait_s, s.metrics.mean_wait_s) << "cell " << c;
    EXPECT_EQ(p.stats.secondary_starts, s.stats.secondary_starts)
        << "cell " << c;
  }
}

std::string parity_name(
    const ::testing::TestParamInfo<std::tuple<core::StrategyKind, int>>&
        info) {
  return std::string(core::to_string(std::get<0>(info.param))) + "_t" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesAllThreadCounts, RunnerParity,
    ::testing::Combine(::testing::ValuesIn(core::all_strategies()),
                       ::testing::Values(1, 2, 8)),
    parity_name);

}  // namespace
}  // namespace cosched
