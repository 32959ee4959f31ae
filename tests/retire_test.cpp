// Flat-memory retire mode (ControllerConfig::retire_finished)
// differentials: a retiring run frees every job record the moment the job
// reaches a final state, yet must reproduce the non-retiring run's event
// stream, digest, and metrics bit-for-bit over the same ingestion mode.
// The occupancy-derived metric fields are the one documented exception
// (tick-exact meter vs double segment sweep, see metrics/
// stream_metrics.hpp) and are compared with a tight relative tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "audit/determinism.hpp"
#include "core/scheduler.hpp"
#include "sim/engine.hpp"
#include "slurmlite/simulation.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "workload/campaign.hpp"
#include "workload/generator.hpp"
#include "workload/source.hpp"

namespace cosched {
namespace {

using cosched::testing::make_job;

const apps::Catalog& trinity() {
  static const apps::Catalog catalog = apps::Catalog::trinity();
  return catalog;
}

// Streams the spec's generated workload (same Pcg32 stream constant as
// run_simulation, so the job sequence is identical) with retire on/off.
slurmlite::SimulationResult run_streaming(slurmlite::SimulationSpec spec,
                                          bool retire) {
  spec.controller.retire_finished = retire;
  spec.hash_events = true;
  const workload::Generator generator(spec.workload, trinity());
  workload::GeneratorJobSource source(generator,
                                      Pcg32(spec.seed, /*stream=*/0x5eed));
  return slurmlite::run_stream(spec, trinity(), source);
}

void expect_near_rel(double actual, double expected, double rel) {
  EXPECT_NEAR(actual, expected, std::abs(expected) * rel + 1e-12);
}

// The full metrics comparison: exact fields bitwise, occupancy-derived
// fields near-equal (the documented tolerance). Pass compare_occupancy =
// false for runs with requeues: the streaming OccupancyMeter integrates
// every attempt a job makes (including runs a node failure killed),
// while metrics::compute only sees the final record's start..end window,
// so the two legitimately diverge once work is lost to failures.
void expect_metrics_match(const metrics::ScheduleMetrics& retired,
                          const metrics::ScheduleMetrics& base,
                          bool compare_occupancy = true) {
  EXPECT_EQ(retired.jobs_total, base.jobs_total);
  EXPECT_EQ(retired.jobs_completed, base.jobs_completed);
  EXPECT_EQ(retired.jobs_timeout, base.jobs_timeout);
  EXPECT_EQ(retired.makespan_s, base.makespan_s);
  EXPECT_EQ(retired.total_work_node_s, base.total_work_node_s);
  EXPECT_EQ(retired.lost_work_node_s, base.lost_work_node_s);
  EXPECT_EQ(retired.mean_wait_s, base.mean_wait_s);
  EXPECT_EQ(retired.p95_wait_s, base.p95_wait_s);
  EXPECT_EQ(retired.max_wait_s, base.max_wait_s);
  EXPECT_EQ(retired.mean_bounded_slowdown, base.mean_bounded_slowdown);
  EXPECT_EQ(retired.p95_bounded_slowdown, base.p95_bounded_slowdown);
  EXPECT_EQ(retired.mean_dilation, base.mean_dilation);
  EXPECT_EQ(retired.scheduling_efficiency, base.scheduling_efficiency);
  EXPECT_EQ(retired.throughput_jobs_per_h, base.throughput_jobs_per_h);
  if (!compare_occupancy) {
    // Requeues happened: the meter saw strictly more node-time than the
    // final records record. Pin the direction instead of the value.
    EXPECT_GE(retired.busy_node_s, base.busy_node_s);
    return;
  }
  // Occupancy-derived: OccupancyMeter integrates busy/shared node-time in
  // integer ticks; metrics::compute sweeps per-job double segments.
  expect_near_rel(retired.busy_node_s, base.busy_node_s, 1e-6);
  expect_near_rel(retired.shared_node_s, base.shared_node_s, 1e-6);
  expect_near_rel(retired.computational_efficiency,
                  base.computational_efficiency, 1e-6);
  expect_near_rel(retired.utilization, base.utilization, 1e-6);
  expect_near_rel(retired.energy_kwh, base.energy_kwh, 1e-6);
  expect_near_rel(retired.work_node_h_per_kwh, base.work_node_h_per_kwh,
                  1e-6);
}

// --- Streaming differential, every strategy ---------------------------------

class RetireParity : public ::testing::TestWithParam<core::StrategyKind> {};

TEST_P(RetireParity, StreamingRetireReproducesTheRun) {
  slurmlite::SimulationSpec spec;
  spec.controller.nodes = 16;
  spec.controller.strategy = GetParam();
  spec.workload = workload::trinity_stream(16, 400, 0.9);
  spec.seed = 11;

  const auto base = run_streaming(spec, /*retire=*/false);
  const auto retired = run_streaming(spec, /*retire=*/true);

  ASSERT_NE(base.event_stream_hash, 0u);
  EXPECT_EQ(retired.event_stream_hash, base.event_stream_hash);
  EXPECT_EQ(retired.events_executed, base.events_executed);
  // The flat-memory contract: no records survive a retiring run.
  EXPECT_TRUE(retired.jobs.empty());
  EXPECT_EQ(base.jobs.size(), 400u);
  expect_metrics_match(retired.metrics, base.metrics);
  EXPECT_EQ(retired.stats.scheduler_passes, base.stats.scheduler_passes);
  EXPECT_EQ(retired.stats.primary_starts, base.stats.primary_starts);
  EXPECT_EQ(retired.stats.secondary_starts, base.stats.secondary_starts);
  EXPECT_EQ(retired.stats.completions, base.stats.completions);
  EXPECT_EQ(retired.stats.timeouts, base.stats.timeouts);
}

std::string retire_name(
    const ::testing::TestParamInfo<core::StrategyKind>& info) {
  return std::string(core::to_string(info.param));
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, RetireParity,
                         ::testing::ValuesIn(core::all_strategies()),
                         retire_name);

// --- Failure / requeue paths -------------------------------------------------

TEST(RetireMode, FailureRequeuesMatchUnderBothPolicies) {
  for (const bool requeue : {true, false}) {
    slurmlite::SimulationSpec spec;
    spec.controller.nodes = 16;
    spec.controller.strategy = core::StrategyKind::kCoBackfill;
    spec.controller.requeue_on_failure = requeue;
    spec.controller.checkpoint_interval = requeue ? 30 * kMinute : 0;
    for (int i = 0; i < 6; ++i) {
      spec.controller.failures.push_back(
          {.node = static_cast<NodeId>(i * 2),
           .at = (i + 1) * kHour,
           .duration = 2 * kHour});
    }
    spec.workload = workload::trinity_stream(16, 250, 0.9);
    spec.seed = 7;

    const auto base = run_streaming(spec, /*retire=*/false);
    const auto retired = run_streaming(spec, /*retire=*/true);

    EXPECT_EQ(retired.event_stream_hash, base.event_stream_hash)
        << "requeue_on_failure=" << requeue;
    EXPECT_EQ(retired.events_executed, base.events_executed);
    EXPECT_EQ(retired.stats.requeues, base.stats.requeues);
    EXPECT_EQ(retired.stats.node_failures, base.stats.node_failures);
    EXPECT_EQ(retired.stats.timeouts, base.stats.timeouts);
    // Under the requeue policy jobs lose work to failures, so occupancy
    // is meter-vs-final-record and only the direction is pinned.
    expect_metrics_match(retired.metrics, base.metrics,
                         /*compare_occupancy=*/base.stats.requeues == 0);
  }
}

// --- Dependency chains and cascade cancellation ------------------------------

// Hand-built list exercising every final state a retiring controller can
// free a record from: completion, walltime timeout, and dependency-cascade
// cancellation (the parent times out, so its "afterok" dependent — still
// held — is cancelled without ever running). Both sides use run_jobs
// (materialized ingestion), so event ids and digests are comparable.
TEST(RetireMode, DependencyCascadeMatchesMaterializedRun) {
  workload::JobList jobs;
  // 1: completes normally.
  jobs.push_back(make_job(1, 4, 30 * kMinute, 2 * kHour, 0));
  // 2: base runtime past its walltime -> timeout.
  auto doomed = make_job(2, 2, 2 * kHour, kHour, 1);
  doomed.submit_time = 5 * kMinute;
  jobs.push_back(doomed);
  // 3: afterok on the doomed job -> cancelled in cascade.
  auto dependent = make_job(3, 2, 20 * kMinute, kHour, 0);
  dependent.submit_time = 10 * kMinute;
  dependent.depends_on = 2;
  jobs.push_back(dependent);
  // 4 -> 5: a chain that resolves: 4 completes, 5 runs after it.
  auto head = make_job(4, 8, 40 * kMinute, 2 * kHour, 2);
  head.submit_time = 10 * kMinute;
  jobs.push_back(head);
  auto tail = make_job(5, 8, 10 * kMinute, kHour, 2);
  tail.submit_time = 15 * kMinute;
  tail.depends_on = 4;
  jobs.push_back(tail);

  slurmlite::SimulationSpec spec;
  spec.controller.nodes = 16;
  spec.controller.strategy = core::StrategyKind::kCoBackfill;
  spec.hash_events = true;

  const auto base = slurmlite::run_jobs(spec, trinity(), jobs);
  spec.controller.retire_finished = true;
  const auto retired = slurmlite::run_jobs(spec, trinity(), jobs);

  ASSERT_EQ(base.jobs.size(), 5u);
  EXPECT_EQ(base.jobs[1].state, workload::JobState::kTimeout);
  EXPECT_EQ(base.jobs[2].state, workload::JobState::kCancelled);
  EXPECT_EQ(base.jobs[4].state, workload::JobState::kCompleted);

  EXPECT_TRUE(retired.jobs.empty());
  EXPECT_EQ(retired.event_stream_hash, base.event_stream_hash);
  EXPECT_EQ(retired.events_executed, base.events_executed);
  EXPECT_EQ(retired.stats.dependency_cancellations,
            base.stats.dependency_cancellations);
  EXPECT_GE(base.stats.dependency_cancellations, 1u);
  expect_metrics_match(retired.metrics, base.metrics);
}

// Explicit scancel of pending and running jobs mid-run: the digest fold
// must agree between a retiring and a record-keeping controller even when
// jobs leave through cancel() rather than the event loop.
TEST(RetireMode, InterleavedCancellationsMatch) {
  const auto cancel_run = [](bool retire) {
    sim::Engine engine;
    slurmlite::ControllerConfig config;
    config.nodes = 8;
    config.strategy = core::StrategyKind::kCoBackfill;
    config.retire_finished = retire;
    slurmlite::Controller controller(engine, config, trinity());
    audit::EventStreamHasher hasher;
    engine.add_observer(&hasher);

    const workload::Generator generator(workload::trinity_campaign(8, 60),
                                        trinity());
    Pcg32 rng(19, /*stream=*/0x5eed);
    for (const auto& job : generator.generate(rng)) controller.submit(job);

    // Cancel a mix of (by then) running, pending, and already-finished
    // ids at fixed sim times; identical schedule on both sides.
    const std::vector<std::pair<SimTime, JobId>> cancels = {
        {20 * kMinute, 3}, {45 * kMinute, 12}, {90 * kMinute, 25},
        {2 * kHour, 40},   {3 * kHour, 7},
    };
    for (const auto& [at, victim] : cancels) {
      engine.schedule_at(at, sim::EventPriority::kTimer, "test_cancel",
                         [&controller, victim = victim] {
                           controller.cancel(victim);
                         });
    }
    engine.run();

    audit::Fnv64 digest = hasher.hash();
    if (retire) {
      EXPECT_EQ(controller.resident_jobs(), 0u);
      controller.fold_retired_digests(digest);
    } else {
      audit::mix_jobs(digest, controller.job_records());
    }
    return digest.digest();
  };

  EXPECT_EQ(cancel_run(/*retire=*/true), cancel_run(/*retire=*/false));
}

// --- Heavier streaming differential ------------------------------------------

// A 20k-job streaming run: retire metrics vs the materialized
// run_simulation over the same seed. Streaming and materialized ingestion
// produce different event ids (so digests are not comparable), but the
// schedule — and therefore every job-derived metric — must agree.
TEST(RetireMode, LargeStreamMatchesMaterializedMetrics) {
  slurmlite::SimulationSpec spec;
  spec.controller.nodes = 64;
  spec.controller.strategy = core::StrategyKind::kCoBackfill;
  spec.workload = workload::trinity_stream(64, 20000, 0.9);
  spec.seed = 3;
  spec.audit = slurmlite::AuditMode::kOff;  // 20k jobs: keep debug runs fast
  spec.hash_events = true;

  const auto materialized = slurmlite::run_simulation(spec, trinity());
  const auto retired = run_streaming(spec, /*retire=*/true);

  EXPECT_TRUE(retired.jobs.empty());
  EXPECT_EQ(materialized.jobs.size(), 20000u);
  expect_metrics_match(retired.metrics, materialized.metrics);
  EXPECT_EQ(retired.stats.completions, materialized.stats.completions);
  EXPECT_EQ(retired.stats.timeouts, materialized.stats.timeouts);
}

// --- Engine id-table windowing -----------------------------------------------

// The engine's id->slot table must stay bounded on retiring workloads: a
// million executed events with a short in-flight window must not grow the
// table a million entries deep. The window compacts its dead prefix
// (monotone ids), so entries track the live span, not history.
TEST(EngineIdWindow, TableStaysBoundedOverManyEvents) {
  sim::Engine engine;
  std::size_t peak = 0;
  for (int wave = 0; wave < 500; ++wave) {
    for (int i = 0; i < 200; ++i) {
      engine.schedule_after(kSecond, sim::EventPriority::kTimer, "tick",
                            [] {});
    }
    engine.run();
    peak = std::max(peak, engine.id_table_entries());
  }
  EXPECT_EQ(engine.executed(), 100000u);
  // Compaction triggers at a 4096-entry dead prefix; the table may hold a
  // few windows' slack but never the full event history.
  EXPECT_LT(peak, 10000u);
}

// --- Event-sparse settle: exact work counters ------------------------------

// A streamed, retiring 4096-node CoBackfill cell keeps thousands of jobs
// running at once. A completion event is rescheduled only when its job's
// rate changes, so events pushed per job (submit, pass, timeout,
// completion, plus reschedules on co-residency changes) stay a small
// constant, and the engine's id window — pinned by the oldest live event —
// spans a few ids per in-flight job. Both counters are host-independent,
// so the bounds are exact gates, not timings.
TEST(EventSparse, WideStreamPushesFewEventsPerJob) {
  constexpr int kNodes = 4096;
  constexpr int kJobs = 10000;
  sim::Engine engine;
  slurmlite::ControllerConfig config;
  config.nodes = kNodes;
  config.strategy = core::StrategyKind::kCoBackfill;
  config.retire_finished = true;
  slurmlite::Controller controller(engine, config, trinity());
  const workload::Generator generator(
      workload::trinity_stream(kNodes, kJobs, 1.1), trinity());
  workload::GeneratorJobSource source(generator, Pcg32(1, 0x5eed));
  controller.submit_stream(source);
  std::size_t peak_ids = 0;
  while (engine.step()) {
    peak_ids = std::max(peak_ids, engine.id_table_entries());
  }
  EXPECT_EQ(controller.resident_jobs(), 0u);
  EXPECT_EQ(controller.submitted_total(), static_cast<std::size_t>(kJobs));
  const double pushed_per_job =
      static_cast<double>(engine.scheduled()) / kJobs;
  EXPECT_LE(pushed_per_job, 10.0);
  EXPECT_LT(peak_ids, static_cast<std::size_t>(10 * kJobs));
}

}  // namespace
}  // namespace cosched
