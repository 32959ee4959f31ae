// Randomized lifecycle fuzzing: the execution model under arbitrary
// co-location churn, and the controller under interleaved submissions and
// cancellations. Deterministic (seeded), so failures reproduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "audit/determinism.hpp"
#include "slurmlite/execution.hpp"
#include "slurmlite/simulation.hpp"
#include "test_support.hpp"
#include "workload/campaign.hpp"

namespace cosched {
namespace {

using cosched::testing::make_job;

const apps::Catalog& trinity() {
  static const apps::Catalog c = apps::Catalog::trinity();
  return c;
}

// --- ExecutionModel under random start/finish churn --------------------------------

/// A machine plus the execution model over it, settled the way the
/// controller settles: drain the dirty nodes into the model at `now`.
struct ExecTwin {
  explicit ExecTwin(const interference::CorunModel& corun)
      : exec(machine, trinity(), corun) {}
  void settle(SimTime now) {
    exec.refresh_rates(machine.dirty_nodes(), now);
    machine.clear_dirty_nodes();
  }
  cluster::Machine machine{6, cluster::NodeConfig{}};
  slurmlite::ExecutionModel exec;
};

/// One random churn step at `now`, applied identically to every twin (the
/// twins' machines stay in lockstep, so free-node searches agree): start a
/// primary, co-allocate a secondary, or finish a random live job.
void churn_step(Pcg32& rng, std::vector<ExecTwin*> twins, SimTime now,
                std::vector<JobId>& live, JobId& next) {
  const double roll = rng.next_double();
  const cluster::Machine& m = twins.front()->machine;
  if (roll < 0.55) {
    const bool primary = roll < 0.35;
    const int want = static_cast<int>(rng.uniform_int(1, primary ? 3 : 2));
    const auto nodes = primary ? m.find_free_nodes(want)
                               : m.find_shareable_nodes(want, nullptr);
    if (!nodes) return;
    const auto job = make_job(next, want, kHour, 3 * kHour,
                              static_cast<AppId>(next % trinity().size()));
    for (ExecTwin* t : twins) {
      if (primary) {
        t->machine.allocate_primary(job.id, *nodes);
      } else {
        t->machine.allocate_secondary(job.id, *nodes);
      }
      t->exec.start(job, now);
    }
    live.push_back(next++);
  } else if (!live.empty()) {
    const std::size_t idx =
        rng.next_below(static_cast<std::uint32_t>(live.size()));
    for (ExecTwin* t : twins) {
      t->exec.finish(live[idx]);
      t->machine.release(live[idx]);
    }
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
  }
}

class ExecutionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ExecutionFuzz, ProgressInvariantsUnderChurn) {
  Pcg32 rng(static_cast<std::uint64_t>(GetParam()), 0xec5);
  const interference::CorunModel corun;
  ExecTwin twin(corun);
  const slurmlite::ExecutionModel& exec = twin.exec;
  std::vector<JobId> live;
  JobId next = 1;
  SimTime now = 0;

  for (int step = 0; step < 300; ++step) {
    now += rng.uniform_int(1, 60) * kSecond;
    churn_step(rng, {&twin}, now, live, next);
    twin.settle(now);

    // Invariants over every tracked job.
    for (JobId id : live) {
      EXPECT_GE(exec.dilation(id), 1.0) << "job " << id;
      EXPECT_LE(exec.dilation(id), 3.0) << "job " << id;  // sane bound
      EXPECT_GE(exec.remaining_work_s(id, now), 0.0);
      EXPECT_LE(exec.progress_s(id, now), to_seconds(kHour) + 1e-6);
      EXPECT_GE(exec.predicted_end(id), now);
      EXPECT_GE(exec.observed_dilation(id, now), 1.0 - 1e-9);
    }
    EXPECT_EQ(exec.running_count(), live.size());
    twin.machine.check_invariants();
  }
}

// Cadence: two models run the same churn script. `quiet` settles once per
// decision instant; `busy` also settles (with nothing dirty) and reads
// every accessor at random instants in between. Progress is written only
// when a rate changes, so progress and predicted ends agree bit for bit
// whatever set of instants anyone looked at. (A model that accrues
// progress at every look re-associates the floating-point sum and fails.)
TEST_P(ExecutionFuzz, ProgressIsIndependentOfReadInstants) {
  Pcg32 rng(static_cast<std::uint64_t>(GetParam()), 0xcade);
  const interference::CorunModel corun;
  ExecTwin quiet(corun);
  ExecTwin busy(corun);
  std::vector<JobId> live;
  JobId next = 1;
  SimTime now = 0;
  double sink = 0;  // keeps the extra reads observable

  for (int step = 0; step < 400; ++step) {
    const SimTime before = now;
    now += rng.uniform_int(1, 90) * kSecond;
    std::vector<SimTime> looks(
        static_cast<std::size_t>(rng.uniform_int(0, 3)));
    for (SimTime& t : looks) t = before + rng.uniform_int(1, now - before - 1);
    std::sort(looks.begin(), looks.end());
    for (SimTime t : looks) {
      busy.settle(t);
      for (JobId id : live) {
        sink += busy.exec.progress_s(id, t) +
                busy.exec.remaining_work_s(id, t) +
                busy.exec.observed_dilation(id, t) +
                static_cast<double>(busy.exec.predicted_end(id));
      }
    }
    const int ops = static_cast<int>(rng.uniform_int(1, 3));
    for (int k = 0; k < ops; ++k) {
      churn_step(rng, {&quiet, &busy}, now, live, next);
    }
    quiet.settle(now);
    busy.settle(now);
    if (rng.next_double() < 0.5) busy.settle(now);  // a same-instant repeat

    for (JobId id : live) {
      ASSERT_EQ(quiet.exec.progress_s(id, now), busy.exec.progress_s(id, now))
          << "job " << id << " step " << step;
      ASSERT_EQ(quiet.exec.predicted_end(id), busy.exec.predicted_end(id))
          << "job " << id << " step " << step;
      ASSERT_EQ(quiet.exec.observed_dilation(id, now),
                busy.exec.observed_dilation(id, now));
    }
  }
  EXPECT_TRUE(std::isfinite(sink));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutionFuzz, ::testing::Range(1, 7));

// Controller-level cadence: extra scheduler passes requested at random
// instants start nothing (FIFO queue, nothing changed since the pass that
// the last state change triggered) and settle nothing, so every job's
// record — start, end, dilation — digests identically with or without
// them.
class PassCadence
    : public ::testing::TestWithParam<std::tuple<core::StrategyKind, int>> {
};

struct PassRun {
  std::vector<std::uint64_t> digests;  ///< audit::job_subdigest, submit order
  SimTime last_end = 0;
};

PassRun run_with_pokes(core::StrategyKind strategy, std::uint64_t seed,
                       const std::vector<SimTime>& pokes) {
  sim::Engine engine;
  slurmlite::ControllerConfig config;
  config.nodes = 16;
  config.strategy = strategy;
  slurmlite::Controller controller(engine, config, trinity());
  workload::Generator generator(workload::trinity_campaign(16, 150),
                                trinity());
  Pcg32 wl_rng(seed);
  controller.submit_all(generator.generate(wl_rng));
  for (SimTime t : pokes) {
    engine.schedule_at(t, sim::EventPriority::kTimer, "poke",
                       [&controller] { controller.request_schedule(); });
  }
  engine.run();
  PassRun run;
  for (const workload::Job& j : controller.job_records()) {
    run.digests.push_back(audit::job_subdigest(j));
    run.last_end = std::max(run.last_end, j.end_time);
  }
  return run;
}

TEST_P(PassCadence, ExtraPassesLeaveEveryJobRecordIdentical) {
  const auto [strategy, seed_int] = GetParam();
  const auto seed = static_cast<std::uint64_t>(seed_int);
  const PassRun base = run_with_pokes(strategy, seed, {});
  Pcg32 rng(seed, 0x90ce);
  std::vector<SimTime> pokes;
  for (int k = 0; k < 300; ++k) {
    pokes.push_back(rng.uniform_int(0, base.last_end));
  }
  const PassRun poked = run_with_pokes(strategy, seed, pokes);
  ASSERT_EQ(base.digests.size(), poked.digests.size());
  for (std::size_t i = 0; i < base.digests.size(); ++i) {
    EXPECT_EQ(base.digests[i], poked.digests[i]) << "job #" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndSeeds, PassCadence,
    ::testing::Combine(
        ::testing::Values(core::StrategyKind::kFcfs,
                          core::StrategyKind::kFirstFit,
                          core::StrategyKind::kEasyBackfill,
                          core::StrategyKind::kConservativeBackfill,
                          core::StrategyKind::kCoFirstFit,
                          core::StrategyKind::kCoBackfill,
                          core::StrategyKind::kCoConservative),
        ::testing::Range(1, 4)));

// --- Controller under interleaved submissions and cancellations --------------------

class CancelFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CancelFuzz, RandomCancellationsKeepSystemConsistent) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Pcg32 rng(seed, 0xca2ce1);

  sim::Engine engine;
  slurmlite::ControllerConfig config;
  config.nodes = 8;
  config.strategy = core::StrategyKind::kCoBackfill;
  slurmlite::Controller controller(engine, config, trinity());

  workload::Generator generator(workload::trinity_campaign(8, 60),
                                trinity());
  Pcg32 wl_rng(seed);
  const auto jobs = generator.generate(wl_rng);
  controller.submit_all(jobs);

  // Interleave: run a slice of simulated time, then cancel a random job.
  SimTime cursor = 0;
  for (int round = 0; round < 20; ++round) {
    cursor += rng.uniform_int(1, 30) * kMinute;
    engine.run_until(cursor);
    const JobId victim = rng.uniform_int(1, 60);
    controller.cancel(victim);  // any state; may be a no-op
    controller.machine_state().check_invariants();
  }
  engine.run();

  int finals = 0;
  for (const auto& job : controller.job_records()) {
    EXPECT_NE(job.state, workload::JobState::kPending) << job.id;
    EXPECT_NE(job.state, workload::JobState::kRunning) << job.id;
    EXPECT_NE(job.state, workload::JobState::kHeld) << job.id;
    ++finals;
  }
  EXPECT_EQ(finals, 60);
  controller.machine_state().check_invariants();
  EXPECT_TRUE(engine.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CancelFuzz, ::testing::Range(1, 7));

}  // namespace
}  // namespace cosched
