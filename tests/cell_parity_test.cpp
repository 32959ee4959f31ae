// CellParity: a simulation cell run on a ParallelRunner worker must
// produce exactly the observable bytes of the same cell run inline on the
// caller. Scheduler passes are serial; the parallelism that remains works
// across independent cells, so this is where lifting serial code to
// parallelism must not change one decision. For every strategy x queue
// policy x pool width, a batch of cells — each with its own tracer,
// registry and span ledger — is compared against inline serial runs:
// event-stream digests, golden metrics (bitwise, not tolerance),
// controller stats, the full JSONL trace byte for byte, the span ledger,
// and every deterministic registry instrument.
//
// RunnerParity pins digests and metrics of seed sweeps; this suite adds
// the observability artifacts, every queue policy and every gate mode, so
// a worker-visible shared cache or a cross-cell write in the tracer,
// registry or estimator shows up as a named divergent record.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "obs/diff.hpp"
#include "obs/span.hpp"
#include "runner/runner.hpp"
#include "slurmlite/simulation.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workload/campaign.hpp"

namespace cosched {
namespace {

constexpr int kNodes = 16;
constexpr int kJobs = 60;
constexpr int kCells = 4;
constexpr std::uint64_t kBaseSeed = 7;

struct CellConfig {
  core::StrategyKind kind = core::StrategyKind::kCoBackfill;
  slurmlite::QueuePolicy queue = slurmlite::QueuePolicy::kFifo;
  core::GateMode gate = core::GateMode::kOracle;
  int nodes = kNodes;
  int jobs = kJobs;
};

struct CellArtifacts {
  slurmlite::SimulationResult result;
  std::string trace;         ///< full JSONL document (byte-compared)
  std::string metrics_json;  ///< registry dump (compared sans _wall_)
  std::string spans_json;    ///< span ledger dump (byte-compared)
};

/// One share-nothing cell: every sink it writes is local to the call.
CellArtifacts run_cell(const CellConfig& config, const apps::Catalog& catalog,
                       std::uint64_t cell) {
  obs::Tracer tracer;
  obs::Registry registry;
  obs::SpanLedger spans;
  slurmlite::SimulationSpec spec;
  spec.controller.nodes = config.nodes;
  spec.controller.strategy = config.kind;
  spec.controller.queue_policy = config.queue;
  spec.controller.scheduler_options.co.gate_mode = config.gate;
  spec.controller.tracer = &tracer;
  spec.controller.registry = &registry;
  spec.controller.spans = &spans;
  spec.workload = workload::trinity_campaign(config.nodes, config.jobs);
  spec.seed = derive_seed(kBaseSeed, cell);
  spec.hash_events = true;
  CellArtifacts out;
  out.result = slurmlite::run_simulation(spec, catalog);
  out.trace = tracer.str();
  out.metrics_json = registry.to_json();
  out.spans_json = spans.to_json();
  return out;
}

std::vector<CellArtifacts> run_inline(const CellConfig& config,
                                      const apps::Catalog& catalog) {
  std::vector<CellArtifacts> out;
  for (int c = 0; c < kCells; ++c) {
    out.push_back(run_cell(config, catalog, static_cast<std::uint64_t>(c)));
  }
  return out;
}

std::vector<CellArtifacts> run_pooled(runner::ParallelRunner& pool,
                                      const CellConfig& config,
                                      const apps::Catalog& catalog) {
  return pool.map<CellArtifacts>(kCells, [&](std::size_t c) {
    return run_cell(config, catalog, c);
  });
}

/// Structural equality of two parsed JSON values (numbers bitwise — both
/// sides came from identical arithmetic or they are not identical runs).
void expect_json_equal(const JsonValue& a, const JsonValue& b,
                       const std::string& path) {
  ASSERT_EQ(static_cast<int>(a.kind()), static_cast<int>(b.kind())) << path;
  switch (a.kind()) {
    case JsonValue::Kind::kNull:
      break;
    case JsonValue::Kind::kBool:
      EXPECT_EQ(a.as_bool(), b.as_bool()) << path;
      break;
    case JsonValue::Kind::kNumber:
      EXPECT_EQ(a.as_number(), b.as_number()) << path;
      break;
    case JsonValue::Kind::kString:
      EXPECT_EQ(a.as_string(), b.as_string()) << path;
      break;
    case JsonValue::Kind::kArray: {
      const auto& av = a.as_array();
      const auto& bv = b.as_array();
      ASSERT_EQ(av.size(), bv.size()) << path;
      for (std::size_t i = 0; i < av.size(); ++i) {
        expect_json_equal(av[i], bv[i], path + "[" + std::to_string(i) + "]");
      }
      break;
    }
    case JsonValue::Kind::kObject: {
      ASSERT_EQ(a.keys(), b.keys()) << path;
      for (const std::string& key : a.keys()) {
        expect_json_equal(a.at(key), b.at(key), path + "." + key);
      }
      break;
    }
  }
}

/// Registry dumps must agree on every instrument except the wall-clock
/// ones (`_wall_` naming convention, DESIGN.md "Observability") — pass
/// latency legitimately changes with the worker; nothing else may.
void expect_same_instruments(const std::string& ref_dump,
                             const std::string& got_dump) {
  const JsonValue ref = parse_json(ref_dump);
  const JsonValue got = parse_json(got_dump);
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const JsonValue& r = ref.at(section);
    const JsonValue& g = got.at(section);
    auto deterministic = [](const std::vector<std::string>& names) {
      std::vector<std::string> out;
      for (const std::string& n : names) {
        if (n.find("_wall_") == std::string::npos) out.push_back(n);
      }
      return out;
    };
    const auto r_names = deterministic(r.keys());
    const auto g_names = deterministic(g.keys());
    ASSERT_EQ(r_names, g_names) << section;
    for (const std::string& name : r_names) {
      expect_json_equal(r.at(name), g.at(name),
                        std::string(section) + "." + name);
    }
  }
}

void expect_identical_cell(const CellArtifacts& inline_run,
                           const CellArtifacts& pooled) {
  EXPECT_NE(inline_run.result.event_stream_hash, 0u);
  EXPECT_EQ(pooled.result.event_stream_hash,
            inline_run.result.event_stream_hash);
  EXPECT_EQ(pooled.result.events_executed, inline_run.result.events_executed);
  EXPECT_EQ(pooled.result.jobs.size(), inline_run.result.jobs.size());
  // Golden metrics: doubles from identical event streams — bitwise.
  EXPECT_EQ(pooled.result.metrics.makespan_s,
            inline_run.result.metrics.makespan_s);
  EXPECT_EQ(pooled.result.metrics.scheduling_efficiency,
            inline_run.result.metrics.scheduling_efficiency);
  EXPECT_EQ(pooled.result.metrics.computational_efficiency,
            inline_run.result.metrics.computational_efficiency);
  EXPECT_EQ(pooled.result.metrics.mean_wait_s,
            inline_run.result.metrics.mean_wait_s);
  EXPECT_EQ(pooled.result.stats.scheduler_passes,
            inline_run.result.stats.scheduler_passes);
  EXPECT_EQ(pooled.result.stats.primary_starts,
            inline_run.result.stats.primary_starts);
  EXPECT_EQ(pooled.result.stats.secondary_starts,
            inline_run.result.stats.secondary_starts);
  EXPECT_EQ(pooled.result.stats.completions,
            inline_run.result.stats.completions);
  // The decision trace, byte for byte. On a mismatch, route the pair
  // through the divergence forensics so the failure names the first
  // divergent record instead of dumping two multi-thousand-line documents.
  if (pooled.trace != inline_run.trace) {
    const obs::DiffResult diff = obs::diff_streams(
        "inline", inline_run.trace, "pooled", pooled.trace);
    ADD_FAILURE() << "trace divergence between inline and pooled cells:\n"
                  << diff.report;
  }
  EXPECT_EQ(pooled.spans_json, inline_run.spans_json);
  expect_same_instruments(inline_run.metrics_json, pooled.metrics_json);
}

void expect_identical_batches(const std::vector<CellArtifacts>& inline_runs,
                              const std::vector<CellArtifacts>& pooled) {
  ASSERT_EQ(pooled.size(), inline_runs.size());
  for (std::size_t c = 0; c < pooled.size(); ++c) {
    SCOPED_TRACE("cell " + std::to_string(c));
    expect_identical_cell(inline_runs[c], pooled[c]);
  }
}

const apps::Catalog& trinity() {
  static const apps::Catalog catalog = apps::Catalog::trinity();
  return catalog;
}

class CellParity
    : public ::testing::TestWithParam<
          std::tuple<core::StrategyKind, slurmlite::QueuePolicy, int>> {};

TEST_P(CellParity, PooledCellsEqualInlineReferenceByteForByte) {
  const auto [kind, queue, threads] = GetParam();
  CellConfig config;
  config.kind = kind;
  config.queue = queue;
  const auto reference = run_inline(config, trinity());

  runner::ParallelRunner pool(threads);
  const auto pooled = run_pooled(pool, config, trinity());

  // Sanity: co strategies must actually have co-allocated something, or
  // the parity proved nothing about the co-allocator's scan.
  if (core::is_co_strategy(kind)) {
    for (const auto& cell : reference) {
      EXPECT_GT(cell.result.stats.secondary_starts, 0u);
    }
  }
  expect_identical_batches(reference, pooled);
}

std::string parity_name(
    const ::testing::TestParamInfo<
        std::tuple<core::StrategyKind, slurmlite::QueuePolicy, int>>& info) {
  const auto [kind, queue, threads] = info.param;
  return std::string(core::to_string(kind)) +
         (queue == slurmlite::QueuePolicy::kFifo ? "_fifo" : "_prio") +
         "_t" + std::to_string(threads);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesAllQueuesAllPoolWidths, CellParity,
    ::testing::Combine(
        ::testing::ValuesIn(core::all_strategies()),
        ::testing::Values(slurmlite::QueuePolicy::kFifo,
                          slurmlite::QueuePolicy::kPriority),
        ::testing::Values(1, 2, 3, 8)),
    parity_name);

// Every gate mode keeps its scratch (oracle pair cache, learned estimator
// reads, class rule) inside the cell; all three must survive running
// beside other cells on the pool.
class CellParityGates : public ::testing::TestWithParam<core::GateMode> {};

TEST_P(CellParityGates, GateModeMatchesInlineReference) {
  CellConfig config;
  config.kind = core::StrategyKind::kCoFirstFit;
  config.queue = slurmlite::QueuePolicy::kPriority;
  config.gate = GetParam();
  const auto reference = run_inline(config, trinity());
  runner::ParallelRunner pool(3);
  expect_identical_batches(reference, run_pooled(pool, config, trinity()));
}

std::string gate_name(const ::testing::TestParamInfo<core::GateMode>& info) {
  switch (info.param) {
    case core::GateMode::kOracle:
      return "oracle";
    case core::GateMode::kClassRule:
      return "class_rule";
    case core::GateMode::kLearned:
      return "learned";
  }
  return "unknown";
}

INSTANTIATE_TEST_SUITE_P(AllGateModes, CellParityGates,
                         ::testing::Values(core::GateMode::kOracle,
                                           core::GateMode::kClassRule,
                                           core::GateMode::kLearned),
                         gate_name);

// The tie-break rule under fire: the class-rule gate gives every admit
// the same score, so EVERY ranked candidate ties and selection order rests
// entirely on the (-score, node id) key — pooled cells must pick the same
// nodes at every pool width.
TEST(CellParityTieBreak, ClassRuleTiesResolveIdenticallyAtAnyPoolWidth) {
  CellConfig config;
  config.kind = core::StrategyKind::kCoBackfill;
  config.gate = core::GateMode::kClassRule;
  const auto reference = run_inline(config, trinity());
  for (const auto& cell : reference) {
    EXPECT_GT(cell.result.stats.secondary_starts, 0u);
  }
  for (const int threads : {2, 3, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    runner::ParallelRunner pool(threads);
    expect_identical_batches(reference, run_pooled(pool, config, trinity()));
  }
}

// A larger machine: longer candidate scans and more concurrent decisions
// per pass, still byte-identical beside other cells.
TEST(CellParityScale, LargerMachineKeepsParity) {
  CellConfig config;
  config.nodes = 256;
  config.jobs = 120;
  const auto reference = run_inline(config, trinity());
  runner::ParallelRunner pool(4);
  expect_identical_batches(reference, run_pooled(pool, config, trinity()));
}

}  // namespace
}  // namespace cosched
