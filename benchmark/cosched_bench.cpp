// CoSched end-to-end benchmark program.
//
//   cosched_bench --workload NAME --seed N --seconds S --trace 0|1 [--small]
//
// Generates one workload's inputs from --seed, drives the simulator through
// its public entry points (sim::Engine + slurmlite::Controller, with
// submit_stream for streamed cells and submit_all for materialized ones,
// fanned over runner::ParallelRunner for multi-cell workloads), checks the
// outputs against an independent tally of the inputs, and prints one JSON
// result object as the last line of standard output.
//
// --trace 0 repeats whole rounds of the workload until --seconds have
// elapsed and reports the end-to-end metrics. --trace 1 runs the workload
// once each way on the same inputs -- timed (plain), traced (event
// observer, timing JobSource decorator, global profiler) and counted
// (registry attached) -- and reports the per-layer metrics; the traced and
// counted runs must reproduce the timed run's simulated metrics bit for
// bit. All timing happens here, around the calls into each layer; nothing
// is added to the simulator.
//
// --small shrinks every workload so the whole matrix runs in seconds (the
// benchmark's own test, selftest.py).
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "apps/catalog.hpp"
#include "core/scheduler.hpp"
#include "metrics/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "runner/runner.hpp"
#include "sim/engine.hpp"
#include "slurmlite/controller.hpp"
#include "util/rng.hpp"
#include "workload/campaign.hpp"
#include "workload/generator.hpp"
#include "workload/source.hpp"

namespace {

using namespace cosched;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The q-quantile of `v` by the nearest rank at or below q (n-1).
double low_quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// This process's peak resident set in MiB (VmHWM). getrusage's ru_maxrss
/// is not used: it survives exec, so it would report the launching
/// process's peak when that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// A failed output check: the run prints no result and exits nonzero.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

// --- Workloads ----------------------------------------------------------------

/// One simulation of a workload: a machine, a strategy and a job supply.
struct CellSpec {
  slurmlite::ControllerConfig config;
  workload::GeneratorParams params;
  std::uint64_t seed = 0;  ///< generator seed, derived from --seed
  /// Pull jobs lazily, capped at kMaxRuntime, and retire them; otherwise
  /// submit a generated list.
  bool stream = false;
  bool observed = false;  ///< tracer + registry + spans + snapshots
};

struct WorkloadSpec {
  std::string name;
  std::vector<CellSpec> cells;
  /// Cells averaged into the simulated end-to-end metrics: every cell,
  /// except on paper_campaign, which averages the node-sharing strategies
  /// (the side of the study the paper reports on).
  std::vector<std::size_t> study_cells;
  /// Cells run through runner::ParallelRunner (multi-cell studies).
  bool use_runner = false;
};

constexpr SimDuration kSnapshotPeriod = 10 * kMinute;
/// Runner threads for multi-cell studies, at most nproc. Two leave the
/// rest of a small shared host to the launcher and the system, so the
/// round rate measures the simulator rather than the OS scheduler.
constexpr int kRunnerThreads = 2;
/// Streamed workloads cap exclusive runtimes at 8 h, like a partition's
/// MaxTime. Uncapped, the lognormal tail's single longest job (14-25 h
/// over 20k jobs) sets a 16384-node run's makespan, so scheduling
/// efficiency moved by 40% between seeds.
constexpr SimDuration kMaxRuntime = 8 * kHour;

/// A streamed, retiring CoBackfill cell over the Trinity mix.
CellSpec stream_cell(int nodes, int jobs, double load, std::uint64_t seed) {
  CellSpec c;
  c.config.nodes = nodes;
  c.config.strategy = core::StrategyKind::kCoBackfill;
  c.config.retire_finished = true;
  c.params = workload::trinity_stream(nodes, jobs, load);
  c.seed = seed;
  c.stream = true;
  return c;
}

WorkloadSpec make_workload(const std::string& name, std::uint64_t seed,
                           bool small) {
  WorkloadSpec w;
  w.name = name;
  const std::uint64_t cell_seed = derive_seed(seed, 0);
  if (name == "wide_settle") {
    // Shallow queue, thousands of running jobs: settle and completion
    // work dominate. 16k jobs keep the engine's id window below 2^23
    // entries on every seed (see README).
    w.cells.push_back(stream_cell(small ? 1024 : 16384, small ? 1000 : 16000,
                                  1.1, cell_seed));
  } else if (name == "observed_stream") {
    // Every observation hook attached. 64 nodes at load 0.8: on 32 nodes
    // at load 1.0 the queue's depth, and with it the trace records per
    // job, wandered by seed (mean bounded slowdown 4.5-5.4).
    CellSpec c = stream_cell(small ? 32 : 64, small ? 500 : 20000, 0.8,
                             cell_seed);
    c.observed = true;
    w.cells.push_back(c);
  } else if (name == "paper_campaign") {
    // R-T2: standard vs node-sharing allocation, paired on identical job
    // lists per seed, as bench_t2_headline sweeps it, at its default 500
    // jobs per list. A list's strategy-pass cost varies up to 3x with its
    // queue depth, so 40 lists keep one --seed from setting the rate.
    const core::StrategyKind strategies[] = {
        core::StrategyKind::kEasyBackfill, core::StrategyKind::kCoBackfill,
        core::StrategyKind::kFirstFit, core::StrategyKind::kCoFirstFit};
    const int seeds = small ? 2 : 40;
    for (int s = 0; s < seeds; ++s) {
      for (const core::StrategyKind strategy : strategies) {
        CellSpec c;
        c.config.nodes = 32;
        c.config.strategy = strategy;
        c.params = workload::trinity_campaign(32, small ? 200 : 500);
        c.seed = derive_seed(seed, static_cast<std::uint64_t>(s));
        if (core::is_co_strategy(strategy)) {
          w.study_cells.push_back(w.cells.size());
        }
        w.cells.push_back(c);
      }
    }
    w.use_runner = true;
  } else {
    throw std::invalid_argument(
        "unknown --workload '" + name +
        "' (want wide_settle|paper_campaign|observed_stream)");
  }
  if (w.study_cells.empty()) {
    for (std::size_t i = 0; i < w.cells.size(); ++i) w.study_cells.push_back(i);
  }
  return w;
}

/// The workload's inputs, generated from the seed before anything runs.
/// Streamed cells keep a generator and pull jobs during the run (that pull
/// is the ingestion layer); materialized cells hold their job list.
struct PreparedCell {
  const CellSpec* spec = nullptr;
  std::unique_ptr<workload::Generator> generator;
  std::shared_ptr<const workload::JobList> jobs;
};

std::vector<PreparedCell> prepare(const WorkloadSpec& w,
                                  const apps::Catalog& catalog) {
  std::vector<PreparedCell> out(w.cells.size());
  // Cells of one campaign seed share one job list (paired comparison).
  std::map<std::uint64_t, std::shared_ptr<const workload::JobList>> lists;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const CellSpec& c = w.cells[i];
    out[i].spec = &c;
    out[i].generator =
        std::make_unique<workload::Generator>(c.params, catalog);
    if (!c.stream) {
      auto& list = lists[c.seed];
      if (!list) {
        Pcg32 rng(c.seed, 0x5eed);
        list = std::make_shared<const workload::JobList>(
            out[i].generator->generate(rng));
      }
      out[i].jobs = list;
    }
  }
  return out;
}

// --- Probes: everything the benchmark attaches from outside -----------------

/// What the benchmark knows about the jobs it fed in, tallied as they pass
/// into the controller -- independent of anything the simulator reports.
struct Tally {
  std::uint64_t jobs = 0;
  double work_node_s = 0;  ///< sum of nodes x base runtime
  SimTime first_submit = kTimeInfinity;
  SimTime latest_base_end = 0;  ///< max(submit + base runtime)

  void add(const workload::Job& j) {
    ++jobs;
    work_node_s += j.work_node_seconds();
    first_submit = std::min(first_submit, j.submit_time);
    latest_base_end = std::max(latest_base_end, j.submit_time + j.base_runtime);
  }
};

/// The last stage of input generation for streamed cells: applies the
/// run-time cap and tallies each job on its way into the controller.
class FeedSource final : public workload::JobSource {
 public:
  FeedSource(workload::JobSource& inner, Tally& tally)
      : inner_(inner), tally_(tally) {}
  std::optional<workload::Job> next() override {
    auto job = inner_.next();
    if (job) {
      job->base_runtime = std::min(job->base_runtime, kMaxRuntime);
      tally_.add(*job);
    }
    return job;
  }

 private:
  workload::JobSource& inner_;
  Tally& tally_;
};

/// Host time per JobSource::next (the ingestion layer), traced runs only.
class TimedSource final : public workload::JobSource {
 public:
  explicit TimedSource(workload::JobSource& inner) : inner_(inner) {}
  std::optional<workload::Job> next() override {
    const std::uint64_t t0 = now_ns();
    auto job = inner_.next();
    ns += now_ns() - t0;
    ++calls;
    return job;
  }
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;

 private:
  workload::JobSource& inner_;
};

/// Host time per executed event, keyed by the schedule site's label: the
/// interval between two consecutive observer callbacks is charged to the
/// later event. Registered last, so the other observers' work on an event
/// is charged to that event too.
class EventTimer final : public sim::EventObserver {
 public:
  struct Label {
    std::string name;
    std::uint64_t ns = 0;
    std::uint64_t count = 0;
  };

  explicit EventTimer(const sim::Engine& engine) : engine_(engine) {}
  void start() { last_ns_ = now_ns(); }

  void on_event_executed(SimTime, sim::EventPriority, sim::EventId id,
                         const char* label) override {
    const std::uint64_t t = now_ns();
    Label& l = label_for(label);
    l.ns += t - last_ns_;
    ++l.count;
    last_ns_ = t;
    max_id = std::max(max_id, id);
    tombstones_peak = std::max(tombstones_peak, engine_.dead_queued());
  }

  const Label* find(const std::string& name) const {
    for (const Label& l : labels_) {
      if (l.name == name) return &l;
    }
    return nullptr;
  }

  sim::EventId max_id = 0;
  std::size_t tombstones_peak = 0;

 private:
  Label& label_for(const char* label) {
    for (Label& l : labels_) {
      if (l.name == label) return l;
    }
    labels_.push_back(Label{label, 0, 0});
    return labels_.back();
  }

  const sim::Engine& engine_;
  std::vector<Label> labels_;
  std::uint64_t last_ns_ = 0;
};

/// Discarding trace sink that counts records, bytes and `submit` records.
/// The tracer writes each record as one string followed by '\n'.
class CountingSink final : public std::streambuf {
 public:
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
  std::uint64_t submits = 0;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    bytes += static_cast<std::uint64_t>(n);
    static constexpr char kSubmit[] = "\"type\":\"submit\"";
    const std::size_t head = std::min<std::size_t>(
        static_cast<std::size_t>(n), 48);
    if (std::string_view(s, head).find(kSubmit) != std::string_view::npos) {
      ++submits;
    }
    for (std::streamsize i = 0; i < n; ++i) records += s[i] == '\n';
    return n;
  }
  int_type overflow(int_type ch) override {
    if (ch != traits_type::eof()) {
      ++bytes;
      records += ch == '\n';
    }
    return traits_type::not_eof(ch);
  }
};

struct Attach {
  bool traced = false;    ///< EventTimer + TimedSource
  bool registry = false;  ///< counted run
};

/// What one simulation produced, plus whatever its probes measured.
struct CellOutcome {
  metrics::ScheduleMetrics metrics;
  slurmlite::ControllerStats stats;
  Tally tally;
  std::size_t events = 0;
  double host_s = 0;  ///< construction through metrics in hand
  // traced
  std::vector<EventTimer::Label> event_labels;
  sim::EventId max_event_id = 0;
  std::size_t tombstones_peak = 0;
  std::uint64_t next_ns = 0;
  std::uint64_t next_calls = 0;
  // registry (counted run, and every observed run)
  std::uint64_t registry_passes = 0;
  std::uint64_t blocks_skipped = 0;
  double co_scanned_sum = 0;
  std::uint64_t co_scanned_count = 0;
  double arena_bytes = 0;
  // observed
  std::uint64_t trace_records = 0;
  std::uint64_t trace_bytes = 0;
  std::uint64_t trace_submits = 0;
  std::uint64_t spans_submitted = 0;
  std::uint64_t spans_folded = 0;
};

/// The observation a run attaches: observed_stream's tracer (streaming into
/// a counting discard sink), span ledger and snapshot sampler, and the
/// registry (observed_stream and counted runs).
struct Observation {
  CountingSink sink;
  std::ostream sink_stream{&sink};
  obs::Tracer tracer;
  obs::Registry registry;
  obs::SpanLedger spans;
};

/// One simulation, built (the set-up) by the constructor and drained by
/// run(). Members are declared so that everything the engine references
/// outlives it, and the controller dies before the engine.
class Simulation {
 public:
  Simulation(const PreparedCell& cell, const apps::Catalog& catalog,
             const Attach& attach)
      : cell_(cell) {
    const CellSpec& spec = *cell.spec;
    slurmlite::ControllerConfig config = spec.config;
    if (spec.observed || attach.registry) {
      obs_ = std::make_unique<Observation>();
      config.registry = &obs_->registry;
    }
    if (spec.observed) {
      obs_->tracer.stream_to(&obs_->sink_stream);
      config.tracer = &obs_->tracer;
      config.spans = &obs_->spans;
      config.snapshot_period = kSnapshotPeriod;
    }
    engine_ = std::make_unique<sim::Engine>();
    if (spec.observed) {
      // Mirror the engine events into the trace, as run_stream does.
      event_tracer_.emplace(obs_->tracer);
      engine_->add_observer(&*event_tracer_);
    }
    controller_ =
        std::make_unique<slurmlite::Controller>(*engine_, config, catalog);
    if (attach.traced) {
      timer_.emplace(*engine_);
      engine_->add_observer(&*timer_);
    }
    if (spec.stream) {
      generated_.emplace(*cell.generator, Pcg32(spec.seed, 0x5eed));
      fed_.emplace(*generated_, tally_);
      workload::JobSource* top = &*fed_;
      if (attach.traced) {
        timed_.emplace(*fed_);
        top = &*timed_;
      }
      controller_->submit_stream(*top);
    } else {
      for (const workload::Job& j : *cell.jobs) tally_.add(j);
      controller_->submit_all(*cell.jobs);
    }
  }
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  CellOutcome run() {
    CellOutcome out;
    if (timer_) timer_->start();
    engine_->run();
    const slurmlite::Controller& c = *controller_;
    out.metrics = c.retire_mode()
                      ? c.stream_metrics()
                      : metrics::compute(c.job_records(),
                                         c.machine_state().node_count());
    out.stats = c.stats();
    out.events = engine_->executed();
    out.tally = tally_;
    if (timer_) {
      for (const char* name :
           {"submit", "schedule_pass", "job_end", "timeout"}) {
        const EventTimer::Label* l = timer_->find(name);
        out.event_labels.push_back(
            l != nullptr ? *l : EventTimer::Label{name, 0, 0});
      }
      out.max_event_id = timer_->max_id;
      out.tombstones_peak = timer_->tombstones_peak;
    }
    if (timed_) {
      out.next_ns = timed_->ns;
      out.next_calls = timed_->calls;
    }
    if (obs_) {
      obs::Registry& reg = obs_->registry;
      out.registry_passes = reg.counter("scheduler_passes").value();
      out.blocks_skipped = reg.counter("index_blocks_skipped_wall").value();
      // Created empty (any bound) when no co-allocation scan ran.
      const obs::Histogram& h = reg.histogram("co_nodes_scanned", {1.0});
      out.co_scanned_sum = h.sum();
      out.co_scanned_count = h.count();
      out.arena_bytes = reg.gauge("arena_bytes_wall").value();
    }
    if (cell_.spec->observed) {
      obs_->sink_stream.flush();
      out.trace_records = obs_->tracer.size();
      out.trace_bytes = obs_->sink.bytes;
      out.trace_submits = obs_->sink.submits;
      require(obs_->sink.records == obs_->tracer.size(),
              "trace sink saw " + std::to_string(obs_->sink.records) +
                  " records, tracer reports " +
                  std::to_string(obs_->tracer.size()));
      out.spans_submitted = obs_->spans.submitted();
      out.spans_folded = obs_->spans.wait().count();
    }
    // The simulator's own end-of-run invariants, as run_stream checks them:
    // machine drained, no job left in flight.
    c.machine_state().check_invariants();
    if (c.retire_mode()) {
      require(c.resident_jobs() == 0,
              std::to_string(c.resident_jobs()) + " jobs never finished");
    }
    return out;
  }

 private:
  const PreparedCell& cell_;
  std::unique_ptr<Observation> obs_;
  Tally tally_;
  std::optional<workload::GeneratorJobSource> generated_;
  std::optional<FeedSource> fed_;
  std::optional<TimedSource> timed_;
  std::optional<obs::EventTracer> event_tracer_;
  std::optional<EventTimer> timer_;
  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<slurmlite::Controller> controller_;
};

// --- Rounds -------------------------------------------------------------------

struct Round {
  std::vector<CellOutcome> cells;
  double wall_s = 0;
  int threads = 1;
};

Round run_round(const std::vector<PreparedCell>& cells,
                const apps::Catalog& catalog, const Attach& attach,
                runner::ParallelRunner* pool) {
  Round r;
  r.cells.resize(cells.size());
  auto one = [&](std::size_t i) {
    const auto t0 = Clock::now();
    Simulation sim(cells[i], catalog, attach);
    r.cells[i] = sim.run();
    r.cells[i].host_s = seconds_since(t0);
  };
  const auto t0 = Clock::now();
  if (pool != nullptr) {
    pool->for_each(cells.size(), one);
    r.threads = pool->threads();
  } else {
    for (std::size_t i = 0; i < cells.size(); ++i) one(i);
  }
  r.wall_s = seconds_since(t0);
  return r;
}

std::uint64_t jobs_final(const Round& r) {
  std::uint64_t n = 0;
  for (const CellOutcome& c : r.cells) {
    n += static_cast<std::uint64_t>(c.metrics.jobs_completed) +
         static_cast<std::uint64_t>(c.metrics.jobs_timeout);
  }
  return n;
}

std::uint64_t jobs_fed(const Round& r) {
  std::uint64_t n = 0;
  for (const CellOutcome& c : r.cells) n += c.tally.jobs;
  return n;
}

/// Jobs that did not complete: timed out, cancelled, or never final.
std::uint64_t jobs_failed(const Round& r) {
  std::uint64_t n = 0;
  for (const CellOutcome& c : r.cells) {
    n += c.tally.jobs - static_cast<std::uint64_t>(c.metrics.jobs_completed);
  }
  return n;
}

/// Set-up time: generate the inputs, build every cell's engine, controller
/// and machine, and submit -- everything before the first simulated event.
/// A sample repeats the set-up `batch` times (calibrated so a sample lasts
/// at least 2 ms, far above the clock's resolution) and reports the mean.
class SetupTimer {
 public:
  SetupTimer(const WorkloadSpec& w, const apps::Catalog& catalog)
      : w_(w), catalog_(catalog) {
    const double warm = once();  // first touch of the heap; not reported
    batch_ = std::max(1, static_cast<int>(std::ceil(0.002 / warm)));
  }
  void sample() {
    double total = 0;
    for (int b = 0; b < batch_; ++b) total += once();
    samples_.push_back(total / batch_);
  }
  double median_s() const { return median(samples_); }

 private:
  double once() const {
    const auto t0 = Clock::now();
    const auto cells = prepare(w_, catalog_);
    std::vector<std::unique_ptr<Simulation>> sims;
    sims.reserve(cells.size());
    for (const PreparedCell& c : cells) {
      sims.push_back(std::make_unique<Simulation>(c, catalog_, Attach{}));
    }
    return seconds_since(t0);
  }

  const WorkloadSpec& w_;
  const apps::Catalog& catalog_;
  int batch_ = 1;
  std::vector<double> samples_;
};

// --- Checks -------------------------------------------------------------------

bool close(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// Checks one cell's outputs against the input tally and against
/// properties the co-scheduling method must have.
void check_cell(const CellOutcome& c, const CellSpec& spec,
                const std::string& where) {
  const metrics::ScheduleMetrics& m = c.metrics;
  const Tally& t = c.tally;
  const double smt = spec.config.node_config.smt_per_core;
  const double nodes = spec.config.nodes;
  require(t.jobs > 0, where + ": no jobs fed");
  require(static_cast<std::uint64_t>(m.jobs_total) == t.jobs,
          where + ": jobs_total " + std::to_string(m.jobs_total) +
              " != fed " + std::to_string(t.jobs));
  if (m.jobs_timeout == 0 &&
      static_cast<std::uint64_t>(m.jobs_completed) == t.jobs) {
    require(close(m.total_work_node_s, t.work_node_s, 1e-9),
            where + ": total_work_node_s " +
                std::to_string(m.total_work_node_s) + " != fed work " +
                std::to_string(t.work_node_s));
  }
  // No job runs faster than its exclusive runtime, and no node does more
  // than `smt` nodes' worth of work per second.
  const double lower_bound =
      std::max(to_seconds(t.latest_base_end - t.first_submit),
               t.work_node_s / (nodes * smt));
  require(m.makespan_s >= lower_bound * (1 - 1e-12),
          where + ": makespan " + std::to_string(m.makespan_s) +
              " s below lower bound " + std::to_string(lower_bound));
  require(m.utilization > 0 && m.utilization <= 1 + 1e-9,
          where + ": utilization " + std::to_string(m.utilization));
  require(m.scheduling_efficiency > 0 && m.scheduling_efficiency <= smt,
          where + ": scheduling efficiency " +
              std::to_string(m.scheduling_efficiency));
  require(m.computational_efficiency > 0 && m.computational_efficiency <= smt,
          where + ": computational efficiency " +
              std::to_string(m.computational_efficiency));
  require(m.mean_bounded_slowdown >= 1,
          where + ": mean bounded slowdown " +
              std::to_string(m.mean_bounded_slowdown));
  if (!core::is_co_strategy(spec.config.strategy)) {
    // Exclusive strategies run every job unshared for its exact runtime.
    require(std::fabs(m.computational_efficiency - 1.0) <= 1e-9,
            where + ": exclusive computational efficiency " +
                std::to_string(m.computational_efficiency) + " != 1");
  }
  if (spec.observed) {
    require(c.trace_submits == t.jobs,
            where + ": " + std::to_string(c.trace_submits) +
                " submit trace records for " + std::to_string(t.jobs) +
                " jobs");
    require(c.spans_submitted == t.jobs,
            where + ": span ledger saw " + std::to_string(c.spans_submitted) +
                " submissions");
    const auto finished = static_cast<std::uint64_t>(m.jobs_completed) +
                          static_cast<std::uint64_t>(m.jobs_timeout);
    require(c.spans_folded == finished,
            where + ": " + std::to_string(c.spans_folded) +
                " folded spans for " + std::to_string(finished) +
                " finished jobs");
  }
}

void check_round(const Round& r, const WorkloadSpec& w) {
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    const CellSpec& spec = w.cells[i];
    check_cell(r.cells[i], spec,
               w.name + " cell " + std::to_string(i) + " (" +
                   core::to_string(spec.config.strategy) + ")");
  }
}

/// Every simulated quantity a run reports, compared bit for bit.
bool same_simulation(const CellOutcome& a, const CellOutcome& b) {
  const metrics::ScheduleMetrics &x = a.metrics, &y = b.metrics;
  auto fields = [](const metrics::ScheduleMetrics& m) {
    return std::array<double, 17>{
        m.makespan_s, m.total_work_node_s, m.busy_node_s,
        m.lost_work_node_s, m.scheduling_efficiency,
        m.computational_efficiency, m.utilization, m.mean_wait_s,
        m.p95_wait_s, m.max_wait_s, m.mean_bounded_slowdown,
        m.p95_bounded_slowdown, m.mean_dilation, m.shared_node_s,
        m.throughput_jobs_per_h, m.energy_kwh, m.work_node_h_per_kwh};
  };
  const auto xs = fields(x), ys = fields(y);
  return std::memcmp(xs.data(), ys.data(), sizeof(xs)) == 0 &&
         x.jobs_total == y.jobs_total &&
         x.jobs_completed == y.jobs_completed &&
         x.jobs_timeout == y.jobs_timeout &&
         a.stats.scheduler_passes == b.stats.scheduler_passes &&
         a.stats.primary_starts == b.stats.primary_starts &&
         a.stats.secondary_starts == b.stats.secondary_starts &&
         a.stats.completions == b.stats.completions &&
         a.stats.timeouts == b.stats.timeouts;
}

void check_identical(const Round& reference, const Round& other,
                     const std::string& what) {
  for (std::size_t i = 0; i < reference.cells.size(); ++i) {
    require(same_simulation(reference.cells[i], other.cells[i]),
            what + " changed the simulated outcome of cell " +
                std::to_string(i));
  }
}

// --- Reporting ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Mean of one simulated metric over the workload's study cells.
double study_mean(const Round& r, const WorkloadSpec& w,
                  double metrics::ScheduleMetrics::*field) {
  double sum = 0;
  for (std::size_t i : w.study_cells) sum += r.cells[i].metrics.*field;
  return sum / static_cast<double>(w.study_cells.size());
}

/// The result line. `correct` is always true here: a failed check throws
/// before anything is printed.
void print_result(std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"correct\": true, \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) o << ", ";
    o << '"' << metrics[i].name << "\": {\"value\": " << metrics[i].value
      << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      a.small = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
      if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = v == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

/// --trace 0: whole rounds until --seconds elapse; end-to-end metrics.
int run_timed(const Args& args, const WorkloadSpec& w,
              const apps::Catalog& catalog, runner::ParallelRunner* pool) {
  SetupTimer setup(w, catalog);
  const auto cells = prepare(w, catalog);
  std::vector<Round> rounds;
  std::vector<double> rates;
  double peak_mb = 0;
  const auto t0 = Clock::now();
  do {
    // Set-up samples interleave with the rounds, so both see the same
    // phases of a shared host's load.
    for (int i = 0; i < 3; ++i) setup.sample();
    rounds.push_back(run_round(cells, catalog, Attach{}, pool));
    // Peak RSS of set-up plus one round; later rounds reuse a heap whose
    // shape depends on how many rounds fit, which is host speed.
    if (rounds.size() == 1) peak_mb = peak_rss_mb();
    const Round& r = rounds.back();
    check_round(r, w);
    if (rounds.size() > 1) check_identical(rounds.front(), r, "a repeat round");
    rates.push_back(static_cast<double>(jobs_final(r)) / r.wall_s);
  } while (seconds_since(t0) < args.seconds);

  std::uint64_t attempted = 0, failed = 0;
  for (const Round& r : rounds) {
    attempted += jobs_fed(r);
    failed += jobs_failed(r);
  }
  const Round& first = rounds.front();
  const std::vector<Metric> metrics = {
      // The 10th percentile of the rounds' rates: a shared host alternates,
      // for seconds at a time, between a contended state and a faster one;
      // every run visits the contended state, so its floor repeats where the
      // median follows the mix of states (README, "Spread").
      {"jobs_per_s", low_quantile(rates, 0.1), "1/s"},
      {"peak_rss_mb", peak_mb, "MB"},
      {"setup_s", setup.median_s(), "s"},
      {"scheduling_efficiency",
       study_mean(first, w, &metrics::ScheduleMetrics::scheduling_efficiency),
       "ratio"},
      {"computational_efficiency",
       study_mean(first, w,
                  &metrics::ScheduleMetrics::computational_efficiency),
       "ratio"},
      {"mean_bounded_slowdown",
       study_mean(first, w, &metrics::ScheduleMetrics::mean_bounded_slowdown),
       "ratio"},
  };
  std::cerr << w.name << ": " << rounds.size() << " round(s) in "
            << seconds_since(t0) << " s; jobs/s per round:";
  for (double r : rates) std::cerr << ' ' << static_cast<long>(r);
  std::cerr << '\n';
  print_result(attempted, failed, metrics);
  return 0;
}

struct PhaseTotals {
  std::map<std::string, obs::PhaseStats> phases;
  double total_s(const std::string& name) const {
    auto it = phases.find(name);
    return it == phases.end() ? 0 : static_cast<double>(it->second.total_ns) / 1e9;
  }
  std::uint64_t calls(const std::string& name) const {
    auto it = phases.find(name);
    return it == phases.end() ? 0 : it->second.calls;
  }
};

PhaseTotals profiler_totals() {
  PhaseTotals t;
  for (const obs::ThreadProfile& tp : obs::profiler_snapshot()) {
    for (const auto& [name, s] : tp.phases) {
      obs::PhaseStats& acc = t.phases[name];
      acc.calls += s.calls;
      acc.total_ns += s.total_ns;
      acc.max_ns = std::max(acc.max_ns, s.max_ns);
    }
  }
  return t;
}

/// --trace 1: timed, traced and counted runs on the same inputs; per-layer
/// metrics. The traced and counted runs must not change the simulation.
int run_traced(const WorkloadSpec& w, const apps::Catalog& catalog,
               runner::ParallelRunner* pool) {
  const auto cells = prepare(w, catalog);
  const Round timed = run_round(cells, catalog, Attach{}, pool);
  check_round(timed, w);

  obs::profiler_reset();
  obs::set_profiling_enabled(true);
  const Round traced = run_round(cells, catalog, Attach{true, false}, pool);
  obs::set_profiling_enabled(false);
  const PhaseTotals prof = profiler_totals();
  check_round(traced, w);
  check_identical(timed, traced, "the traced run");

  const Round counted = run_round(cells, catalog, Attach{false, true}, pool);
  check_round(counted, w);
  check_identical(timed, counted, "the counted run");

  // Observation overhead: the same inputs with the workload's observation
  // stripped (observed_stream only).
  double overhead_ratio = 0;
  bool observed = false;
  for (const CellSpec& c : w.cells) observed = observed || c.observed;
  if (observed) {
    WorkloadSpec bare = w;
    for (CellSpec& c : bare.cells) c.observed = false;
    const auto bare_cells = prepare(bare, catalog);
    const Round plain = run_round(bare_cells, catalog, Attach{}, pool);
    check_round(plain, bare);
    check_identical(timed, plain, "removing observation");
    overhead_ratio = timed.wall_s / plain.wall_s;
  }

  const double jobs = static_cast<double>(jobs_fed(timed));
  double events = 0, pushes = 0, tombstones = 0, passes = 0;
  double next_ns = 0, next_calls = 0, sim_host_s = 0;
  double reg_passes = 0, skipped = 0, co_sum = 0, co_count = 0, arena = 0;
  double records = 0, bytes = 0;
  std::map<std::string, std::pair<double, double>> by_label;  // ns, count
  for (const CellOutcome& c : traced.cells) {
    events += static_cast<double>(c.events);
    pushes += static_cast<double>(c.max_event_id);
    tombstones = std::max(tombstones, static_cast<double>(c.tombstones_peak));
    passes += static_cast<double>(c.stats.scheduler_passes);
    next_ns += static_cast<double>(c.next_ns);
    next_calls += static_cast<double>(c.next_calls);
    sim_host_s += c.host_s;
    for (const EventTimer::Label& l : c.event_labels) {
      by_label[l.name].first += static_cast<double>(l.ns);
      by_label[l.name].second += static_cast<double>(l.count);
    }
  }
  for (const CellOutcome& c : counted.cells) {
    reg_passes += static_cast<double>(c.registry_passes);
    skipped += static_cast<double>(c.blocks_skipped);
    co_sum += c.co_scanned_sum;
    co_count += static_cast<double>(c.co_scanned_count);
    arena = std::max(arena, c.arena_bytes);
  }
  for (const CellOutcome& c : timed.cells) {
    records += static_cast<double>(c.trace_records);
    bytes += static_cast<double>(c.trace_bytes);
  }
  if (next_calls == 0) {
    // Materialized cells: ingestion is generating the job lists (shared by
    // the cells of one seed), which happens in set-up.
    const auto t0 = Clock::now();
    const auto again = prepare(w, catalog);
    next_ns = seconds_since(t0) * 1e9;
    std::vector<const workload::JobList*> lists;
    for (const PreparedCell& c : again) {
      if (c.jobs && std::find(lists.begin(), lists.end(), c.jobs.get()) ==
                        lists.end()) {
        lists.push_back(c.jobs.get());
        next_calls += static_cast<double>(c.jobs->size());
      }
    }
  }
  auto event_us = [&](const std::string& label) {
    const auto& [ns, count] = by_label[label];
    return ratio(ns / 1e3, count);
  };
  const double completion_s =
      (by_label["job_end"].first + by_label["timeout"].first) / 1e9;
  const bool ran_runner = pool != nullptr;
  const double cell_s = prof.total_s("runner_cell");
  const std::vector<Metric> metrics = {
      {"sim.events_executed_per_job", ratio(events, jobs), "count"},
      {"sim.events_pushed_per_job", ratio(pushes, jobs), "count"},
      {"sim.tombstones_peak", tombstones, "count"},
      {"sim.event_us.submit", event_us("submit"), "us"},
      {"sim.event_us.schedule_pass", event_us("schedule_pass"), "us"},
      {"sim.event_us.job_end", event_us("job_end"), "us"},
      {"sim.event_us.timeout", event_us("timeout"), "us"},
      {"workload.next_us", ratio(next_ns / 1e3, next_calls), "us"},
      {"core.pass_strategy_s", prof.total_s("pass_strategy"), "s"},
      {"core.pass_strategy_us",
       ratio(prof.total_s("pass_strategy") * 1e6,
             static_cast<double>(prof.calls("pass_strategy"))),
       "us"},
      {"core.passes_per_job", ratio(passes, jobs), "count"},
      {"slurmlite.pass_settle_s", prof.total_s("pass_settle"), "s"},
      {"slurmlite.completion_s", completion_s, "s"},
      {"slurmlite.unprofiled_share",
       1.0 - ratio(prof.total_s("schedule_pass"), sim_host_s), "ratio"},
      {"cluster.blocks_skipped_per_pass", ratio(skipped, reg_passes),
       "count"},
      {"cluster.co_nodes_scanned_mean", ratio(co_sum, co_count), "count"},
      {"cluster.arena_kib", arena / 1024.0, "KiB"},
      {"obs.trace_records_per_job", ratio(records, jobs), "count"},
      {"obs.trace_bytes_per_job", ratio(bytes, jobs), "B"},
      {"obs.overhead_ratio", overhead_ratio, "ratio"},
      {"runner.cell_s",
       ran_runner ? ratio(cell_s, static_cast<double>(prof.calls("runner_cell")))
                  : 0,
       "s"},
      {"runner.busy_share",
       ran_runner ? ratio(cell_s, traced.wall_s * traced.threads) : 0,
       "ratio"},
  };
  std::uint64_t attempted = 0, failed = 0;
  for (const Round* r : {&timed, &traced, &counted}) {
    attempted += jobs_fed(*r);
    failed += jobs_failed(*r);
  }
  print_result(attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const WorkloadSpec w = make_workload(args.workload, args.seed, args.small);
    const apps::Catalog catalog = apps::Catalog::trinity();
    std::optional<runner::ParallelRunner> pool;
    if (w.use_runner) {
      pool.emplace(std::min({runner::resolve_threads(0), kRunnerThreads,
                             static_cast<int>(w.cells.size())}));
    }
    runner::ParallelRunner* p = pool ? &*pool : nullptr;
    return args.trace ? run_traced(w, catalog, p)
                      : run_timed(args, w, catalog, p);
  } catch (const CheckFailure& e) {
    std::cerr << "check failed: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
