// Execution model: tracks running jobs' progress under time-varying SMT
// co-location.
//
// A job's work is its exclusive runtime. While running it accrues progress
// at rate 1/dilation, where dilation is the worst per-node slowdown over
// its allocation (bulk-synchronous apps run at the pace of their slowest
// node). A rate is piecewise constant: it moves only when the job's
// co-residency changes. So each running job keeps its progress in closed
// form, (anchor, progress at anchor, rate), and progress at any later
// instant is `progress + (t - anchor) * rate`. The anchor moves, and
// progress is written, only when a refresh finds that the job's rate
// actually differs from the one it had — a decision event — never because
// time passed or someone looked. The predicted completion instant is
// therefore constant between rate changes, and the controller reschedules
// a completion event only for jobs on the changed list (new starts and
// rate changes). Reading at any set of instants cannot change a result.
#pragma once

#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/catalog.hpp"
#include "cluster/machine.hpp"
#include "core/arena.hpp"
#include "interference/corun_model.hpp"
#include "util/types.hpp"
#include "workload/job.hpp"

namespace cosched::slurmlite {

class ExecutionModel {
 public:
  ExecutionModel(const cluster::Machine& machine,
                 const apps::Catalog& catalog,
                 const interference::CorunModel& corun);

  /// Registers a job that was just allocated on the machine. The caller
  /// must call refresh_rates() at the same instant afterwards: that sets
  /// the job's rate (co-residents' rates change too) and lists it as
  /// changed.
  /// `initial_progress_s` credits already-completed work (checkpoint
  /// restore after a failure requeue).
  void start(const workload::Job& job, SimTime now,
             double initial_progress_s = 0);

  /// Deregisters a finished/killed job. Must be called while the job's
  /// machine allocation is still live (the controller releases the
  /// allocation only after finish()), because tracked entries cache the
  /// allocation pointer.
  void finish(JobId id);

  /// Settles the rates of the jobs resident on `dirty` (the machine's
  /// resynced-since-last-drain node list) at `now`. Rates are memoized
  /// under the machine's per-node generation counters: a job's co-run
  /// slowdown is a pure function of its nodes' slot contents, and its max
  /// node generation moves iff one of its nodes was resynced, so only
  /// residents of dirty nodes can need the (expensive) corun model. A job
  /// whose recomputed rate differs writes its progress at the old rate,
  /// re-anchors at `now` and is listed in changed(); an equal rate touches
  /// nothing. Cost is O(churned nodes), not O(running).
  void refresh_rates(std::span<const NodeId> dirty, SimTime now);

  /// Jobs whose predicted end may have moved in the last refresh_rates()
  /// call — new starts and rate changes, each once, in no particular
  /// order. Valid until the next start(), finish() or refresh_rates().
  const std::vector<JobId>& changed() const { return changed_; }

  /// Instant at which the job completes its remaining work at its current
  /// rate: anchor + ceil(remaining / rate). Constant between rate changes.
  SimTime predicted_end(JobId id) const;

  /// Current dilation (1/rate).
  double dilation(JobId id) const;

  /// Remaining work in exclusive-seconds at `now`.
  double remaining_work_s(JobId id, SimTime now) const;

  /// Completed work in exclusive-seconds at `now`.
  double progress_s(JobId id, SimTime now) const;

  /// Cumulative dilation experienced so far: elapsed / progress.
  double observed_dilation(JobId id, SimTime now) const;

  std::size_t running_count() const { return running_.size(); }
  bool is_running(JobId id) const { return find(id) != nullptr; }

  /// High-water bytes of the rate-computation scratch arena. Feeds the
  /// `arena_bytes_wall` gauge; reporting only.
  std::size_t arena_bytes_high_water() const {
    return arena_.bytes_high_water();
  }

 private:
  struct Running {
    JobId id;
    AppId app;
    SimTime start;
    SimTime anchor;     ///< instant progress_s was last written
    double work_s;      ///< total exclusive-seconds of work
    double progress_s;  ///< exclusive-seconds completed at `anchor`
    double initial_s;   ///< progress credited at start (checkpoint restore)
    double locality;    ///< placement locality dilation (fixed per run)
    double rate;        ///< progress per wall second (= 1/dilation)
    /// Max node_generation() over the allocation when `rate` was computed;
    /// 0 means never computed (node generations start above 0 once
    /// allocated). See refresh_rates().
    std::uint64_t rate_gen = 0;
    /// Last refresh_rates call that visited this entry (multi-node jobs
    /// appear under several dirty nodes; the epoch dedups the visits).
    std::uint64_t visit_epoch = 0;
    /// The job's machine allocation. Allocation records live in a
    /// node-based container, so the pointer is stable from allocate to
    /// release, and the controller always deregisters (finish) before
    /// releasing — valid for this entry's whole lifetime.
    const cluster::Allocation* alloc = nullptr;
  };

  const Running* find(JobId id) const;
  Running* find(JobId id) {
    return const_cast<Running*>(std::as_const(*this).find(id));
  }
  const Running& get(JobId id) const;

  double compute_rate(const Running& r) const;
  static double progress_at(const Running& r, SimTime now);

  const cluster::Machine& machine_;
  const apps::Catalog& catalog_;
  const interference::CorunModel& corun_;
  // Nothing iterates the running table (settling walks dirty nodes'
  // residents), so its order cannot reach a decision.
  std::unordered_map<JobId, Running> running_;
  /// Bump storage for compute_rate's per-node stress/slowdown staging
  /// (controller thread only; frames rewind it per call).
  mutable core::PassArena arena_;
  /// Monotone id of the current refresh_rates call (visit dedup).
  std::uint64_t refresh_epoch_ = 0;
  std::vector<JobId> changed_;  ///< see changed()
};

}  // namespace cosched::slurmlite
