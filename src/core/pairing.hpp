// Co-allocation policy: which pending job may share which busy nodes.
//
// The gate has three parts (DESIGN.md "Core contribution"):
//   1. consent  — both the candidate and every job already on the node are
//      marked shareable;
//   2. benefit  — the interference model predicts node combined throughput
//      of at least 1 + theta per extra job (theta = pairing_threshold);
//   3. safety   — no job's predicted dilation exceeds max_dilation, and
//      (when the caller asks, as CoBackfill does) the candidate's walltime
//      end does not outlive any primary it would join, so backfill
//      reservations computed from walltime bounds stay valid.
//
// The candidate scan is one serial loop over the machine's free-secondary
// index in ascending node id order (DESIGN.md "Serial scheduler passes"
// explains why it is not split across threads).
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "core/arena.hpp"
#include "core/scheduler.hpp"
#include "obs/trace.hpp"

namespace cosched::core {

class CoAllocator {
 public:
  explicit CoAllocator(CoAllocationOptions options);

  const CoAllocationOptions& options() const { return options_; }

  /// Evaluates the gate for placing `candidate` onto `node` next to the
  /// jobs already there. Returns the node's predicted combined throughput
  /// if admissible, nullopt otherwise.
  std::optional<double> admissible(SchedulerHost& host, JobId candidate,
                                   NodeId node, bool respect_deadline) const;

  /// Chooses nodes for `candidate` as a secondary allocation: all
  /// admissible nodes ranked by predicted combined throughput (ties by
  /// node id for determinism), truncated to the job's node request.
  /// Returns nullopt when fewer admissible nodes exist than requested.
  std::optional<std::vector<NodeId>> select_nodes(
      SchedulerHost& host, JobId candidate, bool respect_deadline) const;

  /// Ranking score given to class-rule admits and learned-mode admits of
  /// unseen pairs (no quantitative prediction available).
  static constexpr double kLearnedFallbackScore = 1.0;

  /// High-water bytes of the gate arena. Feeds the `arena_bytes_wall`
  /// gauge; reporting only.
  std::size_t arena_bytes_high_water() const {
    return gate_.arena.bytes_high_water();
  }

 private:
  /// Candidate-side state, fetched once per select_nodes pass instead of
  /// once per scanned node (host lookups are virtual map accesses).
  struct Candidate {
    const workload::Job* job;
    const apps::AppModel* app;
    SimTime walltime_end;  ///< now + walltime_limit, for deadline gates
  };

  /// Memoized resident-side state: everything the gate needs about one
  /// job already on a node, resolved from the host once per machine
  /// change instead of once per scanned (candidate, node) pair.
  struct Resident {
    bool shareable;
    const apps::AppModel* app;
    SimTime walltime_end;
  };

  /// A node's residents in slot order, stamped with the machine's node
  /// generation at fill time. Stale stamps trigger a rebuild; fresh ones
  /// serve the whole scan without a single host lookup. Slot order is
  /// preserved so the gate walks residents exactly as the uncached code
  /// did and reports the same first-failure reason codes.
  struct NodeResidents {
    std::uint64_t gen = 0;  ///< 0 = never filled (live nodes stamp > 0)
    std::vector<Resident> residents;
  };

  /// One memoized oracle gate outcome: the score when admitted, plus the
  /// rejection reason so cache hits still explain themselves to the trace.
  struct CachedGate {
    std::optional<double> score;
    obs::ReasonCode reason;
  };

  /// The mutable state gate evaluations read and write. Gate outcomes are
  /// pure functions of pass state, so the caches below change only the
  /// cost of a result, never the result.
  struct GateScratch {
    /// Why the most recent node_admissible() call went the way it did:
    /// kAccepted after an admit, else the first fence hit.
    obs::ReasonCode last_reason = obs::ReasonCode::kAccepted;
    /// Oracle-mode gate outcomes per (resident-app, candidate-app) pair.
    /// Stress vectors and gate options are immutable, so the two-job gate
    /// result is a pure pair function; caching it removes the dominant
    /// cost of co-allocation passes (recomputing pair slowdowns per node).
    std::unordered_map<std::uint64_t, CachedGate> oracle_pair_cache;
    /// Per-node resident snapshots (indexed by NodeId, grown lazily to
    /// the machine size). Validated against Machine::node_generation on
    /// every query, so snapshots survive across passes until the node
    /// actually changes.
    std::vector<NodeResidents> node_cache;
    /// Machine::instance_id() the snapshots above were filled from.
    /// Distinct machines can share generation histories (same
    /// construction + mutation sequence), so generation stamps alone
    /// cannot detect that the host switched machines; the instance id
    /// can. 0 = cache never filled.
    std::uint64_t cache_machine = 0;
    std::vector<const apps::AppModel*> apps_scratch;
    /// Bump storage for per-gate arrays (multi-resident stress staging):
    /// pointer-bump instead of a malloc/free pair per gate.
    PassArena arena;
  };

  /// The per-node gate body behind admissible()/select_nodes(); assumes
  /// the node's secondary slot is free and the candidate side is already
  /// shareable.
  std::optional<double> node_admissible(SchedulerHost& host,
                                        const Candidate& cand, NodeId node,
                                        bool respect_deadline) const;

  CoAllocationOptions options_;
  /// Gate scratch shared by select_nodes() and the public admissible()
  /// probe. A CoAllocator belongs to one scheduler, which belongs to one
  /// simulation cell, so mutable scratch needs no synchronization.
  mutable GateScratch gate_;
  mutable std::vector<std::pair<double, NodeId>> ranked_scratch_;
};

}  // namespace cosched::core
