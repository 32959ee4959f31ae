#include "core/pairing.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace cosched::core {

namespace {

/// The class rule: admit exactly the complementary pairings — one side
/// compute-bound, the other not. The cheap deployable heuristic the
/// learned gate falls back to.
bool classes_complementary(apps::AppClass a, apps::AppClass b) {
  const bool a_compute = (a == apps::AppClass::kComputeBound);
  const bool b_compute = (b == apps::AppClass::kComputeBound);
  return a_compute != b_compute;
}

}  // namespace

CoAllocator::CoAllocator(CoAllocationOptions options) : options_(options) {
  COSCHED_CHECK(options_.pairing_threshold >= 0);
  COSCHED_CHECK(options_.max_dilation >= 1.0);
  COSCHED_CHECK(options_.min_samples >= 1);
}

std::optional<double> CoAllocator::admissible(SchedulerHost& host,
                                              JobId candidate, NodeId node_id,
                                              bool respect_deadline) const {
  const workload::Job& cand = host.job(candidate);
  const apps::AppModel& cand_app = host.app_of(candidate);
  if (!cand.shareable || !cand_app.shareable) {
    gate_.last_reason = obs::ReasonCode::kCandidateNotShareable;
    return std::nullopt;
  }
  if (!host.machine().node(node_id).secondary_free()) {
    gate_.last_reason = obs::ReasonCode::kInsufficientNodes;
    return std::nullopt;
  }
  return node_admissible(
      host, Candidate{&cand, &cand_app, host.now() + cand.walltime_limit},
      node_id, respect_deadline);
}

std::optional<double> CoAllocator::node_admissible(
    SchedulerHost& host, const Candidate& cand, NodeId node_id,
    bool respect_deadline) const {
  GateScratch& scratch = gate_;
  const cluster::Machine& machine = host.machine();
  const apps::AppModel& cand_app = *cand.app;

  // Consent and (optionally) deadline checks are common to every gate.
  // Resident-side host lookups are served from the per-node
  // snapshot, rebuilt only when the node's generation moved — the same
  // node is scanned by every candidate of every pass, but changes rarely.
  const std::size_t node_idx = static_cast<std::size_t>(node_id);
  if (scratch.cache_machine != machine.instance_id()) {
    // The host switched machines (test fixtures reuse one allocator across
    // scenarios): every snapshot is for the wrong machine, even where the
    // generation stamps happen to coincide.
    scratch.node_cache.clear();
    scratch.cache_machine = machine.instance_id();
  }
  if (scratch.node_cache.size() <= node_idx) {
    scratch.node_cache.resize(static_cast<std::size_t>(machine.node_count()));
  }
  NodeResidents& cache = scratch.node_cache[node_idx];
  const std::uint64_t gen = machine.node_generation(node_id);
  if (cache.gen != gen) {
    cache.residents.clear();
    for (JobId resident : machine.node(node_id).slot_jobs()) {
      if (resident == kInvalidJob) continue;
      const workload::Job& r = host.job(resident);
      const apps::AppModel& app = host.app_of(resident);
      cache.residents.push_back(Resident{r.shareable && app.shareable, &app,
                                         host.walltime_end(resident)});
    }
    cache.gen = gen;
  }
  std::vector<const apps::AppModel*>& resident_apps = scratch.apps_scratch;
  resident_apps.clear();
  for (const Resident& r : cache.residents) {
    if (!r.shareable) {
      scratch.last_reason = obs::ReasonCode::kResidentNotShareable;
      return std::nullopt;
    }
    resident_apps.push_back(r.app);
    if (respect_deadline) {
      // The candidate must be gone (by walltime bound) before any resident
      // primary's walltime end, so reservation math stays valid.
      if (cand.walltime_end > r.walltime_end) {
        scratch.last_reason = obs::ReasonCode::kWalltimeFence;
        return std::nullopt;
      }
    }
  }

  switch (options_.gate_mode) {
    case GateMode::kOracle: {
      // Fast path: the common two-job case is a pure function of the app
      // pair; memoize it.
      if (resident_apps.size() == 1) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(resident_apps[0]->id) << 32) |
            static_cast<std::uint32_t>(cand_app.id);
        const auto cached = scratch.oracle_pair_cache.find(key);
        if (cached != scratch.oracle_pair_cache.end()) {
          scratch.last_reason = cached->second.reason;
          return cached->second.score;
        }
        const auto [sd_res, sd_cand] = host.corun().pair_slowdowns(
            resident_apps[0]->stress, cand_app.stress);
        CachedGate outcome{std::nullopt, obs::ReasonCode::kAccepted};
        const double throughput = 1.0 / sd_res + 1.0 / sd_cand;
        if (sd_res > options_.max_dilation ||
            sd_cand > options_.max_dilation) {
          outcome.reason = obs::ReasonCode::kDilationCap;
        } else if (throughput < 1.0 + options_.pairing_threshold) {
          outcome.reason = obs::ReasonCode::kBelowThreshold;
        } else {
          outcome.score = throughput;
        }
        scratch.oracle_pair_cache.emplace(key, outcome);
        scratch.last_reason = outcome.reason;
        return outcome.score;
      }
      // Arena bump storage: pointer bumps instead of the malloc/free
      // pairs the no-per-pass-alloc lint rule bans from this loop.
      PassArena::Frame gate_frame = scratch.arena.frame();
      const std::size_t nstress = resident_apps.size() + 1;
      std::span<apps::StressVector> stresses =
          gate_frame.alloc_span<apps::StressVector>(nstress);
      for (std::size_t i = 0; i < resident_apps.size(); ++i) {
        stresses[i] = resident_apps[i]->stress;
      }
      stresses[resident_apps.size()] = cand_app.stress;
      std::span<double> slowdowns = gate_frame.alloc_span<double>(nstress);
      host.corun().slowdowns_into(stresses, gate_frame.alloc_span<double>(nstress),
                                  slowdowns);
      double throughput = 0;
      for (double sd : slowdowns) {
        if (sd > options_.max_dilation) {
          scratch.last_reason = obs::ReasonCode::kDilationCap;
          return std::nullopt;
        }
        // Combine order is pinned: slowdowns come back in stress-vector
        // submission order, and any future parallel split must reduce the
        // partials in that same order to stay bit-identical.
        throughput += 1.0 / sd;  // cosched-lint: fixed-combine
      }
      const auto extra_jobs = static_cast<double>(stresses.size() - 1);
      if (throughput < 1.0 + options_.pairing_threshold * extra_jobs) {
        scratch.last_reason = obs::ReasonCode::kBelowThreshold;
        return std::nullopt;
      }
      scratch.last_reason = obs::ReasonCode::kAccepted;
      return throughput;
    }

    case GateMode::kClassRule: {
      for (const apps::AppModel* app : resident_apps) {
        if (!classes_complementary(cand_app.app_class, app->app_class)) {
          scratch.last_reason = obs::ReasonCode::kClassMismatch;
          return std::nullopt;
        }
      }
      scratch.last_reason = obs::ReasonCode::kAccepted;
      return 1.0;  // no quantitative prediction: all admits rank equal
    }

    case GateMode::kLearned: {
      const interference::PairEstimator* est = host.pair_estimator();
      COSCHED_CHECK_MSG(est != nullptr,
                        "learned gate mode requires a host pair estimator");
      double score = kLearnedFallbackScore;
      for (const apps::AppModel* app : resident_apps) {
        const auto tput = est->combined_throughput(cand_app.id, app->id,
                                                   options_.min_samples);
        if (!tput) {
          // Unseen pair: explore via the class rule.
          if (!classes_complementary(cand_app.app_class, app->app_class)) {
            scratch.last_reason = obs::ReasonCode::kClassMismatch;
            return std::nullopt;
          }
          continue;
        }
        // Seen pair: quantitative gate from history.
        if (est->estimate(cand_app.id, app->id).dilation >
                options_.max_dilation ||
            est->estimate(app->id, cand_app.id).dilation >
                options_.max_dilation) {
          scratch.last_reason = obs::ReasonCode::kDilationCap;
          return std::nullopt;
        }
        if (*tput < 1.0 + options_.pairing_threshold) {
          scratch.last_reason = obs::ReasonCode::kBelowThreshold;
          return std::nullopt;
        }
        score = std::min(score == kLearnedFallbackScore ? *tput : score,
                         *tput);
      }
      scratch.last_reason = obs::ReasonCode::kAccepted;
      return score;
    }
  }
  COSCHED_CHECK(false);
  return std::nullopt;
}

std::optional<std::vector<NodeId>> CoAllocator::select_nodes(
    SchedulerHost& host, JobId candidate, bool respect_deadline) const {
  obs::Tracer* tracer = host.tracer();
  const workload::Job& cand = host.job(candidate);
  const apps::AppModel& cand_app = host.app_of(candidate);
  if (!cand.shareable || !cand_app.shareable) {
    if (tracer != nullptr) {
      tracer->co_decision(candidate, /*accepted=*/false,
                          obs::ReasonCode::kCandidateNotShareable,
                          /*scanned=*/0, /*admissible=*/0, nullptr,
                          obs::ReasonCounts{});
    }
    return std::nullopt;
  }
  const Candidate ctx{&cand, &cand_app,
                      host.now() + cand.walltime_limit};
  const int wanted = cand.nodes;
  const cluster::Machine& machine = host.machine();
  std::vector<std::pair<double, NodeId>>& ranked =
      ranked_scratch_;  // (-throughput, node)
  ranked.clear();
  // The candidate scan walks the machine's free-secondary index (ascending
  // node id, same order as the historical full rescan) instead of testing
  // every node.
  obs::ReasonCounts rejects;
  int scanned = 0;
  for (NodeId n : machine.free_secondary_nodes()) {
    ++scanned;
    if (auto score = node_admissible(host, ctx, n, respect_deadline)) {
      ranked.emplace_back(-*score, n);
    } else {
      rejects.add(gate_.last_reason);
    }
  }
  if (obs::Registry* registry = host.registry()) {
    registry
        ->histogram("co_nodes_scanned",
                    {1, 2, 4, 8, 16, 32, 64, 128, 256, 512})
        .observe(scanned);
  }
  if (static_cast<int>(ranked.size()) < wanted) {
    if (tracer != nullptr) {
      tracer->co_decision(candidate, /*accepted=*/false,
                          obs::ReasonCode::kInsufficientNodes, scanned,
                          static_cast<int>(ranked.size()), nullptr, rejects);
    }
    return std::nullopt;
  }
  // Only the best `wanted` entries are taken; keys (-score, id) are unique,
  // so a partial sort yields exactly the full sort's prefix — including
  // the tie-break: equal scores order by lower node id.
  std::partial_sort(ranked.begin(),
                    ranked.begin() + static_cast<std::ptrdiff_t>(wanted),
                    ranked.end());
  std::vector<NodeId> nodes;
  nodes.reserve(static_cast<std::size_t>(wanted));
  for (int i = 0; i < wanted; ++i) {
    nodes.push_back(ranked[static_cast<std::size_t>(i)].second);
  }
  if (tracer != nullptr) {
    tracer->co_decision(candidate, /*accepted=*/true,
                        obs::ReasonCode::kAccepted, scanned,
                        static_cast<int>(ranked.size()), &nodes, rejects);
  }
  return nodes;
}

}  // namespace cosched::core
