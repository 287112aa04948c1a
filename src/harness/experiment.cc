#include "src/harness/experiment.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "src/serving/engine.h"
#include "src/util/logging.h"
#include "src/util/stats.h"

namespace fmoe {
namespace {

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

EngineConfig MakeEngineConfig(const ExperimentOptions& options, const SystemSpec& spec) {
  EngineConfig config;
  config.prefetch_distance = options.prefetch_distance;
  config.gpu_count = options.gpu_count;
  config.expert_cache_bytes = spec.preload_all ? 0 : ResolveCacheBytes(options);
  config.cache_policy = spec.cache_policy;
  config.preload_all = spec.preload_all;
  config.frequency_decay = options.frequency_decay;
  config.placement = options.placement;
  config.seed = options.seed;
  config.matcher_latency_scale = options.matcher_latency_scale;
  config.matcher_queue_depth = options.matcher_queue_depth;
  config.tier = options.tier;
  config.trace = options.trace;
  return config;
}

// `oracle_recorder` is the engine's gate-decision tape when options.oracle is on (null
// otherwise); the clairvoyant replay runs here, after the engine has finished the window.
void FillResult(const std::string& system_name, const ExperimentOptions& options,
                const ServingEngine& engine, const SystemSpec& spec,
                const GateDecisionRecorder* oracle_recorder, ExperimentResult* result) {
  const RunMetrics& metrics = engine.metrics();
  result->system = system_name;
  result->mean_ttft = metrics.MeanTtft();
  result->mean_tpot = metrics.MeanTpot();
  result->hit_rate = metrics.HitRate();
  result->mean_e2e = metrics.MeanEndToEnd();
  result->iterations = metrics.iterations();
  result->breakdown = metrics.breakdown();
  result->deferred = metrics.deferred();
  result->cache_capacity_gb = static_cast<double>(engine.cache().capacity_bytes()) / kGiB;
  result->cache_used_gb = static_cast<double>(engine.cache().used_bytes()) / kGiB;
  result->request_latencies = metrics.EndToEndLatencies();
  result->low_precision_share = metrics.LowPrecisionShare();
  if (engine.config().tier.nvme_backing) {
    result->tier_enabled = true;
    result->tier = engine.store().stats();
    result->host_capacity_gb =
        static_cast<double>(engine.store().host().capacity_bytes()) / kGiB;
    result->host_used_gb = static_cast<double>(engine.store().host().used_bytes()) / kGiB;
  }
  if (options.keep_iteration_records) {
    result->iteration_records = metrics.iteration_records();
  }
  if (const auto* fmoe_policy = dynamic_cast<const FmoePolicy*>(spec.policy.get())) {
    result->mean_semantic_score = fmoe_policy->MeanSemanticScore();
    result->mean_trajectory_score = fmoe_policy->MeanTrajectoryScore();
    if (options.enable_score_log) {
      result->score_log = fmoe_policy->score_log();
    }
  }
  if (oracle_recorder != nullptr) {
    result->oracle_enabled = true;
    OracleConfig oracle_config;
    oracle_config.expert_bytes = options.model.expert_bytes;
    oracle_config.link = engine.config().gpu.link;
    result->oracle = ComputeOracleReport(*oracle_recorder, oracle_config,
                                         metrics.breakdown().demand_stall);
  }
}

// Offers `request` to `controller` (null: open loop, admit everything) for SLO shedding
// against the wait it has already accrued on `engine`. Returns whether to serve it. Lockstep
// runs serve admitted requests back to back, so the only decision is shed-or-serve (batch
// limits belong to the scheduler).
bool Admit(AdmissionController* controller, const ServingEngine& engine,
           const Request& request) {
  if (controller == nullptr) {
    return true;
  }
  controller->OnArrived();
  const double now = std::max(engine.now(), request.arrival_time);
  controller->BeginAdmission(now);
  if (controller->ShouldReject(request, now)) {
    controller->OnRejected();
    return false;
  }
  controller->OnAdmitted();
  return true;
}

void CheckBooks(const AdmissionCounters& counters) {
  FMOE_CHECK_MSG(counters.arrived == counters.admitted + counters.rejected,
                 "admission ledger out of balance: arrived != admitted + rejected");
}

}  // namespace

bool ExperimentTask::HasTag(const std::string& tag) const {
  return std::find(tags.begin(), tags.end(), tag) != tags.end();
}

WorkloadSplit GenerateSplit(const ExperimentOptions& options) {
  WorkloadGenerator generator(CapDecodeTokens(options.dataset, options.max_decode_tokens),
                              options.seed);
  WorkloadSplit split;
  split.history = generator.Generate(options.history_requests);
  split.test = generator.Generate(options.test_requests);
  return split;
}

uint64_t ResolveCacheBytes(const ExperimentOptions& options) {
  if (options.cache_bytes != 0) {
    return options.cache_bytes;
  }
  const double total = static_cast<double>(options.model.total_expert_bytes());
  return static_cast<uint64_t>(total * options.cache_fraction);
}

Replica MakeReplica(const std::string& system, const ExperimentOptions& options, int index) {
  Replica replica;
  replica.spec = MakeSystem(system, options.model, options.prefetch_distance,
                            options.store_capacity, options.low_precision_threshold,
                            options.map_precision, options.host_stage_candidates,
                            options.map_shards);
  EngineConfig config = MakeEngineConfig(options, replica.spec);
  if (options.replicas > 1) {
    // Traces attach to replica 0 only (one timeline per recorder); its tracks carry the
    // replica prefix so cluster traces are distinguishable from single-engine ones.
    config.trace_track_prefix = "replica" + std::to_string(index) + "/";
    if (index > 0) {
      config.trace = nullptr;
    }
    if (options.cluster_memory == ClusterMemoryMode::kPartition && !replica.spec.preload_all) {
      config.expert_cache_bytes = std::max<uint64_t>(
          config.expert_cache_bytes / static_cast<uint64_t>(options.replicas), 1);
    }
  }
  replica.engine =
      std::make_unique<ServingEngine>(options.model, config, replica.spec.policy.get());
  return replica;
}

ExperimentResult RunExperiment(const ExperimentTask& task) {
  const ExperimentOptions& options = task.options;
  const bool split = task.source == RequestSource::kSplit;
  const bool lockstep = task.serving == Serving::kLockstep;
  const bool closed_loop = options.admission.policy != AdmissionPolicyKind::kOpenLoop;
  const int replica_count = std::max(options.replicas, 1);
  const auto replicas = static_cast<size_t>(replica_count);
  FMOE_CHECK_MSG(!split || (lockstep && replicas == 1 && !closed_loop),
                 "the 7:3 split is served lockstep on one replica with open-loop admission");
  FMOE_CHECK_MSG(lockstep || replicas == 1, "continuous batching runs on one replica");
  FMOE_CHECK_MSG(!lockstep || options.batch_size <= 1 || (replicas == 1 && !closed_loop),
                 "routing and closed-loop admission decide per request: batch size must be 1");

  // The requests, plus the split's history.
  std::vector<Request> history;
  std::vector<Request> generated;
  if (split) {
    WorkloadSplit workload = GenerateSplit(options);
    history = std::move(workload.history);
    generated = std::move(workload.test);
  } else if (task.source == RequestSource::kTrace) {
    // The trace sets every length, so the decode cap does not apply.
    generated = TraceGenerator(task.trace, options.dataset, options.seed)
                    .Generate(task.request_count);
  }
  const std::vector<Request>& requests =
      task.source == RequestSource::kRequests ? task.requests : generated;

  // The engines. Each keeps its own gate-decision tape (its own cache and links); the oracle
  // attaches before warmup, whose metrics reset clears the tape, so it covers exactly the
  // measured requests (the trace recorder's window). Lockstep closed-loop runs give each
  // replica a controller that sees only its routed arrivals and drives only its engine.
  // Tapes and controllers are declared first so they outlive the engines that point at them.
  std::vector<GateDecisionRecorder> tapes(options.oracle ? replicas : 0);
  std::vector<std::unique_ptr<AdmissionController>> controllers(replicas);
  std::vector<Replica> engines;
  engines.reserve(replicas);
  for (size_t r = 0; r < replicas; ++r) {
    engines.push_back(MakeReplica(task.system, options, static_cast<int>(r)));
    ServingEngine& engine = *engines[r].engine;
    if (options.oracle) {
      engine.SetOracleRecorder(&tapes[r]);
    }
    if (lockstep && closed_loop) {
      controllers[r] = MakeAdmissionController(options.admission);
      engine.SetAdmissionController(controllers[r].get());
    }
  }
  if (split) {
    engines[0].engine->WarmupWithHistory(history);
  }
  if (options.enable_score_log) {
    for (Replica& replica : engines) {
      if (auto* fmoe_policy = dynamic_cast<FmoePolicy*>(replica.spec.policy.get())) {
        fmoe_policy->EnableScoreLog();
      }
    }
  }

  // Serve. Lockstep: each batch goes to the replica the router picks (always 0 at R == 1),
  // unless that replica's controller sheds it; `assignment` records where each request went
  // (-1: shed). Continuous: the scheduler admits, batches and completes everything.
  std::vector<int> assignment(requests.size(), 0);
  std::optional<ContinuousBatchScheduler> scheduler;
  std::vector<RequestMetrics> completed;
  if (lockstep) {
    ClusterOptions cluster_options;
    cluster_options.replicas = replica_count;
    cluster_options.router = options.router_policy;
    cluster_options.memory = options.cluster_memory;
    RequestRouter router(cluster_options, options.seed ^ kSemanticRouterSeed);
    std::vector<ReplicaLoad> loads(replicas);
    const auto batch = static_cast<size_t>(std::max(options.batch_size, 1));
    for (size_t i = 0; i < requests.size(); i += batch) {
      const std::span<const Request> chunk(requests.data() + i,
                                           std::min(batch, requests.size() - i));
      std::vector<double> prompt_embedding;
      if (replicas > 1 && options.router_policy == RouterPolicy::kSemanticAffinity) {
        prompt_embedding = engines[0].engine->embedder().PromptEmbedding(chunk[0].routing);
      }
      const auto r = static_cast<size_t>(router.Route(chunk[0], prompt_embedding, loads));
      ServingEngine& engine = *engines[r].engine;
      if (!Admit(controllers[r].get(), engine, chunk[0])) {
        assignment[i] = -1;  // Shed at the replica door: no latency to merge, no load charged.
        continue;
      }
      engine.ServeBatch(chunk);
      std::fill_n(assignment.begin() + static_cast<std::ptrdiff_t>(i), chunk.size(),
                  static_cast<int>(r));
      loads[r].busy_until = engine.now();
      ++loads[r].assigned;
    }
  } else {
    SchedulerOptions sched = task.scheduler;
    sched.admission = options.admission;
    scheduler.emplace(engines[0].engine.get(), sched);
    completed = scheduler->Run(requests);
  }

  // The trace's stall report is replica 0's own attribution (only replica 0 is traced).
  if (options.trace != nullptr) {
    options.trace->set_stall(engines[0].engine->signal_stall());
  }

  // Merge: each replica's result is built as a single engine's would be, then pooled.
  // Counters, breakdowns and byte budgets add; every mean is recomputed over the pooled
  // population (requests for TTFT and end-to-end, decoding requests for TPOT, expert
  // servings for the hit rate and precision share, score samples for the similarity
  // scores), so a single replica pools to exactly its own result.
  std::vector<ExperimentResult> parts(replicas);
  for (size_t r = 0; r < replicas; ++r) {
    const ServingEngine& engine = *engines[r].engine;
    FMOE_CHECK_MSG(engine.TransferTagsConsistent(), "engine transfer tags inconsistent");
    FMOE_CHECK_MSG(engine.TierBookkeepingConsistent(), "engine tier bookkeeping inconsistent");
    FillResult(task.system, options, engine, engines[r].spec,
               options.oracle ? &tapes[r] : nullptr, &parts[r]);
  }
  ExperimentResult result = parts[0];
  std::vector<double> ttfts;
  std::vector<double> tpots;
  std::vector<double> e2es;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t low_precision_hits = 0;
  double semantic_sum = 0.0;
  uint64_t semantic_count = 0;
  double trajectory_sum = 0.0;
  uint64_t trajectory_count = 0;
  bool fmoe_family = false;
  for (size_t r = 0; r < replicas; ++r) {
    const ServingEngine& engine = *engines[r].engine;
    const RunMetrics& metrics = engine.metrics();
    const ExperimentResult& part = parts[r];
    for (const RequestMetrics& request : metrics.requests()) {
      ttfts.push_back(request.Ttft());
      e2es.push_back(request.EndToEnd());
      if (request.decode_iterations > 0) {
        tpots.push_back(request.Tpot());
      }
    }
    hits += metrics.expert_hits();
    misses += metrics.expert_misses();
    low_precision_hits += metrics.low_precision_hits();
    if (const auto* fmoe_policy = dynamic_cast<const FmoePolicy*>(engines[r].spec.policy.get())) {
      fmoe_family = true;
      semantic_sum += fmoe_policy->semantic_score_sum();
      semantic_count += fmoe_policy->semantic_score_count();
      trajectory_sum += fmoe_policy->trajectory_score_sum();
      trajectory_count += fmoe_policy->trajectory_score_count();
    }
    if (r > 0) {
      result.iterations += part.iterations;
      result.breakdown.Accumulate(part.breakdown);
      result.deferred.Accumulate(part.deferred);
      result.cache_capacity_gb += part.cache_capacity_gb;
      result.cache_used_gb += part.cache_used_gb;
      result.tier.Accumulate(part.tier);
      result.host_capacity_gb += part.host_capacity_gb;
      result.host_used_gb += part.host_used_gb;
      result.iteration_records.insert(result.iteration_records.end(),
                                      part.iteration_records.begin(),
                                      part.iteration_records.end());
      result.score_log.insert(result.score_log.end(), part.score_log.begin(),
                              part.score_log.end());
      if (options.oracle) {
        AccumulateOracleReport(&result.oracle, part.oracle);
      }
    }
    if (controllers[r] != nullptr) {
      const AdmissionCounters& counters = controllers[r]->counters();
      CheckBooks(counters);
      result.admission.arrived += counters.arrived;
      result.admission.admitted += counters.admitted;
      result.admission.rejected += counters.rejected;
    }

    ClusterReplicaStats stats;
    stats.replica = static_cast<int>(r);
    stats.requests = metrics.requests().size();
    stats.iterations = part.iterations;
    stats.mean_e2e = part.mean_e2e;
    stats.hit_rate = part.hit_rate;
    stats.busy_until = engine.now();
    result.cluster.makespan = std::max(result.cluster.makespan, engine.now());
    result.cluster.replica_stats.push_back(stats);
  }
  result.mean_ttft = Mean(ttfts);
  result.mean_tpot = Mean(tpots);
  result.mean_e2e = Mean(e2es);
  const uint64_t servings = hits + misses;
  result.hit_rate =
      servings == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(servings);
  result.low_precision_share =
      servings == 0 ? 0.0
                    : static_cast<double>(low_precision_hits) / static_cast<double>(servings);
  if (fmoe_family) {
    result.mean_semantic_score =
        semantic_count == 0 ? 0.0 : semantic_sum / static_cast<double>(semantic_count);
    result.mean_trajectory_score =
        trajectory_count == 0 ? 0.0 : trajectory_sum / static_cast<double>(trajectory_count);
  }

  // The summary is filled at every replica count; the report prints it only for R > 1.
  result.cluster_enabled = replicas > 1;
  result.cluster.replicas = replica_count;
  result.cluster.router = options.router_policy;
  result.cluster.memory = options.cluster_memory;
  result.cluster.aggregate_throughput_rps =
      result.cluster.makespan > 0.0
          ? static_cast<double>(ttfts.size()) / result.cluster.makespan
          : 0.0;
  if (closed_loop) {
    result.admission_enabled = true;
    result.admission_policy = options.admission.policy;
  }

  if (lockstep) {
    // Arrival-order latencies: walk the assignment with per-replica cursors (each replica
    // served its subset in arrival order).
    result.request_latencies.clear();
    result.request_latencies.reserve(requests.size());
    std::vector<size_t> cursor(replicas, 0);
    for (size_t i = 0; i < requests.size(); ++i) {
      if (assignment[i] < 0) {
        continue;  // Shed before service: contributes a rejection, not a latency.
      }
      const auto r = static_cast<size_t>(assignment[i]);
      FMOE_CHECK(cursor[r] < parts[r].request_latencies.size());
      result.request_latencies.push_back(parts[r].request_latencies[cursor[r]++]);
    }
    return result;
  }

  // The scheduler owns request completion: its drained metrics (completion order) replace the
  // engine-side per-request view, and end-to-end latencies include queueing.
  result.scheduler_stats = scheduler->stats();
  CheckBooks(scheduler->controller().counters());
  if (closed_loop) {
    result.admission = scheduler->controller().counters();
  }
  result.request_latencies.clear();
  result.scheduled_tokens = 0;
  double e2e_sum = 0.0;
  for (const RequestMetrics& metrics : completed) {
    result.request_latencies.push_back(metrics.EndToEnd());
    e2e_sum += metrics.EndToEnd();
    result.scheduled_tokens += static_cast<uint64_t>(metrics.decode_iterations) + 1;
  }
  result.mean_e2e =
      completed.empty() ? 0.0 : e2e_sum / static_cast<double>(completed.size());
  return result;
}

}  // namespace fmoe
