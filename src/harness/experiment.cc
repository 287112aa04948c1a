#include "src/harness/experiment.h"

#include <algorithm>
#include <memory>
#include <span>
#include <string>

#include "src/serving/engine.h"
#include "src/util/logging.h"
#include "src/util/stats.h"

namespace fmoe {
namespace {

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

DatasetProfile ApplyCaps(DatasetProfile dataset, const ExperimentOptions& options) {
  if (options.max_decode_tokens > 0) {
    dataset.max_decode_tokens = options.max_decode_tokens;
  }
  return dataset;
}

EngineConfig MakeEngineConfig(const ExperimentOptions& options, const SystemSpec& spec) {
  EngineConfig config;
  config.prefetch_distance = options.prefetch_distance;
  config.gpu_count = options.gpu_count;
  config.expert_cache_bytes = spec.preload_all ? 0 : ResolveCacheBytes(options);
  config.cache_policy = spec.cache_policy;
  config.preload_all = spec.preload_all;
  config.frequency_decay = options.frequency_decay;
  config.placement = options.placement;
  config.gate = options.gate;
  config.hardware = options.hardware;
  config.seed = options.seed;
  config.matcher_latency_scale = options.matcher_latency_scale;
  config.matcher_queue_depth = options.matcher_queue_depth;
  config.tier = options.tier;
  config.trace = options.trace;
  return config;
}

SystemSpec MakeSystemFor(const std::string& system_name, const ExperimentOptions& options) {
  return MakeSystem(system_name, options.model, options.prefetch_distance,
                    options.store_capacity, options.low_precision_threshold,
                    options.map_precision, options.host_stage_candidates,
                    options.map_shards);
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
  if (engine.store().enabled()) {
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

// Serves `request` on `engine`, first offering it to `controller` (may be null) for SLO
// shedding against the wait it has already accrued. Returns true when it was served. This is
// the cluster-side admission point: RunCluster serves routed arrivals back to back, so the
// only admission decision is shed-or-serve (batch limits belong to the scheduler protocol).
bool ServeWithAdmission(ServingEngine* engine, AdmissionController* controller,
                        const Request& request) {
  if (controller == nullptr) {
    engine->ServeRequest(request);
    return true;
  }
  controller->OnArrived();
  const double now = std::max(engine->now(), request.arrival_time);
  controller->BeginAdmission(now);
  if (controller->ShouldReject(request, now)) {
    controller->OnRejected();
    return false;
  }
  engine->ServeRequest(request);
  controller->OnAdmitted();
  return true;
}

}  // namespace

uint64_t ResolveCacheBytes(const ExperimentOptions& options) {
  if (options.cache_bytes != 0) {
    return options.cache_bytes;
  }
  const double total = static_cast<double>(options.model.total_expert_bytes());
  return static_cast<uint64_t>(total * options.cache_fraction);
}

ExperimentResult RunOffline(const std::string& system_name, const ExperimentOptions& options) {
  WorkloadGenerator generator(ApplyCaps(options.dataset, options), options.seed);
  std::vector<Request> requests =
      generator.Generate(options.history_requests + options.test_requests);
  WorkloadSplit split = SplitWorkload(
      std::move(requests),
      static_cast<double>(options.history_requests) /
          static_cast<double>(options.history_requests + options.test_requests));

  SystemSpec spec = MakeSystemFor(system_name, options);
  auto* fmoe_policy = dynamic_cast<FmoePolicy*>(spec.policy.get());
  ServingEngine engine(options.model, MakeEngineConfig(options, spec), spec.policy.get());
  GateDecisionRecorder oracle_recorder;
  if (options.oracle) {
    // Attached before warmup: the post-warmup metrics reset clears the tape, so it covers
    // exactly the measured requests (same window as the trace recorder).
    engine.SetOracleRecorder(&oracle_recorder);
  }
  engine.WarmupWithHistory(split.history);
  if (fmoe_policy != nullptr && options.enable_score_log) {
    fmoe_policy->EnableScoreLog();
  }

  const int batch = std::max(options.batch_size, 1);
  for (size_t i = 0; i < split.test.size(); i += static_cast<size_t>(batch)) {
    const size_t count = std::min(static_cast<size_t>(batch), split.test.size() - i);
    engine.ServeBatch(std::span<const Request>(split.test.data() + i, count));
  }

  ExperimentResult result;
  FillResult(system_name, options, engine, spec,
             options.oracle ? &oracle_recorder : nullptr, &result);
  return result;
}

ExperimentResult RunOnline(const std::string& system_name, const ExperimentOptions& options,
                           const TraceProfile& trace, size_t request_count) {
  // Online protocol: empty history (§6.3) — serve straight off the trace, FIFO.
  TraceGenerator generator(trace, ApplyCaps(options.dataset, options), options.seed);
  return RunReplay(system_name, options, generator.Generate(request_count));
}

ExperimentResult RunScheduledReplay(const std::string& system_name,
                                    const ExperimentOptions& options,
                                    const std::vector<Request>& requests,
                                    const SchedulerOptions& sched) {
  SystemSpec spec = MakeSystemFor(system_name, options);
  ServingEngine engine(options.model, MakeEngineConfig(options, spec), spec.policy.get());
  GateDecisionRecorder oracle_recorder;
  if (options.oracle) {
    engine.SetOracleRecorder(&oracle_recorder);
  }
  ContinuousBatchScheduler scheduler(&engine, sched);
  const std::vector<RequestMetrics> completed = scheduler.Run(requests);

  ExperimentResult result;
  FillResult(system_name, options, engine, spec,
             options.oracle ? &oracle_recorder : nullptr, &result);
  result.scheduler_stats = scheduler.stats();
  if (sched.admission.policy != AdmissionPolicyKind::kOpenLoop) {
    result.admission_enabled = true;
    result.admission_policy = sched.admission.policy;
    result.admission = scheduler.controller().counters();
  }
  // The scheduler owns request completion: its drained metrics (completion order) replace the
  // engine-side per-request view, and end-to-end latencies include queueing.
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

ExperimentResult RunScheduled(const std::string& system_name, const ExperimentOptions& options,
                              const TraceProfile& trace, size_t request_count,
                              const SchedulerOptions& sched) {
  TraceGenerator generator(trace, ApplyCaps(options.dataset, options), options.seed);
  return RunScheduledReplay(system_name, options, generator.Generate(request_count), sched);
}

ExperimentResult RunCluster(const std::string& system_name, const ExperimentOptions& options,
                            const TraceProfile& trace, size_t request_count) {
  TraceGenerator generator(trace, ApplyCaps(options.dataset, options), options.seed);
  const std::vector<Request> requests = generator.Generate(request_count);

  const int replicas = std::max(options.replicas, 1);
  const auto replica_count = static_cast<size_t>(replicas);
  ClusterOptions cluster_options;
  cluster_options.replicas = replicas;
  cluster_options.router = options.router_policy;
  cluster_options.memory = options.cluster_memory;

  std::vector<SystemSpec> specs;
  std::vector<std::unique_ptr<ServingEngine>> engines;
  // One tape per replica (each engine is its own cache + links); the per-replica gap
  // reports are summed into one merged block below.
  std::vector<GateDecisionRecorder> oracle_recorders(options.oracle ? replica_count : 0);
  specs.reserve(replica_count);
  engines.reserve(replica_count);
  for (int r = 0; r < replicas; ++r) {
    specs.push_back(MakeSystemFor(system_name, options));
    EngineConfig config = MakeEngineConfig(options, specs.back());
    if (replicas > 1) {
      // Traces attach to replica 0 only (one timeline per recorder); its tracks carry the
      // replica prefix so cluster traces are distinguishable from single-engine ones.
      config.trace_track_prefix = "replica" + std::to_string(r) + "/";
      if (r > 0) {
        config.trace = nullptr;
      }
      if (options.cluster_memory == ClusterMemoryMode::kPartition &&
          !specs.back().preload_all) {
        config.expert_cache_bytes =
            std::max<uint64_t>(config.expert_cache_bytes / replica_count, 1);
      }
    }
    engines.push_back(std::make_unique<ServingEngine>(options.model, config,
                                                      specs.back().policy.get()));
    if (options.oracle) {
      engines.back()->SetOracleRecorder(&oracle_recorders[static_cast<size_t>(r)]);
    }
  }

  // Per-replica controllers (closed-loop policies only): each replica's controller sees only
  // its routed arrivals and drives only that engine's knobs, composing with the router.
  std::vector<std::unique_ptr<AdmissionController>> controllers(replica_count);
  if (options.admission.policy != AdmissionPolicyKind::kOpenLoop) {
    for (size_t r = 0; r < replica_count; ++r) {
      controllers[r] = MakeAdmissionController(options.admission);
      engines[r]->SetAdmissionController(controllers[r].get());
    }
  }

  RequestRouter router(cluster_options, options.seed ^ kSemanticRouterSeed);
  std::vector<ReplicaLoad> loads(replica_count);
  std::vector<int> assignment(requests.size(), 0);
  for (size_t i = 0; i < requests.size(); ++i) {
    std::vector<double> prompt_embedding;
    if (replicas > 1 && options.router_policy == RouterPolicy::kSemanticAffinity) {
      prompt_embedding = engines[0]->embedder().PromptEmbedding(requests[i].routing);
    }
    const int r = router.Route(requests[i], prompt_embedding, loads);
    assignment[i] = r;
    if (!ServeWithAdmission(engines[static_cast<size_t>(r)].get(),
                            controllers[static_cast<size_t>(r)].get(), requests[i])) {
      assignment[i] = -1;  // Shed at the replica door: no latency to merge, no load charged.
      continue;
    }
    loads[static_cast<size_t>(r)].busy_until = engines[static_cast<size_t>(r)]->now();
    ++loads[static_cast<size_t>(r)].assigned;
  }
  for (const auto& engine : engines) {
    engine->SetAdmissionController(nullptr);
  }

  // Merge: each replica's result is built as a single engine's would be, then pooled.
  // Counters, breakdowns and byte budgets add; every mean is recomputed over the pooled
  // population (requests for TTFT and end-to-end, decoding requests for TPOT, expert
  // servings for the hit rate and precision share, score samples for the similarity
  // scores), so a single replica pools to exactly its own result.
  std::vector<ExperimentResult> parts(replica_count);
  for (size_t r = 0; r < replica_count; ++r) {
    FillResult(system_name, options, *engines[r], specs[r],
               options.oracle ? &oracle_recorders[r] : nullptr, &parts[r]);
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
  for (size_t r = 0; r < replica_count; ++r) {
    const ServingEngine& engine = *engines[r];
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
    if (const auto* fmoe_policy = dynamic_cast<const FmoePolicy*>(specs[r].policy.get())) {
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
      result.admission_enabled = true;
      result.admission_policy = options.admission.policy;
      result.admission.arrived += controllers[r]->counters().arrived;
      result.admission.admitted += controllers[r]->counters().admitted;
      result.admission.rejected += controllers[r]->counters().rejected;
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

  // Arrival-order latencies: walk the assignment with per-replica cursors (each replica
  // served its subset in arrival order).
  result.request_latencies.clear();
  result.request_latencies.reserve(requests.size());
  std::vector<size_t> cursor(replica_count, 0);
  for (size_t i = 0; i < requests.size(); ++i) {
    if (assignment[i] < 0) {
      continue;  // Shed before service: contributes a rejection, not a latency.
    }
    const auto r = static_cast<size_t>(assignment[i]);
    FMOE_CHECK(cursor[r] < parts[r].request_latencies.size());
    result.request_latencies.push_back(parts[r].request_latencies[cursor[r]++]);
  }

  // The summary is filled at every replica count; the report prints it only for R > 1.
  result.cluster_enabled = replicas > 1;
  result.cluster.replicas = replicas;
  result.cluster.router = options.router_policy;
  result.cluster.memory = options.cluster_memory;
  result.cluster.aggregate_throughput_rps =
      result.cluster.makespan > 0.0
          ? static_cast<double>(ttfts.size()) / result.cluster.makespan
          : 0.0;
  return result;
}

ExperimentResult RunReplay(const std::string& system_name, const ExperimentOptions& options,
                           const std::vector<Request>& requests) {
  SystemSpec spec = MakeSystemFor(system_name, options);
  ServingEngine engine(options.model, MakeEngineConfig(options, spec), spec.policy.get());
  GateDecisionRecorder oracle_recorder;
  if (options.oracle) {
    engine.SetOracleRecorder(&oracle_recorder);
  }
  for (const Request& request : requests) {
    engine.ServeRequest(request);
  }

  ExperimentResult result;
  FillResult(system_name, options, engine, spec,
             options.oracle ? &oracle_recorder : nullptr, &result);
  return result;
}

}  // namespace fmoe
