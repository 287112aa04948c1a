#include "src/core/fmoe_policy.h"

#include "src/obs/trace_recorder.h"
#include "src/util/logging.h"

namespace fmoe {

FmoePolicy::FmoePolicy(const ModelConfig& model, int prefetch_distance,
                       const FmoeOptions& options)
    : model_(model),
      prefetch_distance_(prefetch_distance),
      options_(options),
      store_(model, options.store_capacity, prefetch_distance, options.store_dedup,
             options.map_precision, options.map_shards, kSemanticRouterSeed) {}

HybridMatcher& FmoePolicy::MatcherForSlot(int slot) {
  FMOE_CHECK(slot >= 0);
  while (matchers_.size() <= static_cast<size_t>(slot)) {
    matchers_.push_back(std::make_unique<HybridMatcher>(&store_, model_, prefetch_distance_,
                                                        options_.matcher));
  }
  return *matchers_[static_cast<size_t>(slot)];
}

FmoePolicy::PrefetchCommand FmoePolicy::BuildCommand(const HybridMatcher& matcher,
                                                     int target_layer,
                                                     int current_layer) const {
  PrefetchCommand command;
  const Guidance guidance = matcher.GuidanceFor(target_layer);
  if (!guidance.valid) {
    return command;
  }
  command.valid = true;
  command.target_layer = target_layer;
  command.stamp_probs = guidance.probs;
  command.candidates = SelectExperts(guidance.probs, guidance.score, model_.top_k,
                                     target_layer, current_layer, options_.prefetcher);
  return command;
}

void FmoePolicy::ApplyCommand(EngineHandle& engine, const PrefetchCommand& command,
                              double low_precision_threshold, double low_precision_fraction,
                              int host_stage_candidates) {
  // Re-stamp the whole layer's distribution on resident experts so eviction priorities track
  // the *current* matched map, not stale history (§4.5).
  for (size_t j = 0; j < command.stamp_probs.size(); ++j) {
    engine.SetCachedProbability(ExpertId{command.target_layer, static_cast<int>(j)},
                                command.stamp_probs[j]);
  }
  for (const PrefetchCandidate& candidate : command.candidates) {
    const ExpertId id{command.target_layer, candidate.expert};
    if (low_precision_threshold > 0.0 && candidate.probability < low_precision_threshold) {
      // Less-critical expert: stream a reduced-precision copy (lossy extension).
      engine.PrefetchAsyncSized(id, candidate.probability, candidate.priority,
                                low_precision_fraction);
    } else {
      engine.PrefetchAsync(id, candidate.probability, candidate.priority);
    }
  }
  if (host_stage_candidates > 0) {
    // Tier-aware staging: the next-best scored experts that did NOT make the prefetch cut are
    // pushed NVMe→host, so a later match or demand miss pays only the host→GPU hop. Repeated
    // top-1 selection over the (small) expert axis; no-op on two-tier engines.
    std::vector<bool> taken(command.stamp_probs.size(), false);
    for (const PrefetchCandidate& candidate : command.candidates) {
      if (candidate.expert >= 0 && static_cast<size_t>(candidate.expert) < taken.size()) {
        taken[static_cast<size_t>(candidate.expert)] = true;
      }
    }
    for (int n = 0; n < host_stage_candidates; ++n) {
      int best = -1;
      for (size_t j = 0; j < command.stamp_probs.size(); ++j) {
        if (taken[j]) {
          continue;
        }
        if (best < 0 || command.stamp_probs[j] > command.stamp_probs[static_cast<size_t>(best)]) {
          best = static_cast<int>(j);
        }
      }
      if (best < 0 || command.stamp_probs[static_cast<size_t>(best)] <= 0.0) {
        break;
      }
      taken[static_cast<size_t>(best)] = true;
      engine.StageToHostAsync(ExpertId{command.target_layer, best},
                              command.stamp_probs[static_cast<size_t>(best)]);
    }
  }
  // Issuing transfers is a handful of queue operations per candidate — async, cheap.
  engine.AddAsyncWork(OverheadCategory::kPrefetchIssue,
                      1.0e-6 * static_cast<double>(command.candidates.size()));
}

void FmoePolicy::PublishMatchWork(EngineHandle& engine, double cost_seconds, uint64_t topic,
                                  std::vector<PrefetchCommand> commands) {
  DeferredApply apply;
  if (!commands.empty()) {
    apply = [commands = std::move(commands),
             low_precision_threshold = options_.low_precision_threshold,
             low_precision_fraction = options_.low_precision_fraction,
             host_stage_candidates = options_.host_stage_candidates](EngineHandle& e) {
      for (const PrefetchCommand& command : commands) {
        ApplyCommand(e, command, low_precision_threshold, low_precision_fraction,
                     host_stage_candidates);
      }
    };
  }
  engine.PublishDeferred(OverheadCategory::kMapMatching, PublishMode::kAsync, cost_seconds,
                         topic, std::move(apply));
}

void FmoePolicy::OnIterationStart(EngineHandle& engine, const IterationContext& context) {
  engine.AddOverhead(OverheadCategory::kContextCollection,
                     options_.context_collection_sec_per_layer * model_.num_layers);
  HybridMatcher& matcher = MatcherForSlot(context.batch_slot);
  matcher.BeginIteration(context.embedding);
  const double cost = static_cast<double>(matcher.ConsumeSearchFlops()) /
                      options_.search_throughput_flops;
  if (matcher.semantic_found()) {
    semantic_score_sum_ += matcher.semantic_score();
    ++semantic_score_count_;
  }
  // Semantic-matched guidance covers the layers no trajectory can reach yet (§4.2). The whole
  // first window rides one published job: it is one semantic search's worth of matcher work.
  const int first_window = std::min(prefetch_distance_, model_.num_layers);
  std::vector<PrefetchCommand> commands;
  for (int target = 0; target < first_window; ++target) {
    PrefetchCommand command = BuildCommand(matcher, target, /*current_layer=*/-1);
    if (command.valid) {
      commands.push_back(std::move(command));
    }
  }
  PublishMatchWork(engine, cost, StartTopic(context.batch_slot), std::move(commands));
}

void FmoePolicy::OnGateOutput(EngineHandle& engine, const IterationContext& context, int layer,
                              const std::vector<double>& probs,
                              const std::vector<int>& /*activated*/) {
  HybridMatcher& matcher = MatcherForSlot(context.batch_slot);
  matcher.ObserveLayer(layer, probs);
  const double cost = static_cast<double>(matcher.ConsumeSearchFlops()) /
                      options_.search_throughput_flops;
  if (matcher.trajectory_found()) {
    trajectory_score_sum_ += matcher.trajectory_score();
    ++trajectory_score_count_;
  }
  const int target = layer + prefetch_distance_;
  std::vector<PrefetchCommand> commands;
  uint64_t topic = 0;  // Pure-work job (search that guides no in-range layer): no supersession.
  if (target < model_.num_layers) {
    topic = GateTopic(context.batch_slot, target);
    PrefetchCommand command = BuildCommand(matcher, target, layer);
    if (command.valid) {
      commands.push_back(std::move(command));
    }
  }
  PublishMatchWork(engine, cost, topic, std::move(commands));
}

void FmoePolicy::OnIterationEnd(EngineHandle& engine, const IterationContext& context,
                                const std::vector<std::vector<double>>& layer_probs) {
  if (log_scores_) {
    const HybridMatcher& matcher = MatcherForSlot(context.batch_slot);
    IterationScoreSample sample;
    sample.semantic = matcher.semantic_score();
    sample.semantic_valid = matcher.semantic_found();
    sample.trajectory = matcher.trajectory_score();
    sample.trajectory_valid = matcher.trajectory_found();
    score_log_.push_back(sample);
  }
  StoredIteration record;
  record.map = ExpertMap::FromLayerProbs(layer_probs);
  record.embedding = context.embedding;
  record.request_id = context.request->id;
  record.iteration = context.iteration;
  // The store mutates immediately (matcher state cannot diverge across latency scales); the
  // published job carries the update's modeled cost, occupying the background worker.
  int target_shard = 0;
  const uint64_t flops = store_.Insert(std::move(record), &target_shard);
  // Per-shard pseudo-threads (§5i): only sharded stores register tracks, so default-run
  // (1-shard) traces keep the exact track table the §5f goldens pin.
  if (TraceRecorder* trace = engine.trace(); trace != nullptr && store_.num_shards() > 1) {
    if (shard_tracks_.empty()) {
      shard_tracks_.reserve(static_cast<size_t>(store_.num_shards()));
      for (int s = 0; s < store_.num_shards(); ++s) {
        shard_tracks_.push_back(trace->RegisterTrack("store/shard" + std::to_string(s)));
      }
    }
    const int track = shard_tracks_[static_cast<size_t>(target_shard)];
    trace->Instant(track, "store-insert", "store", engine.now(),
                   {TraceArg::Uint("generation", store_.generation(target_shard))});
    trace->Counter(track, "store.shard" + std::to_string(target_shard) + ".size",
                   engine.now(), static_cast<double>(store_.shard(target_shard).size()));
  }
  const double cost =
      static_cast<double>(flops) / options_.search_throughput_flops;
  engine.PublishDeferred(OverheadCategory::kMapUpdate, PublishMode::kAsync, cost,
                         /*topic=*/0, /*apply=*/nullptr);
}

void FmoePolicy::Reset() {
  store_.Clear();
  matchers_.clear();
  semantic_score_sum_ = 0.0;
  semantic_score_count_ = 0;
  trajectory_score_sum_ = 0.0;
  trajectory_score_count_ = 0;
}

double FmoePolicy::MeanSemanticScore() const {
  if (semantic_score_count_ == 0) {
    return 0.0;
  }
  return semantic_score_sum_ / static_cast<double>(semantic_score_count_);
}

double FmoePolicy::MeanTrajectoryScore() const {
  if (trajectory_score_count_ == 0) {
    return 0.0;
  }
  return trajectory_score_sum_ / static_cast<double>(trajectory_score_count_);
}

}  // namespace fmoe
