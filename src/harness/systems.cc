#include "src/harness/systems.h"

#include "src/baselines/eam_policy.h"
#include "src/baselines/on_demand_policy.h"
#include "src/baselines/speculative_policy.h"
#include "src/core/fmoe_policy.h"
#include "src/util/logging.h"

namespace fmoe {
namespace {

// The fMoE family: full fMoE plus its ablations (Fig. 12). Each member runs FmoePolicy with
// the same store and precision knobs; only these fields tell them apart.
struct FmoeFamilyMember {
  const char* name;
  bool semantic;           // Semantic search beside trajectory search.
  bool dynamic_threshold;  // The δ mechanism.
  const char* cache_policy;
  StoreDedupPolicy store_dedup;
};

constexpr FmoeFamilyMember kFmoeFamily[] = {
    {"fMoE", true, true, "fMoE-PriorityLFU", StoreDedupPolicy::kRedundancy},
    {"Map(T)", false, false, "fMoE-PriorityLFU", StoreDedupPolicy::kRedundancy},
    {"Map(T+S)", true, false, "fMoE-PriorityLFU", StoreDedupPolicy::kRedundancy},
    {"Map(T+S+d)", true, true, "fMoE-PriorityLFU", StoreDedupPolicy::kRedundancy},
    {"fMoE-FIFOStore", true, true, "fMoE-PriorityLFU", StoreDedupPolicy::kFifo},
    {"fMoE-LRU", true, true, "LRU", StoreDedupPolicy::kRedundancy},
    {"fMoE-LFU", true, true, "LFU", StoreDedupPolicy::kRedundancy},
};

}  // namespace

SystemSpec MakeSystem(const std::string& name, const ModelConfig& model, int prefetch_distance,
                      size_t fmoe_store_capacity, double low_precision_threshold,
                      MapPrecision map_precision, int host_stage_candidates, int map_shards) {
  SystemSpec spec;
  spec.name = name;
  for (const FmoeFamilyMember& member : kFmoeFamily) {
    if (name != member.name) {
      continue;
    }
    FmoeOptions options;
    options.variant_name = name;
    options.store_capacity = fmoe_store_capacity;
    options.store_dedup = member.store_dedup;
    options.map_precision = map_precision;
    options.low_precision_threshold = low_precision_threshold;
    options.host_stage_candidates = host_stage_candidates;
    options.map_shards = map_shards;
    options.matcher.use_semantic = member.semantic;
    options.matcher.use_trajectory = true;
    options.prefetcher.dynamic_threshold = member.dynamic_threshold;
    // Without the delta mechanism the ablation prefetches exactly the top-K of the matched
    // map (what the baselines do); delta adds hedging with extra experts under low match
    // confidence.
    options.prefetcher.min_extra_experts = member.dynamic_threshold ? 1 : 0;
    spec.cache_policy = member.cache_policy;
    spec.policy = std::make_unique<FmoePolicy>(model, prefetch_distance, options);
    return spec;
  }
  if (name == "MoE-Infinity") {
    spec.cache_policy = "LFU";
    spec.policy = std::make_unique<EamPolicy>(model, prefetch_distance, EamOptions{});
    return spec;
  }
  if (name == "HitCount") {
    EamOptions options;
    options.label = "HitCount";
    options.decision_overhead_sec = 0.0;  // Tracking ablation: isolate prediction quality.
    spec.cache_policy = "fMoE-PriorityLFU";
    spec.policy = std::make_unique<EamPolicy>(model, prefetch_distance, options);
    return spec;
  }
  if (name == "ProMoE") {
    spec.cache_policy = "LFU";
    spec.policy =
        std::make_unique<SpeculativePolicy>(model, ProMoeOptions(prefetch_distance));
    return spec;
  }
  if (name == "Speculate") {
    SpeculativeOptions options = ProMoeOptions(prefetch_distance);
    options.label = "Speculate";
    spec.cache_policy = "fMoE-PriorityLFU";
    spec.policy = std::make_unique<SpeculativePolicy>(model, options);
    return spec;
  }
  if (name == "Mixtral-Offloading") {
    spec.cache_policy = "LRU";
    spec.policy = std::make_unique<SpeculativePolicy>(model, MixtralOffloadingOptions());
    return spec;
  }
  if (name == "DeepSpeed-Inference") {
    spec.cache_policy = "LRU";
    spec.policy = std::make_unique<OnDemandPolicy>();
    return spec;
  }
  if (name == "No-offload") {
    spec.cache_policy = "LFU";
    spec.policy = std::make_unique<OnDemandPolicy>();
    spec.preload_all = true;
    return spec;
  }
  FMOE_CHECK_MSG(false, "unknown system: " << name);
}

std::vector<std::string> PaperSystemNames() {
  return {"DeepSpeed-Inference", "Mixtral-Offloading", "ProMoE", "MoE-Infinity", "fMoE"};
}

}  // namespace fmoe
