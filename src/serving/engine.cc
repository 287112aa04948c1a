#include "src/serving/engine.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>

#include "src/util/logging.h"
#include "src/util/math.h"

namespace fmoe {
namespace {

constexpr double kInfiniteTime = std::numeric_limits<double>::infinity();

}  // namespace

ServingEngine::ServingEngine(const ModelConfig& model, const EngineConfig& config,
                             OffloadPolicy* policy)
    : model_(model),
      config_(config),
      policy_(policy),
      gate_(model, config.gate, config.seed),
      embedder_(model, config.gate.num_clusters,
                [&config] {
                  EmbedderProfile profile = config.embedder;
                  profile.phase_period = config.gate.phase_period;
                  return profile;
                }(),
                config.seed ^ 0x9e3779b9ULL),
      cost_(model, config.hardware),
      cluster_(config.gpu_count, config.gpu),
      eviction_policy_(MakeEvictionPolicy(config.cache_policy)),
      store_(config.expert_cache_bytes == 0 ? model.total_expert_bytes()
                                            : config.expert_cache_bytes,
             eviction_policy_.get(), config.tier),
      cache_(store_.gpu()),
      matcher_(config.matcher_latency_scale, config.matcher_queue_depth),
      trace_(config.trace),
      stall_machine_(static_cast<size_t>(model.total_experts())) {
  FMOE_CHECK(policy != nullptr);
  FMOE_CHECK(config.prefetch_distance >= 1);
  cluster_.SetPlacement(config.placement, static_cast<uint64_t>(model.total_experts()));
  prefetch_pinned_by_layer_.resize(static_cast<size_t>(model.num_layers));
  tokens_by_expert_.resize(static_cast<size_t>(model.experts_per_layer), 0);
  if (trace_ != nullptr) {
    // Pseudo-thread layout (DESIGN.md §5f): the engine's critical path first, then the
    // matcher and cache timelines, then one link + one memory track per device. Request
    // lifecycle tracks are registered lazily per batch slot. Every name carries the
    // trace_track_prefix ("" for single-engine runs; "replicaK/" under the cluster harness).
    const std::string& tp = config_.trace_track_prefix;
    trace_->SetTimeSource([this] { return clock_.now(); });
    trace_engine_track_ = trace_->RegisterTrack(tp + "engine");
    matcher_.set_trace(trace_, trace_->RegisterTrack(tp + "matcher"));
    cache_.set_trace(trace_, trace_->RegisterTrack(tp + "cache"));
    for (int dev = 0; dev < cluster_.device_count(); ++dev) {
      const std::string prefix = tp + "gpu" + std::to_string(dev);
      cluster_.device(dev).link().set_trace(trace_, trace_->RegisterTrack(prefix + "/link"));
      cluster_.device(dev).set_trace(trace_, trace_->RegisterTrack(prefix + "/mem"),
                                     prefix + ".used_bytes");
    }
    // Tier tracks (NVMe-backed stores only) come strictly after every device track, so track
    // ids — and the traced-vs-untraced bitwise goldens — never shift with config.
    store_.RegisterTrace(trace_, tp);
  }
  // Every queued GPU fill is named by its flat expert key, on the device links and on the
  // store's NVMe link (direct path) alike; its start reports back into cache bookkeeping.
  const auto on_fill_scheduled = [this](uint64_t key, double completion) {
    OnTransferScheduled(key, completion);
  };
  for (int dev = 0; dev < cluster_.device_count(); ++dev) {
    cluster_.device(dev).link().set_completion_callback(on_fill_scheduled);
  }
  store_.set_direct_scheduled_hook(on_fill_scheduled);
  // Tier chain plumbing: when a key's NVMe→host staging starts, a GPU fill chained on it
  // queues its host→GPU hop with the staging completion as earliest start.
  store_.set_stage_scheduled_hook([this](uint64_t key, double completion) {
    EntryRef entry = cache_.Find(key);
    if (!entry || !entry.prefetch_pending() || entry.fill_route() != FillRoute::kChained) {
      return;  // Speculative staging, or its chained fill was evicted or promoted: host copy.
    }
    entry.set_fill_route(FillRoute::kFromHost);
    LinkFor(key).EnqueuePrefetchAfter(clock_.now(), key, entry.bytes(),
                                      std::max(clock_.now(), completion));
  });
  if (config_.preload_all) {
    PreloadAllExperts();
  }
}

void ServingEngine::PreloadAllExperts() {
  for (int l = 0; l < model_.num_layers; ++l) {
    for (int j = 0; j < model_.experts_per_layer; ++j) {
      InsertDemandFill(KeyOf(ExpertId{l, j}), /*ready=*/0.0, /*probability=*/0.0);
    }
  }
  FMOE_CHECK_MSG(cache_.size() == static_cast<size_t>(model_.total_experts()),
                 "preload_all requires the cache to fit every expert");
}

void ServingEngine::OnTransferScheduled(uint64_t key, double completion) {
  // Evictions and demand promotions cancel a fill's queued transfer, so a transfer that
  // starts always belongs to the key's pending entry.
  EntryRef entry = cache_.Find(key);
  FMOE_CHECK(entry && entry.prefetch_pending());
  entry.set_ready_at(completion);
  entry.set_prefetch_pending(false);
}

void ServingEngine::CleanupEvicted(const std::vector<CacheEntry>& evicted) {
  for (const CacheEntry& victim : evicted) {
    stall_machine_.OnEvicted(victim.key);
    if (victim.prefetch_pending) {
      switch (victim.fill_route) {
        case FillRoute::kFromHost:
          LinkFor(victim.key).CancelQueuedPrefetch(victim.key);
          break;
        case FillRoute::kChained:
          // The GPU hop was never enqueued: the staging continues and lands as a plain
          // host-pool copy (the stage hook finds no chained entry).
          break;
        case FillRoute::kDirect:
          store_.nvme_link().CancelQueuedPrefetch(victim.key);
          break;
      }
    } else {
      // The victim carried real resident data: demote GPU→host (spilling host→NVMe under
      // pressure happens inside the store).
      store_.DemoteGpuVictim(victim, clock_.now());
    }
    cluster_.DeviceFor(victim.key).Free(victim.bytes);
  }
}

void ServingEngine::PrefetchAsync(ExpertId id, double probability, double priority) {
  PrefetchAsyncSized(id, probability, priority, 1.0);
}

void ServingEngine::PrefetchAsyncSized(ExpertId id, double probability, double /*priority*/,
                                       double size_fraction) {
  // NOTE: the priority argument is an ordering hint — transfers start in call order, so
  // policies issue PrefetchAsync calls sorted by descending priority (fMoE sorts by
  // PRI^prefetch = p / (l - l_now), §4.5).
  FMOE_CHECK(size_fraction > 0.0 && size_fraction <= 1.0);
  const uint64_t key = KeyOf(id);
  if (EntryRef existing = cache_.Find(key)) {
    // Current guidance supersedes stale stamps. A resident reduced-precision copy is NOT
    // re-transferred at full precision here — upgrading would cost a full transfer for an
    // expert already servable; it upgrades naturally after eviction.
    existing.set_probability(probability);
    return;
  }
  CacheEntry entry;
  entry.key = key;
  entry.bytes = std::max<uint64_t>(
      1, static_cast<uint64_t>(size_fraction * static_cast<double>(model_.expert_bytes)));
  entry.reduced_precision = size_fraction < 1.0;
  entry.ready_at = kInfiniteTime;
  entry.prefetch_pending = true;
  entry.probability = probability;
  entry.last_access = clock_.now();
  if (!cache_.Insert(entry, clock_.now(), &evicted_scratch_)) {
    return;  // No room (everything pinned or entry larger than the budget): skip prefetch.
  }
  CleanupEvicted(evicted_scratch_);
  GpuDevice& device = cluster_.DeviceFor(key);
  const bool allocated = device.Allocate(entry.bytes);
  FMOE_CHECK_MSG(allocated, "GPU memory exhausted; configure devices >= cache budget");
  // Hold the inbound expert until its layer runs: an eviction before first use would waste
  // the transfer and (for frequency-based policies) systematically victimise fresh entries.
  // Capped at half the cache so pins cannot starve residency on small budgets.
  const uint64_t max_pinned = cache_.capacity_bytes() / (2 * model_.expert_bytes);
  if (prefetch_pinned_count_ < max_pinned) {
    cache_.Pin(key);
    prefetch_pinned_by_layer_[static_cast<size_t>(id.layer)].push_back(key);
    ++prefetch_pinned_count_;
  }
  // The entry stays kFromHost (the insert default) while the fill is planned, so a staging
  // of this key that starts inside PlanGpuFill does not look like its chain.
  double earliest = clock_.now();
  const FillRoute route = store_.PlanGpuFill(key, entry.bytes, clock_.now(), probability,
                                             &earliest);
  cache_.Find(key).set_fill_route(route);
  switch (route) {
    case FillRoute::kFromHost:
      device.link().EnqueuePrefetchAfter(clock_.now(), key, entry.bytes, earliest);
      break;
    case FillRoute::kChained:
      break;  // Queued on the device link by the stage hook once the staging starts.
    case FillRoute::kDirect:
      store_.nvme_link().EnqueuePrefetch(clock_.now(), key, entry.bytes);
      break;
  }
  stall_machine_.OnPrefetchIssued(key);
  if (trace_ != nullptr) {
    trace_->Instant(trace_engine_track_, "prefetch-issue", "prefetch", clock_.now(),
                    {TraceArg::Int("layer", id.layer), TraceArg::Int("expert", id.expert),
                     TraceArg::Num("prob", probability), TraceArg::Uint("tag", key)});
  }
}

void ServingEngine::ReleasePrefetchPins(int completed_layer) {
  const size_t limit = completed_layer < 0 ? prefetch_pinned_by_layer_.size()
                                           : static_cast<size_t>(completed_layer) + 1;
  for (size_t layer = 0; layer < limit; ++layer) {
    std::vector<uint64_t>& pinned = prefetch_pinned_by_layer_[layer];
    for (const uint64_t key : pinned) {
      cache_.Unpin(key);
    }
    prefetch_pinned_count_ -= pinned.size();
    pinned.clear();
  }
}

void ServingEngine::StageToHostAsync(ExpertId id, double probability) {
  store_.StageToHost(KeyOf(id), model_.expert_bytes, clock_.now(), probability);
}

double ServingEngine::DemandFillMiss(uint64_t key, PcieLink& link, StallTier* source) {
  if (store_.DemandGoesDirect(key)) {
    *source = StallTier::kNvme;
    return store_.DirectDemand(key, model_.expert_bytes, clock_.now());
  }
  const double earliest = store_.EnsureHostSide(key, model_.expert_bytes, clock_.now(), source);
  return link.DemandLoadAfter(clock_.now(), earliest, model_.expert_bytes);
}

void ServingEngine::InsertDemandFill(uint64_t key, double ready, double probability) {
  // If the entry cannot be cached (budget smaller than one expert, or everything pinned) the
  // weights stream through a transient buffer — the transfer cost is identical either way.
  CacheEntry fresh;
  fresh.key = key;
  fresh.bytes = model_.expert_bytes;
  fresh.ready_at = ready;
  fresh.prefetch_pending = false;
  fresh.probability = probability;
  fresh.last_access = clock_.now();
  if (cache_.Insert(fresh, clock_.now(), &evicted_scratch_)) {
    CleanupEvicted(evicted_scratch_);
    const bool allocated = cluster_.DeviceFor(key).Allocate(model_.expert_bytes);
    FMOE_CHECK(allocated);
  }
}

double ServingEngine::PromoteQueuedToDemand(EntryRef& entry, uint64_t key, PcieLink& link,
                                            StallTier* source) {
  // No longer a queued prefetch: a staging of this key that starts inside the store calls
  // below must not queue the chained hop.
  entry.set_prefetch_pending(false);
  double ready = 0.0;
  switch (entry.fill_route()) {
    case FillRoute::kChained: {
      // The host→GPU hop was never enqueued: resolve the whole chain on demand — promote the
      // staging NVMe-side, then demand the PCIe hop behind the staged data's availability.
      const double earliest = store_.EnsureHostSide(key, entry.bytes(), clock_.now(), source);
      ready = link.DemandLoadAfter(clock_.now(), earliest, entry.bytes());
      break;
    }
    case FillRoute::kDirect:
      store_.nvme_link().CancelQueuedPrefetch(key);
      *source = StallTier::kNvme;
      ready = store_.DirectDemand(key, entry.bytes(), clock_.now());
      break;
    case FillRoute::kFromHost:
      // The hop is already queued on the PCIe link: promote it there, honouring the host
      // copy's availability (it may still be landing from an earlier staging; without NVMe
      // backing it is available `now`).
      link.CancelQueuedPrefetch(key);
      ready = link.DemandLoadAfter(clock_.now(), store_.HostAvailableAt(key, clock_.now()),
                                   entry.bytes());
      break;
  }
  entry.set_ready_at(ready);
  return ready;
}

void ServingEngine::BlockingLoad(ExpertId id, double probability) {
  const uint64_t key = KeyOf(id);
  PcieLink& link = LinkFor(key);
  link.Tick(clock_.now());
  store_.Tick(clock_.now());
  EntryRef entry = cache_.Find(key);
  double ready = 0.0;
  StallTier source = StallTier::kHost;
  if (entry && !entry.prefetch_pending()) {
    if (entry.ready_at() <= clock_.now()) {
      entry.set_probability(probability);
      return;  // Already resident and ready.
    }
    ready = entry.ready_at();  // In flight: wait for it.
  } else if (entry) {
    // Queued but not started: promote to a demand transfer.
    ready = PromoteQueuedToDemand(entry, key, link, &source);
  } else {
    ready = DemandFillMiss(key, link, &source);
    InsertDemandFill(key, ready, probability);
  }
  const double stall = std::max(0.0, ready - clock_.now());
  // Blocking loads are policy-initiated (speculative baselines): the wait is charged to sync
  // overhead, NOT demand_stall, so it must not feed the stall attribution. The loaded copy
  // does count as prefetch intent for later evicted-before-use classification.
  stall_machine_.OnPrefetchIssued(key);
  if (trace_ != nullptr) {
    trace_->Span(trace_engine_track_, "blocking-load", "stall", clock_.now(),
                 clock_.now() + stall,
                 {TraceArg::Int("layer", id.layer), TraceArg::Int("expert", id.expert)});
  }
  clock_.AdvanceTo(ready);
  metrics_.breakdown().sync_overhead[static_cast<size_t>(OverheadCategory::kPrefetchIssue)] +=
      stall;
  if (EntryRef resident = cache_.Find(key)) {
    resident.set_probability(probability);
  }
}

bool ServingEngine::IsCached(ExpertId id) const { return cache_.Contains(KeyOf(id)); }

void ServingEngine::SetCachedProbability(ExpertId id, double probability) {
  cache_.SetProbability(KeyOf(id), probability);
}

std::vector<double> ServingEngine::SpeculativeGate(const RequestRouting& routing, int iteration,
                                                   int target_layer, int distance) const {
  return gate_.SpeculativeDistribution(routing, iteration, target_layer, distance);
}

void ServingEngine::AddOverhead(OverheadCategory category, double seconds) {
  FMOE_CHECK(seconds >= 0.0);
  if (trace_ != nullptr) {
    // Named by category ("context-collection", "map-matching", ...) so per-category sums
    // reconcile against LatencyBreakdown::sync_overhead.
    trace_->Span(trace_engine_track_, OverheadCategoryName(category), "overhead", clock_.now(),
                 clock_.now() + seconds);
  }
  clock_.Advance(seconds);
  metrics_.breakdown().sync_overhead[static_cast<size_t>(category)] += seconds;
}

void ServingEngine::AddAsyncWork(OverheadCategory category, double seconds) {
  FMOE_CHECK(seconds >= 0.0);
  metrics_.breakdown().async_work[static_cast<size_t>(category)] += seconds;
}

uint64_t ServingEngine::PublishDeferred(OverheadCategory category, PublishMode mode,
                                        double cost_seconds, uint64_t topic,
                                        DeferredApply apply) {
  FMOE_CHECK(cost_seconds >= 0.0);
  DeferredPipelineStats& stats = metrics_.deferred();
  ++stats.published;
  if (mode == PublishMode::kBlocking) {
    // Synchronous decision: the cost extends the iteration, the commands apply inline.
    ++stats.blocking;
    AddOverhead(category, cost_seconds);
    if (apply) {
      apply(*this);
    }
    return 0;
  }
  AddAsyncWork(category, cost_seconds);
  stats.modeled_work_s += cost_seconds;
  if (matcher_.synchronous()) {
    // Instantaneous matcher: identical call sequence to the pre-pub-sub engine (async work
    // charged, then commands applied at the publish instant).
    ++stats.applied;
    stats.overlapped_s += cost_seconds;
    if (apply) {
      apply(*this);
    }
    return 0;
  }
  DeferredJob job;
  job.topic = topic;
  job.category = category;
  job.cost_seconds = cost_seconds;
  job.apply = std::move(apply);
  std::vector<DeferredJob> victims;
  const uint64_t seq = matcher_.Publish(clock_.now(), std::move(job), &victims);
  for (const DeferredJob& victim : victims) {
    // Publish cancels the same-topic pending job before any depth drop, so a victim sharing
    // this publish's (nonzero) topic is necessarily the superseded one.
    if (topic != 0 && victim.topic == topic) {
      ++stats.superseded;
    } else {
      ++stats.dropped;
    }
    stats.wasted_work_s += victim.cost_seconds;
  }
  return seq;
}

void ServingEngine::DrainDeferred() {
  if (matcher_.synchronous()) {
    return;
  }
  DeferredJob job;
  while (matcher_.PopDue(clock_.now(), &job)) {
    DeferredPipelineStats& stats = metrics_.deferred();
    ++stats.applied;
    stats.overlapped_s += job.cost_seconds;
    stats.queue_wait_s += job.start_time - job.publish_time;
    stats.decision_latency_s += job.completion_time - job.publish_time;
    if (job.apply) {
      job.apply(*this);
    }
  }
}

bool ServingEngine::TransferTagsConsistent() const {
  std::unordered_map<uint64_t, int> on_device;
  for (int dev = 0; dev < cluster_.device_count(); ++dev) {
    for (const uint64_t key : cluster_.device(dev).link().QueuedTags()) {
      if (cluster_.DeviceForKey(key) != dev) {
        return false;
      }
      ++on_device[key];
    }
  }
  std::unordered_map<uint64_t, int> on_nvme;
  for (const uint64_t key : store_.nvme_link().QueuedTags()) {
    ++on_nvme[key];
  }
  size_t device_fills = 0;
  for (const uint64_t key : cache_.Keys()) {
    const ConstEntryRef entry = std::as_const(cache_).Find(key);
    if (!entry.prefetch_pending()) {
      continue;
    }
    const int device = on_device[key];
    const int nvme = on_nvme[key];
    const bool staging = store_.StagePending(key);
    // Exactly one live fill, on the route the entry records; a chained fill's one NVMe
    // transfer is the key's staging.
    bool one_fill = false;
    switch (entry.fill_route()) {
      case FillRoute::kFromHost:
        one_fill = device == 1 && nvme == 0 && !staging;
        ++device_fills;
        break;
      case FillRoute::kChained:
        // A staging that starts inside PlanGpuFill (idle NVMe link) fires the stage hook
        // before the entry records kChained, so that fill never queues its hop and waits for
        // its demand promotion with no live transfer.
        one_fill = device == 0 && nvme == (staging ? 1 : 0);
        break;
      case FillRoute::kDirect:
        one_fill = device == 0 && nvme == 1 && !staging;
        break;
    }
    if (!one_fill) {
      return false;
    }
  }
  // Every device-link transfer was matched to a pending kFromHost entry above.
  size_t device_queued = 0;
  for (const auto& [key, count] : on_device) {
    device_queued += static_cast<size_t>(count);
  }
  return device_queued == device_fills;
}

bool ServingEngine::TierBookkeepingConsistent() const {
  if (!store_.BookkeepingConsistent()) {
    return false;
  }
  for (const uint64_t key : store_.nvme_link().QueuedTags()) {
    if (store_.StagePending(key)) {
      continue;
    }
    const ConstEntryRef entry = std::as_const(cache_).Find(key);
    if (!entry || !entry.prefetch_pending() || entry.fill_route() != FillRoute::kDirect) {
      return false;
    }
  }
  return true;
}

ServingEngine::ExpertJob ServingEngine::IssueExpert(ExpertId id, int tokens_routed) {
  const uint64_t key = KeyOf(id);
  PcieLink& link = LinkFor(key);
  link.Tick(clock_.now());
  store_.Tick(clock_.now());  // Land stagings first: a chained hop may become a plain wait.

  ExpertJob job;
  job.id = id;
  job.tokens_routed = tokens_routed;
  job.ready_at = clock_.now();

  EntryRef entry = cache_.Find(key);
  if (!entry) {
    // Full miss: on-demand load.
    job.ready_at = DemandFillMiss(key, link, &job.tier_source);
    InsertDemandFill(key, job.ready_at, /*probability=*/0.0);
    job.stall_class = stall_machine_.ClassifyMiss(key, MissKind::kNeverResident);
  } else if (entry.prefetch_pending()) {
    // Prefetch was enqueued but its transfer never started: promote to a demand load, which
    // jumps ahead of all queued prefetches ("pauses all expert prefetching tasks", §4.5).
    job.ready_at = PromoteQueuedToDemand(entry, key, link, &job.tier_source);
    job.stall_class = stall_machine_.ClassifyMiss(key, MissKind::kQueuedPromoted);
  } else if (entry.ready_at() > clock_.now()) {
    // Prefetch in flight but late: wait out the remainder. Still a miss by the paper's
    // definition (weights not available when the gate asked), but cheaper than a full load.
    job.ready_at = entry.ready_at();
    job.stall_class = stall_machine_.ClassifyMiss(key, MissKind::kInFlightLate);
  } else {
    job.hit = true;
  }

  // Pin residents so this layer's later issues cannot evict them before they compute.
  if (cache_.Contains(key)) {
    job.resident = true;
    cache_.Pin(key);
  }
  return job;
}

void ServingEngine::CompleteExpert(const ExpertJob& job) {
  const uint64_t key = KeyOf(job.id);
  // All of a layer's demand transfers were issued up front, so they proceed in parallel on
  // their device links; the compute loop only waits out whatever has not yet landed.
  const double stall_start = clock_.now();
  const double stall = std::max(0.0, job.ready_at - clock_.now());
  clock_.AdvanceTo(job.ready_at);
  metrics_.breakdown().demand_stall += stall;
  // One attribution charge per served miss, in serve order — the identical addition sequence
  // as the demand_stall accumulation above, so the totals stay bitwise equal. The tier
  // attribution partitions the same misses by serving tier (without NVMe: all host-side).
  if (!job.hit) {
    stall_machine_.AttributeStall(job.stall_class, stall);
    stall_machine_.AttributeStallTier(job.tier_source, stall);
    if (signals_ != nullptr) {
      signals_->RecordStall(job.stall_class, stall, clock_.now());
    }
  }
  stall_machine_.OnExpertServed(key);
  if (job.hit) {
    metrics_.RecordHit();
    if (const ConstEntryRef entry = std::as_const(cache_).Find(key);
        entry && entry.reduced_precision()) {
      metrics_.RecordLowPrecisionHit();
    }
  } else {
    metrics_.RecordMiss();
  }
  if (trace_ != nullptr) {
    if (!job.hit && stall > 0.0) {
      trace_->Span(trace_engine_track_, "demand-stall", "stall", stall_start, job.ready_at,
                   {TraceArg::Int("layer", job.id.layer), TraceArg::Int("expert", job.id.expert),
                    TraceArg::Str("cause", StallClassName(job.stall_class))});
    }
    std::vector<TraceArg> args = {TraceArg::Int("layer", job.id.layer),
                                  TraceArg::Int("expert", job.id.expert)};
    if (!job.hit) {
      args.push_back(TraceArg::Str("cause", StallClassName(job.stall_class)));
    }
    trace_->Instant(trace_engine_track_, job.hit ? "hit" : "miss", "cache", clock_.now(),
                    std::move(args));
  }
  if (job.resident) {
    cache_.Touch(key, clock_.now());
  }
  const double compute_time = cost_.ExpertComputeTime(job.tokens_routed);
  metrics_.breakdown().expert_compute += compute_time;
  if (trace_ != nullptr) {
    trace_->Span(trace_engine_track_, "expert", "compute", clock_.now(),
                 clock_.now() + compute_time,
                 {TraceArg::Int("layer", job.id.layer), TraceArg::Int("expert", job.id.expert),
                  TraceArg::Int("tokens", job.tokens_routed)});
  }
  clock_.Advance(compute_time);
  if (job.resident) {
    cache_.Unpin(key);
  }
}

double ServingEngine::RunIteration(std::vector<BatchMember*>& active) {
  const double iteration_start = clock_.now();
  const uint64_t hits_before = metrics_.expert_hits();
  const uint64_t misses_before = metrics_.expert_misses();
  bool all_prefill = true;
  for (const BatchMember* member : active) {
    all_prefill &= member->next_iteration == 0;
  }

  if (config_.tier.kv_bytes_per_token > 0.0) {
    // KV-cache pressure: the batch's in-flight tokens reserve GPU bytes, shrinking the
    // effective expert budget as sequences grow (Table 1). Victims demote like any eviction.
    double tracked_tokens = 0.0;
    for (const BatchMember* member : active) {
      tracked_tokens +=
          static_cast<double>(member->request.prompt_tokens + member->next_iteration);
    }
    const uint64_t reserved =
        static_cast<uint64_t>(config_.tier.kv_bytes_per_token * tracked_tokens);
    evicted_scratch_.clear();
    cache_.SetReservation(reserved, clock_.now(), &evicted_scratch_);
    CleanupEvicted(evicted_scratch_);
  }

  for (BatchMember* member : active) {
    member->context.iteration = member->next_iteration;
    member->context.embedding =
        embedder_.IterationEmbedding(member->request.routing, member->next_iteration);
    policy_->OnIterationStart(*this, member->context);
  }

  layer_probs_.resize(active.size());
  for (auto& probs : layer_probs_) {
    probs.resize(static_cast<size_t>(model_.num_layers));
  }

  for (int layer = 0; layer < model_.num_layers; ++layer) {
    int attention_tokens = 0;
    for (const BatchMember* member : active) {
      attention_tokens += member->next_iteration == 0 ? member->request.prompt_tokens : 1;
    }
    const double attention_time = cost_.AttentionTime(attention_tokens);
    metrics_.breakdown().attention_compute += attention_time;
    if (trace_ != nullptr) {
      trace_->Span(trace_engine_track_, "attention", "compute", clock_.now(),
                   clock_.now() + attention_time,
                   {TraceArg::Int("layer", layer), TraceArg::Int("tokens", attention_tokens)});
    }
    clock_.Advance(attention_time);
    // Layer boundary: apply matcher jobs whose modeled completion fell during the attention
    // pass — the subscription point of the pub-sub pipeline. Deferred prefetch commands thus
    // reach the links strictly later than their gate observation, never earlier.
    DrainDeferred();

    // Gate outputs, policy hooks, and the union of activated experts with routed tokens
    // (a dense per-expert count; experts are visited in ascending id order below, exactly
    // the iteration order the old std::map produced).
    std::fill(tokens_by_expert_.begin(), tokens_by_expert_.end(), 0);
    for (size_t m = 0; m < active.size(); ++m) {
      BatchMember* member = active[m];
      const RequestRouting& routing = member->request.routing;
      const int iteration = member->next_iteration;
      const bool is_prefill = iteration == 0;
      std::vector<double>& probs = layer_probs_[m][static_cast<size_t>(layer)];
      gate_.DistributionInto(routing, iteration, layer, &probs);
      if (is_prefill) {
        activated_ =
            gate_.ActivatedExperts(routing, iteration, layer, member->request.prompt_tokens);
      } else {
        TopKIndicesInto(probs, static_cast<size_t>(model_.top_k), &top_scratch_);
        activated_.assign(top_scratch_.begin(), top_scratch_.end());
        std::sort(activated_.begin(), activated_.end());
      }
      policy_->OnGateOutput(*this, member->context, layer, probs, activated_);
      const int tokens_per_expert =
          is_prefill ? std::max(1, member->request.prompt_tokens * model_.top_k /
                                       std::max<int>(1, static_cast<int>(activated_.size())))
                     : 1;
      for (int expert : activated_) {
        tokens_by_expert_[static_cast<size_t>(expert)] += tokens_per_expert;
      }
    }

    // Two-phase serving: issue every demand transfer first (they overlap across device
    // links), then wait-and-compute expert by expert.
    jobs_.clear();
    if (oracle_ != nullptr) {
      // One access group per layer instant: all of this layer's demands are issued at one
      // clock time, so they pin each other in the oracle's replay just as Pin does here.
      oracle_->BeginAccessGroup();
    }
    for (int expert = 0; expert < model_.experts_per_layer; ++expert) {
      const int tokens = tokens_by_expert_[static_cast<size_t>(expert)];
      if (tokens > 0) {
        jobs_.push_back(IssueExpert(ExpertId{layer, expert}, tokens));
        if (oracle_ != nullptr) {
          const uint64_t key = KeyOf(jobs_.back().id);
          oracle_->OnAccess(clock_.now(), key, layer, expert, jobs_.back().hit,
                            cache_.effective_capacity_bytes(), cluster_.DeviceForKey(key));
        }
      }
    }
    for (const ExpertJob& job : jobs_) {
      CompleteExpert(job);
    }
    ReleasePrefetchPins(layer);
    metrics_.breakdown().layer_overhead += cost_.LayerOverhead();
    if (trace_ != nullptr) {
      trace_->Span(trace_engine_track_, "layer-overhead", "compute", clock_.now(),
                   clock_.now() + cost_.LayerOverhead(), {TraceArg::Int("layer", layer)});
    }
    clock_.Advance(cost_.LayerOverhead());
  }
  DrainDeferred();

  for (size_t m = 0; m < active.size(); ++m) {
    policy_->OnIterationEnd(*this, active[m]->context, layer_probs_[m]);
  }
  ReleasePrefetchPins(-1);
  cache_.DecayFrequencies(config_.frequency_decay);
  store_.DecayHostFrequencies(config_.frequency_decay);
  store_.Tick(clock_.now());
  cluster_.Tick(clock_.now());

  const double duration = clock_.now() - iteration_start;
  metrics_.RecordIteration(duration, all_prefill, metrics_.expert_hits() - hits_before,
                           metrics_.expert_misses() - misses_before);
  return duration;
}

int ServingEngine::TraceSlotTrack(int slot) {
  const size_t idx = static_cast<size_t>(slot);
  if (idx >= trace_slot_tracks_.size()) {
    trace_slot_tracks_.resize(idx + 1, 0);
  }
  if (trace_slot_tracks_[idx] == 0) {
    trace_slot_tracks_[idx] = trace_->RegisterTrack(config_.trace_track_prefix +
                                                    "requests/slot" + std::to_string(slot));
  }
  return trace_slot_tracks_[idx];
}

void ServingEngine::AdmitRequest(const Request& request) {
  clock_.AdvanceTo(request.arrival_time);
  auto member = std::make_unique<BatchMember>();
  member->request = request;
  member->context.request = &member->request;
  member->context.iteration = 0;
  if (!free_slots_.empty()) {
    member->context.batch_slot = *free_slots_.begin();
    free_slots_.erase(free_slots_.begin());
  } else {
    member->context.batch_slot = next_slot_++;
  }
  member->context.embedding = embedder_.IterationEmbedding(request.routing, 0);
  member->total_iterations = 1 + request.decode_tokens;
  member->metrics.request_id = request.id;
  member->metrics.arrival_time = request.arrival_time;
  member->metrics.start_time = clock_.now();
  if (signals_ != nullptr) {
    signals_->RecordAdmission(member->metrics.QueueingDelay(), clock_.now());
  }
  policy_->OnRequestAdmitted(*this, member->context);
  active_members_.push_back(std::move(member));
}

bool ServingEngine::StepIteration() {
  if (active_members_.empty()) {
    return false;
  }
  if (admission_ != nullptr) {
    // Iteration boundary: pull the controller's effective prefetch distance so policy hooks
    // inside this iteration see the controlled lead.
    prefetch_distance_override_ =
        admission_->PrefetchDistance(config_.prefetch_distance, clock_.now());
  }
  std::vector<BatchMember*> active;
  active.reserve(active_members_.size());
  for (const auto& member : active_members_) {
    active.push_back(member.get());
  }
  const double duration = RunIteration(active);
  if (signals_ != nullptr) {
    signals_->RecordIteration(duration, clock_.now());
  }

  std::vector<std::unique_ptr<BatchMember>> still_active;
  still_active.reserve(active_members_.size());
  for (auto& member : active_members_) {
    if (member->next_iteration == 0) {
      member->metrics.first_token_time = clock_.now();
    }
    ++member->next_iteration;
    if (member->next_iteration >= member->total_iterations) {
      member->metrics.completion_time = clock_.now();
      member->metrics.decode_iterations = member->total_iterations - 1;
      metrics_.RecordRequest(member->metrics);
      policy_->OnRequestCompleted(*this, member->context);
      if (trace_ != nullptr) {
        // Request lifecycle on the slot's own track: queued -> prefill -> decode. Emitted at
        // completion, when all three boundaries are known.
        const RequestMetrics& rm = member->metrics;
        const int track = TraceSlotTrack(member->context.batch_slot);
        const std::vector<TraceArg> id_arg = {TraceArg::Uint("request", rm.request_id)};
        trace_->Span(track, "queued", "request", rm.arrival_time, rm.start_time, id_arg);
        trace_->Span(track, "prefill", "request", rm.start_time, rm.first_token_time,
                     {TraceArg::Uint("request", rm.request_id),
                      TraceArg::Int("prompt_tokens", member->request.prompt_tokens)});
        trace_->Span(track, "decode", "request", rm.first_token_time, rm.completion_time,
                     {TraceArg::Uint("request", rm.request_id),
                      TraceArg::Int("decode_iterations", rm.decode_iterations)});
      }
      completed_.push_back(member->metrics);
      free_slots_.insert(member->context.batch_slot);
    } else {
      still_active.push_back(std::move(member));
    }
  }
  active_members_ = std::move(still_active);
  return true;
}

std::vector<RequestMetrics> ServingEngine::DrainCompleted() {
  std::vector<RequestMetrics> drained = std::move(completed_);
  completed_.clear();
  return drained;
}

std::vector<RequestMetrics> ServingEngine::ServeBatch(std::span<const Request> requests) {
  FMOE_CHECK(!requests.empty());
  FMOE_CHECK_MSG(active_members_.empty(),
                 "ServeBatch requires an idle engine; use the continuous-batching interface");
  completed_.clear();
  double latest_arrival = 0.0;
  for (const Request& request : requests) {
    latest_arrival = std::max(latest_arrival, request.arrival_time);
  }
  clock_.AdvanceTo(latest_arrival);
  for (const Request& request : requests) {
    AdmitRequest(request);
  }
  while (StepIteration()) {
  }
  // Restore the caller's request order (members can finish out of order). The id -> index
  // map keeps the first occurrence, matching the old first-match linear scan when request
  // ids repeat.
  std::vector<RequestMetrics> drained = DrainCompleted();
  std::unordered_map<uint64_t, size_t> index_by_id;
  index_by_id.reserve(drained.size());
  for (size_t i = 0; i < drained.size(); ++i) {
    index_by_id.emplace(drained[i].request_id, i);
  }
  std::vector<RequestMetrics> results;
  results.reserve(requests.size());
  for (const Request& request : requests) {
    const auto it = index_by_id.find(request.id);
    if (it != index_by_id.end()) {
      results.push_back(drained[it->second]);
    }
  }
  FMOE_CHECK(results.size() == requests.size());
  return results;
}

RequestMetrics ServingEngine::ServeRequest(const Request& request) {
  return ServeBatch(std::span<const Request>(&request, 1)).front();
}

void ServingEngine::WarmupWithHistory(std::span<const Request> requests) {
  for (const Request& request : requests) {
    ServeRequest(request);
  }
  ResetMetrics();
}

}  // namespace fmoe
