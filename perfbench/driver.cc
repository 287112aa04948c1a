// Two-clock serving benchmark driver.
//
// Runs one named workload in this (single-threaded) process and prints, as the last line of
// stdout, {"correct", "attempted", "failed", "metrics"}. Virtual-time metrics (TTFT, TPOT, hit
// rate, ...) come from the simulated serving system's clock and repeat exactly for a seed;
// host-time metrics (set-up time, iterations/s) are the simulator's own wall time. See
// perfbench/WORKLOADS.md for the workloads, the metric definitions and the predictions.
//
//   fmoe_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--size full|small] [--corrupt none|drop-request] [--git-commit <sha>]
//
// A run repeats the whole workload (set-up and measured phase) until --seconds have passed.
// Every repetition must reproduce the first one's virtual metrics bit for bit; host metrics
// are medians over the repetitions. --trace 1 alternates plain and probed repetitions and
// prints the per-layer metrics instead.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "perfbench/probes.h"
#include "src/core/fmoe_policy.h"
#include "src/harness/systems.h"
#include "src/serving/engine.h"
#include "src/serving/scheduler.h"
#include "src/serving/trace.h"
#include "src/util/stats.h"
#include "src/workload/workload.h"

namespace perfbench {
namespace {

constexpr int kPrefetchDistance = 3;
constexpr size_t kStoreCapacity = 512;
constexpr double kCacheFraction = 0.22;
constexpr int kGpuCount = 6;
constexpr double kSloShare = 0.9;
// Untraced runs time at least this many repetitions after the warm-up one.
constexpr size_t kMinTimedReps = 5;
// After each timed repetition, this share of its time goes to repeating the set-up alone, so
// that set-ups far cheaper than a repetition are sampled many times across the run.
constexpr double kSetupOnlyShare = 0.05;
constexpr uint64_t kArrivalSeed = 0x417a757265ULL;

struct Workload {
  std::string name;
  fmoe::ModelConfig model;
  fmoe::DatasetProfile dataset;
  size_t history = 0;   // Warm-up requests that fill the map store (0 = cold start).
  size_t requests = 0;  // Measured requests (per grid rate when online).
  int max_decode_tokens = 0;
  // Online: one Azure-like trace replayed at each rate through the scheduler.
  bool online = false;
  std::vector<double> rates_rps;
  size_t nominal_rate = 0;  // Index into rates_rps that the latency metrics report.
  int max_batch = 1;
  // Three-tier: experts live on NVMe behind a host pool of this share of expert bytes.
  double host_pool_fraction = 0.0;
  int host_stage_candidates = 0;
  // SLO: TTFT counted from arrival, and the request's own TPOT; kSloShare of requests must
  // meet both for a grid rate to count as sustained.
  double slo_ttft_s = 0.0;
  double slo_tpot_s = 0.0;
};

std::vector<Workload> Workloads(bool small) {
  std::vector<Workload> all;

  Workload lmsys;
  lmsys.name = "offline-mixtral-lmsys";
  lmsys.model = fmoe::MixtralConfig();
  lmsys.dataset = fmoe::LmsysLikeProfile();
  lmsys.history = small ? 12 : 80;
  lmsys.requests = small ? 12 : 300;
  lmsys.max_decode_tokens = 32;
  lmsys.slo_ttft_s = 0.6;
  lmsys.slo_tpot_s = 0.23;
  all.push_back(lmsys);

  Workload sharegpt;
  sharegpt.name = "online-mixtral-sharegpt";
  sharegpt.model = fmoe::MixtralConfig();
  sharegpt.dataset = fmoe::ShareGptLikeProfile();
  sharegpt.requests = small ? 12 : 600;
  sharegpt.online = true;
  sharegpt.max_decode_tokens = 32;
  sharegpt.rates_rps = {0.045, 0.09, 0.18};
  sharegpt.nominal_rate = 1;
  sharegpt.max_batch = 4;
  sharegpt.slo_ttft_s = 15.0;
  sharegpt.slo_tpot_s = 0.5;
  all.push_back(sharegpt);

  Workload qwen;
  qwen.name = "offline-qwen-3tier";
  qwen.model = fmoe::QwenMoeConfig();
  qwen.dataset = fmoe::LmsysLikeProfile();
  qwen.history = small ? 8 : 40;
  qwen.requests = small ? 8 : 120;
  qwen.max_decode_tokens = 16;
  qwen.host_pool_fraction = 0.30;
  qwen.host_stage_candidates = 2;
  qwen.slo_ttft_s = 2.6;
  qwen.slo_tpot_s = 0.335;
  all.push_back(qwen);
  return all;
}

// ---------------------------------------------------------------------------------------------
// One repetition of a workload.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Rep {
  // Host clock.
  double setup_s = 0.0;
  double gen_s = 0.0;
  double warmup_s = 0.0;
  double measured_s = 0.0;
  uint64_t measured_iterations = 0;
  bool probed = false;
  HostLedger ledger;
  // Virtual clock and counters: must repeat bit for bit across repetitions.
  std::vector<Metric> end_to_end;  // Virtual end-to-end metrics.
  std::vector<Metric> counters;    // Virtual per-layer metrics.
  // Output checks.
  uint64_t sent = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
};

// Counter snapshot of one engine, taken at the start and end of its measured phase.
struct EngineCounters {
  fmoe::CacheStats cache;
  fmoe::CacheIndexStats index;
  fmoe::TierStats tier;
  double link_busy = 0.0;
  double link_demand_wait = 0.0;
  uint64_t link_demand_bytes = 0;
  uint64_t link_prefetch_bytes = 0;
  uint64_t link_prefetches = 0;
  double nvme_busy = 0.0;
};

EngineCounters Snapshot(const fmoe::ServingEngine& engine) {
  EngineCounters c;
  c.cache = engine.cache().stats();
  c.index = engine.cache().index_stats();
  c.tier = engine.store().stats();
  for (int d = 0; d < engine.cluster().device_count(); ++d) {
    const fmoe::PcieLink& link = engine.cluster().device(d).link();
    c.link_busy += link.total_busy_sec();
    c.link_demand_wait += link.total_demand_wait_sec();
    c.link_demand_bytes += link.total_demand_bytes();
    c.link_prefetch_bytes += link.total_prefetch_bytes();
    c.link_prefetches += link.prefetch_count();
  }
  c.nvme_busy = engine.store().nvme_link().total_busy_sec();
  return c;
}

// A served engine plus what the benchmark attaches to it.
// Declaration order is destruction order reversed: the engine goes first, before the
// tracker and policy it points at.
struct Bench {
  fmoe::SystemSpec system;
  std::unique_ptr<ProbedPolicy> probe;
  fmoe::ControlSignalTracker signals;
  std::unique_ptr<fmoe::ServingEngine> engine;
  EngineCounters before;
};

std::unique_ptr<Bench> MakeBench(const Workload& w, uint64_t seed, HostLedger* ledger) {
  auto bench = std::make_unique<Bench>();
  bench->system = fmoe::MakeSystem("fMoE", w.model, kPrefetchDistance, kStoreCapacity, 0.0,
                                   fmoe::MapPrecision::kFp32, w.host_stage_candidates);
  fmoe::OffloadPolicy* policy = bench->system.policy.get();
  if (ledger != nullptr) {
    bench->probe = std::make_unique<ProbedPolicy>(policy, ledger);
    policy = bench->probe.get();
  }
  fmoe::EngineConfig config;
  config.prefetch_distance = kPrefetchDistance;
  config.gpu_count = kGpuCount;
  const double expert_bytes = static_cast<double>(w.model.total_expert_bytes());
  config.expert_cache_bytes = static_cast<uint64_t>(expert_bytes * kCacheFraction);
  config.cache_policy = bench->system.cache_policy;
  config.seed = seed;
  if (w.host_pool_fraction > 0.0) {
    config.tier.nvme_backing = true;
    config.tier.host_capacity_bytes = static_cast<uint64_t>(expert_bytes * w.host_pool_fraction);
  }
  bench->engine = std::make_unique<fmoe::ServingEngine>(w.model, config, policy);
  // Feeds the engine's stall classifier. The scheduler detaches it again under open-loop
  // admission, so only the offline workloads get the per-cause split.
  bench->engine->SetControlSignals(&bench->signals);
  return bench;
}

const fmoe::FmoePolicy& FmoeOf(const Bench& bench) {
  return dynamic_cast<const fmoe::FmoePolicy&>(*bench.system.policy);
}

// Checks one engine's completions against the requests it was sent. Returns failed requests.
uint64_t CheckServed(const std::vector<fmoe::Request>& sent,
                     const std::vector<fmoe::RequestMetrics>& completed, size_t shed,
                     const fmoe::ServingEngine& engine, std::vector<std::string>* problems) {
  std::unordered_map<uint64_t, const fmoe::Request*> by_id;
  for (const fmoe::Request& r : sent) {
    by_id.emplace(r.id, &r);
  }
  uint64_t ok = 0;
  std::unordered_map<uint64_t, int> seen;
  for (const fmoe::RequestMetrics& m : completed) {
    const auto it = by_id.find(m.request_id);
    if (it == by_id.end() || ++seen[m.request_id] > 1) {
      problems->push_back("completion for an unknown or repeated request id");
      continue;
    }
    const bool ordered = it->second->arrival_time <= m.arrival_time &&
                         m.arrival_time <= m.start_time && m.start_time <= m.first_token_time &&
                         m.first_token_time <= m.completion_time;
    if (!ordered || m.decode_iterations != it->second->decode_tokens) {
      problems->push_back("request " + std::to_string(m.request_id) +
                          ": out-of-order timestamps or wrong decode count");
      continue;
    }
    ++ok;
  }
  if (completed.size() + shed != sent.size()) {
    problems->push_back("requests sent != completed + shed");
  }
  if (engine.metrics().requests().size() != completed.size()) {
    problems->push_back("engine recorded a different number of completions than were returned");
  }
  if (!engine.TransferTagsConsistent()) {
    problems->push_back("TransferTagsConsistent() failed");
  }
  if (!engine.TierBookkeepingConsistent()) {
    problems->push_back("TierBookkeepingConsistent() failed");
  }
  if (engine.PendingDeferredJobs() != 0) {
    problems->push_back("deferred jobs still pending after the run drained");
  }
  return sent.size() - ok;
}

double Pct(const std::vector<double>& values, double pct) { return fmoe::Percentile(values, pct); }

// Virtual end-to-end metrics of one measured request set.
void AddLatencyMetrics(const Workload& w, const std::vector<fmoe::RequestMetrics>& completed,
                       size_t sent, const fmoe::ServingEngine& engine, double makespan,
                       std::vector<Metric>* out) {
  std::vector<double> ttft;
  std::vector<double> e2e;
  uint64_t tokens = 0;
  size_t met = 0;
  for (const fmoe::RequestMetrics& m : completed) {
    const double from_arrival = m.first_token_time - m.arrival_time;
    ttft.push_back(from_arrival);
    e2e.push_back(m.EndToEnd());
    tokens += static_cast<uint64_t>(m.decode_iterations) + 1;
    if (from_arrival <= w.slo_ttft_s && m.Tpot() <= w.slo_tpot_s) {
      ++met;
    }
  }
  const std::vector<double>& tpot = engine.metrics().decode_iteration_latency().samples();
  out->push_back({"ttft_p50_ms", Pct(ttft, 50) * 1e3, "ms"});
  out->push_back({"ttft_p90_ms", Pct(ttft, 90) * 1e3, "ms"});
  out->push_back({"tpot_p50_ms", Pct(tpot, 50) * 1e3, "ms"});
  out->push_back({"tpot_p99_ms", Pct(tpot, 99) * 1e3, "ms"});
  out->push_back({"expert_hit_rate", engine.metrics().HitRate(), "ratio"});
  out->push_back({"tokens_per_vs", makespan > 0 ? static_cast<double>(tokens) / makespan : 0.0,
                  "tok/vs"});
  out->push_back({"e2e_p50_s", Pct(e2e, 50), "vs"});
  out->push_back({"e2e_p90_s", Pct(e2e, 90), "vs"});
  out->push_back({"slo_attainment", sent == 0 ? 0.0 : static_cast<double>(met) / sent, "share"});
}

// Virtual per-layer counters of one engine's measured phase.
void AddCounters(const Bench& bench, bool split_available, std::vector<Metric>* out) {
  const fmoe::ServingEngine& engine = *bench.engine;
  const EngineCounters after = Snapshot(engine);
  const EngineCounters& b = bench.before;
  const auto diff = [](uint64_t x, uint64_t y) { return static_cast<double>(x - y); };
  const fmoe::FmoePolicy& policy = FmoeOf(bench);
  out->push_back({"core.map_store.records", static_cast<double>(policy.store().size()), "count"});
  out->push_back({"core.semantic_score_mean", policy.MeanSemanticScore(), "cosine"});
  out->push_back({"core.trajectory_score_mean", policy.MeanTrajectoryScore(), "cosine"});
  out->push_back({"cache.insertions", diff(after.cache.insertions, b.cache.insertions), "count"});
  out->push_back({"cache.evictions", diff(after.cache.evictions, b.cache.evictions), "count"});
  out->push_back({"cache.rejected_insertions",
                  diff(after.cache.rejected_insertions, b.cache.rejected_insertions), "count"});
  out->push_back({"cache.victim_picks", diff(after.index.victim_picks, b.index.victim_picks),
                  "count"});
  out->push_back({"cache.heap_pops", diff(after.index.heap_pops, b.index.heap_pops), "count"});
  const double prefetches = diff(after.link_prefetches, b.link_prefetches);
  out->push_back({"cache.prefetch_hit_ratio",
                  prefetches > 0 ? static_cast<double>(engine.metrics().expert_hits()) / prefetches
                                 : 0.0,
                  "ratio"});
  out->push_back({"memsim.link.busy_vs", after.link_busy - b.link_busy, "vs"});
  out->push_back({"memsim.link.demand_bytes",
                  diff(after.link_demand_bytes, b.link_demand_bytes), "B"});
  out->push_back({"memsim.link.prefetch_bytes",
                  diff(after.link_prefetch_bytes, b.link_prefetch_bytes), "B"});
  out->push_back({"memsim.link.demand_wait_vs", after.link_demand_wait - b.link_demand_wait,
                  "vs"});
  out->push_back({"memsim.nvme.busy_vs", after.nvme_busy - b.nvme_busy, "vs"});
  out->push_back({"cache.tier.host_hits", diff(after.tier.host_hits, b.tier.host_hits), "count"});
  out->push_back({"cache.tier.nvme_hits", diff(after.tier.nvme_hits, b.tier.nvme_hits), "count"});
  out->push_back({"cache.tier.chained_fills",
                  diff(after.tier.gpu_fills_chained, b.tier.gpu_fills_chained), "count"});
  out->push_back({"cache.tier.stages_issued",
                  diff(after.tier.stages_issued, b.tier.stages_issued), "count"});
  out->push_back({"cache.tier.stages_landed",
                  diff(after.tier.stages_landed, b.tier.stages_landed), "count"});
  out->push_back({"cache.tier.host_spills", diff(after.tier.host_spills, b.tier.host_spills),
                  "count"});
  const fmoe::LatencyBreakdown& br = engine.metrics().breakdown();
  out->push_back({"serving.attention_vs", br.attention_compute, "vs"});
  out->push_back({"serving.expert_compute_vs", br.expert_compute, "vs"});
  out->push_back({"serving.demand_stall_vs", br.demand_stall, "vs"});
  out->push_back({"serving.policy_sync_vs", br.TotalSyncOverhead(), "vs"});
  const fmoe::StallAttribution& stall = engine.signal_stall();
  const auto cls = [&](fmoe::StallClass c) { return static_cast<size_t>(c); };
  const double on = split_available ? 1.0 : 0.0;
  out->push_back({"stall.split_available", on, "flag"});
  out->push_back({"stall.never_prefetched_vs",
                  stall.seconds[cls(fmoe::StallClass::kNeverPrefetched)], "vs"});
  out->push_back({"stall.in_flight_vs", stall.seconds[cls(fmoe::StallClass::kPrefetchInFlight)],
                  "vs"});
  out->push_back({"stall.evicted_before_use_vs",
                  stall.seconds[cls(fmoe::StallClass::kEvictedBeforeUse)], "vs"});
  out->push_back({"stall.never_prefetched_misses",
                  static_cast<double>(stall.misses[cls(fmoe::StallClass::kNeverPrefetched)]),
                  "count"});
  out->push_back({"stall.in_flight_misses",
                  static_cast<double>(stall.misses[cls(fmoe::StallClass::kPrefetchInFlight)]),
                  "count"});
  out->push_back({"stall.evicted_before_use_misses",
                  static_cast<double>(stall.misses[cls(fmoe::StallClass::kEvictedBeforeUse)]),
                  "count"});
  out->push_back({"stall.host_vs", stall.tier_seconds[static_cast<size_t>(fmoe::StallTier::kHost)],
                  "vs"});
  out->push_back({"stall.nvme_vs", stall.tier_seconds[static_cast<size_t>(fmoe::StallTier::kNvme)],
                  "vs"});
  const fmoe::DeferredPipelineStats& deferred = engine.metrics().deferred();
  out->push_back({"serving.deferred.applied_ratio",
                  deferred.published == 0 ? 0.0
                                          : static_cast<double>(deferred.applied) /
                                                static_cast<double>(deferred.published),
                  "ratio"});
}

void AddQueueCounters(const std::vector<fmoe::RequestMetrics>& completed, double occupancy,
                      double makespan, double max_rate, std::vector<Metric>* out) {
  std::vector<double> wait;
  for (const fmoe::RequestMetrics& m : completed) {
    wait.push_back(m.QueueingDelay());
  }
  out->push_back({"serving.queue_wait_p50_s", Pct(wait, 50), "vs"});
  out->push_back({"serving.queue_wait_p90_s", Pct(wait, 90), "vs"});
  out->push_back({"serving.batch_occupancy_mean", occupancy, "count"});
  out->push_back({"serving.makespan_vs", makespan, "vs"});
  out->push_back({"serving.max_rate_under_slo_rps", max_rate, "1/s"});
}

Rep RunOffline(const Workload& w, uint64_t seed, bool probed, bool corrupt, bool setup_only) {
  Rep rep;
  rep.probed = probed;
  const double t0 = NowSeconds();
  fmoe::DatasetProfile dataset = w.dataset;
  dataset.max_decode_tokens = w.max_decode_tokens;
  std::vector<fmoe::Request> all =
      fmoe::WorkloadGenerator(dataset, seed).Generate(w.history + w.requests);
  const std::span<const fmoe::Request> history(all.data(), w.history);
  std::vector<fmoe::Request> test(all.begin() + static_cast<ptrdiff_t>(w.history), all.end());
  rep.gen_s = NowSeconds() - t0;

  std::unique_ptr<Bench> bench = MakeBench(w, seed, probed ? &rep.ledger : nullptr);
  fmoe::ServingEngine& engine = *bench->engine;
  const double warm0 = NowSeconds();
  engine.WarmupWithHistory(history);
  rep.warmup_s = NowSeconds() - warm0;
  rep.setup_s = NowSeconds() - t0;
  if (setup_only) {
    return rep;
  }

  bench->before = Snapshot(engine);
  rep.ledger = HostLedger{};
  const double phase_start = engine.now();
  std::vector<fmoe::RequestMetrics> completed;
  completed.reserve(test.size());
  const double m0 = NowSeconds();
  for (fmoe::Request& request : test) {
    // One closed-loop client: each request is sent when the previous one completes.
    request.arrival_time = engine.now();
    completed.push_back(engine.ServeRequest(request));
    bench->signals.Sample(engine.now());  // Expires old window events; keeps memory flat.
  }
  rep.measured_s = NowSeconds() - m0;
  rep.measured_iterations = engine.metrics().iterations();
  if (corrupt) {
    completed.pop_back();
  }

  rep.sent = test.size();
  rep.failed = CheckServed(test, completed, 0, engine, &rep.problems);
  const double makespan = engine.now() - phase_start;
  AddLatencyMetrics(w, completed, test.size(), engine, makespan, &rep.end_to_end);
  AddCounters(*bench, /*split_available=*/true, &rep.counters);
  AddQueueCounters(completed, 1.0, makespan, 0.0, &rep.counters);
  return rep;
}

// `full_grid` replays every grid rate (the traced run needs them for the highest rate that
// meets the SLO); otherwise only the nominal rate, which all end-to-end metrics report.
Rep RunOnline(const Workload& w, uint64_t seed, bool probed, bool corrupt, bool full_grid,
              bool setup_only) {
  Rep rep;
  rep.probed = probed;
  const double t0 = NowSeconds();
  // The arrival pattern comes from one fixed trace seed, as the paper replays one fixed Azure
  // trace; --seed draws the prompts, topics and token lengths. Each grid rate replays the
  // same sequence with arrival times scaled so that its mean rate (requests over the last
  // arrival time) equals the grid rate exactly: rates differ only in load.
  fmoe::TraceProfile trace;
  trace.max_decode_tokens = w.max_decode_tokens;
  std::vector<fmoe::Request> base =
      fmoe::TraceGenerator(trace, w.dataset, seed).Generate(w.requests);
  const std::vector<fmoe::Request> arrivals =
      fmoe::TraceGenerator(trace, w.dataset, kArrivalSeed).Generate(w.requests);
  for (size_t i = 0; i < base.size(); ++i) {
    base[i].arrival_time = arrivals[i].arrival_time;
  }
  const double base_rate = static_cast<double>(base.size()) / base.back().arrival_time;
  std::vector<size_t> grid;
  for (size_t i = 0; i < w.rates_rps.size(); ++i) {
    if (full_grid || i == w.nominal_rate) {
      grid.push_back(i);
    }
  }
  std::vector<std::vector<fmoe::Request>> per_rate;
  std::vector<std::unique_ptr<Bench>> benches;
  for (const size_t i : grid) {
    per_rate.push_back(base);
    for (fmoe::Request& r : per_rate.back()) {
      r.arrival_time *= base_rate / w.rates_rps[i];
    }
  }
  rep.gen_s = NowSeconds() - t0;
  for (size_t k = 0; k < grid.size(); ++k) {
    benches.push_back(MakeBench(w, seed, probed ? &rep.ledger : nullptr));
    benches.back()->before = Snapshot(*benches.back()->engine);
  }
  rep.setup_s = NowSeconds() - t0;
  if (setup_only) {
    return rep;
  }

  rep.ledger = HostLedger{};
  double max_rate = 0.0;
  size_t nominal = 0;
  std::vector<fmoe::RequestMetrics> nominal_completed;
  fmoe::SchedulerStats nominal_stats;
  fmoe::SchedulerOptions options;
  options.max_batch_size = w.max_batch;
  for (size_t k = 0; k < grid.size(); ++k) {
    const size_t i = grid[k];
    fmoe::ServingEngine& engine = *benches[k]->engine;
    fmoe::ContinuousBatchScheduler scheduler(&engine, options);
    const double m0 = NowSeconds();
    std::vector<fmoe::RequestMetrics> completed = scheduler.Run(per_rate[k]);
    rep.measured_s += NowSeconds() - m0;
    rep.measured_iterations += engine.metrics().iterations();
    if (corrupt && i == w.nominal_rate) {
      completed.pop_back();
    }
    const fmoe::SchedulerStats& stats = scheduler.stats();
    if (stats.arrived_requests != stats.admitted_requests + stats.rejected_requests) {
      rep.problems.push_back("scheduler: arrived != admitted + rejected");
    }
    rep.sent += per_rate[k].size();
    rep.failed += CheckServed(per_rate[k], completed, stats.rejected_requests, engine,
                              &rep.problems);
    std::vector<Metric> latency;
    AddLatencyMetrics(w, completed, per_rate[k].size(), engine, stats.makespan_sec, &latency);
    const double attainment = latency.back().value;
    std::fprintf(stderr, "rate %.3f rps: slo_attainment %.4f, batch occupancy %.3f\n",
                 w.rates_rps[i], attainment, stats.mean_batch_occupancy);
    if (attainment >= kSloShare) {
      max_rate = std::max(max_rate, w.rates_rps[i]);
    }
    if (i == w.nominal_rate) {
      rep.end_to_end = latency;
      nominal = k;
      nominal_completed = std::move(completed);
      nominal_stats = stats;
    }
  }
  AddCounters(*benches[nominal], /*split_available=*/false, &rep.counters);
  AddQueueCounters(nominal_completed, nominal_stats.mean_batch_occupancy,
                   nominal_stats.makespan_sec, max_rate, &rep.counters);
  return rep;
}

Rep RunRep(const Workload& w, uint64_t seed, bool probed, bool corrupt, bool full_grid,
           bool setup_only = false) {
  return w.online ? RunOnline(w, seed, probed, corrupt, full_grid, setup_only)
                  : RunOffline(w, seed, probed, corrupt, setup_only);
}

// Bitwise comparison of the virtual results of two repetitions.
bool SameVirtual(const Rep& a, const Rep& b) {
  const auto same = [](const std::vector<Metric>& x, const std::vector<Metric>& y) {
    if (x.size() != y.size()) {
      return false;
    }
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i].name != y[i].name ||
          std::memcmp(&x[i].value, &y[i].value, sizeof(double)) != 0) {
        return false;
      }
    }
    return true;
  };
  return same(a.end_to_end, b.end_to_end) && same(a.counters, b.counters) &&
         a.failed == b.failed && a.sent == b.sent;
}

double Median(const std::vector<double>& values) { return fmoe::Percentile(values, 50); }

double IterationsPerSecond(const Rep& rep) {
  return static_cast<double>(rep.measured_iterations) / rep.measured_s;
}

// Peak resident set of this process image, or 0 when /proc has no VmHWM. (getrusage's
// ru_maxrss survives exec, so under a forking launcher such as run.py it would report the
// launcher's peak; VmHWM starts fresh at exec.)
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // Reported in kB.
    }
  }
  return 0.0;
}

// Per-layer host metrics of one probed repetition: self times split the measured phase
// between the policy hooks, the engine services they call and the serving loop itself.
std::vector<Metric> HostLayerMetrics(const Rep& rep) {
  const HostLedger& l = rep.ledger;
  const double phase = rep.measured_s;
  const double loop_self = phase - l.hook_total_s - l.service_outside_hooks_s;
  const auto calls = [](uint64_t n) { return static_cast<double>(n); };
  return {
      {"core.policy_start.host_us", l.hook_self_s[HostLedger::kStart] * 1e6, "us"},
      {"core.policy_start.calls", calls(l.hook_calls[HostLedger::kStart]), "count"},
      {"core.policy_gate.host_us", l.hook_self_s[HostLedger::kGate] * 1e6, "us"},
      {"core.policy_gate.calls", calls(l.hook_calls[HostLedger::kGate]), "count"},
      {"core.policy_end.host_us", l.hook_self_s[HostLedger::kEnd] * 1e6, "us"},
      {"core.policy_end.calls", calls(l.hook_calls[HostLedger::kEnd]), "count"},
      {"core.policy.host_share", l.PolicySelf() / phase, "share"},
      {"cache.services.host_us", l.service_s * 1e6, "us"},
      {"cache.services.calls", calls(l.service_calls), "count"},
      {"cache.services.host_share", l.service_s / phase, "share"},
      {"serving.loop_self.host_share", loop_self / phase, "share"},
      {"workload.gen_s", rep.gen_s, "s"},
      {"harness.warmup_s", rep.warmup_s, "s"},
  };
}

// ---------------------------------------------------------------------------------------------
// Output.

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintProvenance(const Workload& w, uint64_t seed, int seconds, int trace, bool small,
                     const std::string& git_commit, size_t reps) {
  std::string rates;
  for (const double r : w.rates_rps) {
    rates += (rates.empty() ? "" : ",") + Num(r);
  }
  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %d, \"trace\": %d, "
      "\"size\": %s, \"reps\": %zu, \"build_type\": %s, \"compiler\": %s, \"nproc\": %ld, "
      "\"git_commit\": %s, \"params\": {\"model\": %s, \"dataset\": %s, \"system\": \"fMoE\", "
      "\"prefetch_distance\": %d, \"store_capacity\": %zu, \"cache_fraction\": %s, "
      "\"gpus\": %d, \"history\": %zu, \"requests\": %zu, \"max_decode_tokens\": %d, "
      "\"online\": %s, \"rates_rps\": [%s], \"nominal_rate_rps\": %s, \"max_batch\": %d, "
      "\"host_pool_fraction\": %s, \"host_stage_candidates\": %d, \"slo_ttft_s\": %s, "
      "\"slo_tpot_s\": %s, \"slo_share\": %s}, "
      "\"timing_model\": \"virtual-time cost model, unvalidated against hardware; no error "
      "figure\", \"regenerate\": %s}}\n",
      JsonString(w.name).c_str(), static_cast<unsigned long long>(seed), seconds, trace,
      small ? "\"small\"" : "\"full\"", reps, JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      JsonString(git_commit).c_str(), JsonString(w.model.name).c_str(),
      JsonString(w.dataset.name).c_str(), kPrefetchDistance, kStoreCapacity,
      Num(kCacheFraction).c_str(), kGpuCount, w.history, w.requests, w.max_decode_tokens,
      w.online ? "true" : "false", rates.c_str(),
      w.online ? Num(w.rates_rps[w.nominal_rate]).c_str() : "null", w.max_batch,
      Num(w.host_pool_fraction).c_str(), w.host_stage_candidates, Num(w.slo_ttft_s).c_str(),
      Num(w.slo_tpot_s).c_str(), Num(kSloShare).c_str(),
      JsonString("python3 perfbench/run.py --workload " + w.name + " --seed " +
                 std::to_string(seed) + " --seconds " + std::to_string(seconds) + " --trace " +
                 std::to_string(trace) + (small ? " --size small" : ""))
          .c_str());
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string body;
  for (const Metric& m : metrics) {
    body += (body.empty() ? "" : ", ") + JsonString(m.name) + ": {\"value\": " + Num(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), body.c_str());
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: fmoe_perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--size full|small] [--corrupt none|drop-request] "
               "[--git-commit <sha>]\n",
               message);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  long long seed = -1;
  int seconds = 0;
  int trace = -1;
  bool small = false;
  bool corrupt = false;
  std::string git_commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoll(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace") {
      trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--size" && (value == "full" || value == "small")) {
      small = value == "small";
    } else if (flag == "--corrupt" && (value == "none" || value == "drop-request")) {
      corrupt = value == "drop-request";
    } else if (flag == "--git-commit") {
      git_commit = value;
    } else {
      return Usage(("unknown flag or value: " + flag + " " + value).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("malformed number for " + flag).c_str());
    }
  }
  if (seed < 0 || seconds < 1 || (trace != 0 && trace != 1)) {
    return Usage("--seed >= 0, --seconds >= 1 and --trace 0|1 are required");
  }
  const std::vector<Workload> workloads = Workloads(small);
  const auto it = std::find_if(workloads.begin(), workloads.end(),
                               [&](const Workload& w) { return w.name == workload_name; });
  if (it == workloads.end()) {
    return Usage(("unknown workload: " + workload_name).c_str());
  }
  const Workload& w = *it;
  const uint64_t useed = static_cast<uint64_t>(seed);

  // Repetitions until the time is up. The first one warms the process and is the reference
  // for the virtual results; host medians skip it. Untraced runs time at least kMinTimedReps
  // repetitions; traced runs at least two of each kind, so determinism (and, when tracing,
  // observer purity) is checked on every run. Once the minimum is met, no repetition starts
  // that the previous one's length says would end past the deadline.
  std::vector<Rep> plain;
  std::vector<Rep> probed;
  std::vector<double> setup;  // Host set-up samples of the untraced run.
  double peak_rss_mb = 0.0;   // After the first repetition: later ones only add fragmentation.
  const double deadline = NowSeconds() + seconds;
  const size_t min_plain = trace == 0 ? kMinTimedReps + 1 : 3;
  double last_rep_s = 0.0;
  while (plain.size() < min_plain || (trace == 1 && probed.size() < 2) ||
         NowSeconds() + last_rep_s <= deadline) {
    const bool probe = trace == 1 && probed.size() + 1 < plain.size();
    std::vector<Rep>& reps = probe ? probed : plain;
    const double rep_start = NowSeconds();
    reps.push_back(RunRep(w, useed, probe, corrupt, /*full_grid=*/trace == 1));
    last_rep_s = NowSeconds() - rep_start;
    const Rep& rep = reps.back();
    if (plain.size() == 1 && probed.empty()) {
      peak_rss_mb = PeakRssMb();
    }
    std::fprintf(stderr, "%s rep: setup %.4f s, measured %.3f s, %llu iterations, %.1f it/s\n",
                 probe ? "probed" : "plain", rep.setup_s, rep.measured_s,
                 static_cast<unsigned long long>(rep.measured_iterations),
                 IterationsPerSecond(rep));
    if (trace == 0 && plain.size() > 1) {
      setup.push_back(rep.setup_s);
      const double budget_end = NowSeconds() + kSetupOnlyShare * last_rep_s;
      size_t extra = 0;
      while (NowSeconds() + setup.back() <= budget_end) {
        setup.push_back(RunRep(w, useed, false, corrupt, false, /*setup_only=*/true).setup_s);
        ++extra;
      }
      if (extra > 0) {
        std::fprintf(stderr, "  %zu set-up-only samples\n", extra);
      }
    }
  }

  const Rep& ref = plain.front();
  bool correct = ref.failed == 0;
  for (const std::string& p : ref.problems) {
    std::fprintf(stderr, "check failed: %s\n", p.c_str());
  }
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const std::vector<Rep>* reps : {&plain, &probed}) {
    for (const Rep& rep : *reps) {
      attempted += rep.sent;
      failed += rep.failed;
      if (!rep.problems.empty()) {
        correct = false;
      }
      if (!SameVirtual(ref, rep)) {
        correct = false;
        std::fprintf(stderr, "check failed: virtual metrics differ between repetitions%s\n",
                     rep.probed ? " (probed vs plain)" : "");
      }
    }
  }

  if (peak_rss_mb <= 0.0) {
    correct = false;
    std::fprintf(stderr, "check failed: /proc/self/status has no VmHWM line\n");
  }
  std::vector<double> ips;
  for (size_t i = 1; i < plain.size(); ++i) {
    ips.push_back(IterationsPerSecond(plain[i]));
  }
  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics.push_back({"setup_s", Median(setup), "s"});
    metrics.push_back({"sim_iters_per_s", Median(ips), "1/s"});
    metrics.push_back({"host_peak_rss_mb", peak_rss_mb, "MB"});
    metrics.insert(metrics.end(), ref.end_to_end.begin(), ref.end_to_end.end());
  } else {
    // Medians over the probed repetitions, metric by metric.
    metrics = HostLayerMetrics(probed.front());
    for (size_t i = 0; i < metrics.size(); ++i) {
      std::vector<double> values;
      for (const Rep& rep : probed) {
        values.push_back(HostLayerMetrics(rep)[i].value);
      }
      metrics[i].value = Median(values);
    }
    std::vector<double> probed_ips;
    for (const Rep& rep : probed) {
      probed_ips.push_back(IterationsPerSecond(rep));
    }
    metrics.push_back({"trace.overhead_share", Median(ips) / Median(probed_ips) - 1.0, "share"});
    metrics.push_back({"harness.requests_failed_share",
                       static_cast<double>(ref.failed) / static_cast<double>(ref.sent), "share"});
    metrics.insert(metrics.end(), ref.counters.begin(), ref.counters.end());
  }
  PrintProvenance(w, useed, seconds, trace, small, git_commit, plain.size() + probed.size());
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
