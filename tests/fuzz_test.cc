// Randomized model-checking tests: drive the expert cache and the PCIe link with long random
// operation sequences and verify them against simple reference models / global invariants.
#include <climits>
#include <cstring>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/on_demand_policy.h"
#include "src/cache/expert_cache.h"
#include "src/core/fmoe_policy.h"
#include "src/core/map_store_io.h"
#include "src/core/sharded_store.h"
#include "src/memsim/link.h"
#include "src/serving/engine.h"
#include "src/serving/scheduler.h"
#include "src/serving/trace.h"
#include "src/util/rng.h"
#include "src/workload/trace_io.h"
#include "src/workload/workload.h"

namespace fmoe {
namespace {

// ---------------------------------------------------------------------------
// ExpertCache vs a reference model.

struct ReferenceEntry {
  uint64_t bytes = 0;
  int pins = 0;
};

class CacheFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheFuzzTest, MatchesReferenceModelUnderRandomOps) {
  Rng rng(GetParam());
  LfuEvictionPolicy policy;
  const uint64_t capacity = 200;
  ExpertCache cache(capacity, &policy);

  std::map<uint64_t, ReferenceEntry> reference;
  uint64_t reference_bytes = 0;
  double now = 0.0;

  for (int step = 0; step < 4000; ++step) {
    now += rng.NextDouble();
    const uint64_t key = rng.NextBounded(40);
    switch (rng.NextBounded(6)) {
      case 0:
      case 1: {  // Insert.
        CacheEntry entry;
        entry.key = key;
        entry.bytes = 5 + rng.NextBounded(30);
        entry.prefetch_pending = false;
        std::vector<CacheEntry> evicted;
        const bool inserted = cache.Insert(entry, now, &evicted);
        if (reference.contains(key)) {
          ASSERT_FALSE(inserted);  // Duplicate keys always rejected.
          break;
        }
        if (inserted) {
          for (const CacheEntry& victim : evicted) {
            const auto it = reference.find(victim.key);
            ASSERT_NE(it, reference.end());
            ASSERT_EQ(it->second.pins, 0);  // Never evicts pinned entries.
            reference_bytes -= it->second.bytes;
            reference.erase(it);
          }
          reference[key] = ReferenceEntry{entry.bytes, 0};
          reference_bytes += entry.bytes;
        } else {
          ASSERT_TRUE(evicted.empty());  // Failed inserts must roll back completely.
        }
        break;
      }
      case 2: {  // Touch.
        if (reference.contains(key)) {
          cache.Touch(key, now);
        }
        break;
      }
      case 3: {  // Pin / unpin.
        const auto it = reference.find(key);
        if (it == reference.end()) {
          break;
        }
        if (it->second.pins > 0 && rng.NextBool(0.6)) {
          cache.Unpin(key);
          --it->second.pins;
        } else {
          cache.Pin(key);
          ++it->second.pins;
        }
        break;
      }
      case 4: {  // Remove (unpinned only).
        const auto it = reference.find(key);
        if (it != reference.end() && it->second.pins == 0) {
          CacheEntry removed;
          ASSERT_TRUE(cache.Remove(key, &removed));
          ASSERT_EQ(removed.bytes, it->second.bytes);
          reference_bytes -= it->second.bytes;
          reference.erase(it);
        } else if (it == reference.end()) {
          ASSERT_FALSE(cache.Remove(key, nullptr));
        }
        break;
      }
      case 5: {  // Decay.
        cache.DecayFrequencies(0.5 + 0.5 * rng.NextDouble());
        break;
      }
    }
    // Global invariants after every operation.
    ASSERT_EQ(cache.size(), reference.size());
    ASSERT_EQ(cache.used_bytes(), reference_bytes);
    ASSERT_LE(cache.used_bytes(), capacity);
    for (const auto& [ref_key, ref_entry] : reference) {
      const ConstEntryRef entry = std::as_const(cache).Find(ref_key);
      ASSERT_TRUE(static_cast<bool>(entry));
      ASSERT_EQ(entry.bytes(), ref_entry.bytes);
      ASSERT_EQ(entry.pin_count(), ref_entry.pins);
      ASSERT_GE(entry.frequency(), 0.0);
    }
  }
  // Drain pins so the fixture ends in a clean state.
  for (auto& [key, entry] : reference) {
    while (entry.pins-- > 0) {
      cache.Unpin(key);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheFuzzTest, ::testing::Values(1u, 17u, 99u, 12345u));

// ---------------------------------------------------------------------------
// PcieLink schedule invariants under random operation streams.

class LinkFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LinkFuzzTest, ScheduleInvariantsHold) {
  Rng rng(GetParam());
  LinkConfig config;
  config.bandwidth_bytes_per_sec = 1000.0;
  config.fixed_latency_sec = 0.01;
  PcieLink link(config);

  std::map<uint64_t, double> completion_by_tag;
  std::set<uint64_t> outstanding;  // Enqueued, neither started nor cancelled.
  uint64_t next_tag = 1;
  double now = 0.0;
  double last_completion = 0.0;

  link.set_completion_callback([&](uint64_t tag, double completion) {
    // Each prefetch completes at most once, never before its enqueue time, and link
    // completions are monotone (FIFO service order).
    ASSERT_TRUE(outstanding.contains(tag));
    outstanding.erase(tag);
    ASSERT_FALSE(completion_by_tag.contains(tag));
    completion_by_tag[tag] = completion;
    ASSERT_GE(completion, last_completion - 1e-12);
    last_completion = completion;
  });

  for (int step = 0; step < 3000; ++step) {
    now += rng.NextExponential(5.0);
    switch (rng.NextBounded(4)) {
      case 0: {  // Prefetch.
        const uint64_t tag = next_tag++;
        outstanding.insert(tag);
        link.EnqueuePrefetch(now, tag, 10 + rng.NextBounded(200));
        break;
      }
      case 1: {  // Demand load: completes in the future, after transfer time.
        const uint64_t bytes = 10 + rng.NextBounded(200);
        const double completion = link.DemandLoad(now, bytes);
        ASSERT_GE(completion, now + link.TransferDuration(bytes) - 1e-12);
        ASSERT_GE(link.busy_until(), completion - 1e-12);
        break;
      }
      case 2: {  // Cancel a random outstanding prefetch (it may already have started).
        if (!outstanding.empty()) {
          const uint64_t tag = *outstanding.begin();
          if (link.CancelQueuedPrefetch(tag)) {
            outstanding.erase(tag);
          }
        }
        break;
      }
      case 3: {  // Tick.
        link.Tick(now);
        break;
      }
    }
    ASSERT_LE(link.queued_prefetch_count(), outstanding.size());
  }
  // Flush everything: all outstanding prefetches eventually start.
  link.Tick(now + 1e6);
  ASSERT_TRUE(outstanding.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkFuzzTest, ::testing::Values(2u, 33u, 555u, 98765u));

// ---------------------------------------------------------------------------
// Full-engine invariants under randomized asynchronous-pipeline and tier knobs: whatever the
// matcher latency scale, queue depth, and storage hierarchy (two-tier or three-tier, any host
// capacity, any NVMe speed, KV pressure on or off), the cache never overflows, transfer-tag
// and tier bookkeeping stay consistent, virtual time only moves forward, and the deferred
// counters balance. Random tier knobs deliberately race promotions (host staging chained into
// GPU fills) against demand promotion and GPU-victim demotion.

class EngineFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineFuzzTest, RandomAsyncKnobsPreserveEngineInvariants) {
  Rng rng(GetParam());
  const ModelConfig model = TinyTestConfig();
  const double kScales[] = {0.0, 0.25, 1.0, 16.0, 1024.0};

  for (int round = 0; round < 6; ++round) {
    EngineConfig config;
    config.prefetch_distance = 1 + static_cast<int>(rng.NextBounded(3));
    config.expert_cache_bytes = model.expert_bytes * (2 + rng.NextBounded(12));
    config.cache_policy = "fMoE-PriorityLFU";
    config.gpu_count = 1 + static_cast<int>(rng.NextBounded(3));
    config.matcher_latency_scale = kScales[rng.NextBounded(5)];
    config.matcher_queue_depth = 1 + static_cast<int>(rng.NextBounded(48));
    if (rng.NextBool(0.7)) {  // Three-tier hierarchy with randomized tier knobs.
      config.tier.nvme_backing = true;
      config.tier.host_capacity_bytes = model.expert_bytes * rng.NextBounded(10);  // 0 = 2-tier.
      config.tier.nvme_link.bandwidth_bytes_per_sec = 1.0e9 + 1.0e9 * rng.NextDouble() * 8.0;
      config.tier.nvme_link.fixed_latency_sec = 20e-6 + 200e-6 * rng.NextDouble();
      config.tier.allow_direct_nvme_gpu = rng.NextBool(0.25);
      config.tier.kv_bytes_per_token = rng.NextBool(0.5) ? 64.0 * rng.NextDouble() : 0.0;
    }

    FmoeOptions options;
    options.store_capacity = 32;
    options.host_stage_candidates = static_cast<int>(rng.NextBounded(4));
    FmoePolicy policy(model, config.prefetch_distance, options);
    ServingEngine engine(model, config, &policy);

    double last_now = 0.0;
    for (uint64_t r = 0; r < 6; ++r) {
      Request request;
      request.id = static_cast<uint64_t>(round) * 100 + r;
      request.routing.cluster = static_cast<int>(rng.NextBounded(4));
      request.routing.blend_cluster = request.routing.cluster;
      request.routing.seed = request.id * 7919 + 13;
      request.prompt_tokens = 4 + static_cast<int>(rng.NextBounded(24));
      request.decode_tokens = static_cast<int>(rng.NextBounded(8));
      engine.ServeRequest(request);

      ASSERT_LE(engine.cache().used_bytes(), engine.cache().capacity_bytes());
      ASSERT_TRUE(engine.TransferTagsConsistent());
      ASSERT_TRUE(engine.TierBookkeepingConsistent());
      ASSERT_LE(engine.store().host().used_bytes(), engine.store().host().capacity_bytes());
      if (!config.tier.allow_direct_nvme_gpu) {
        ASSERT_EQ(engine.store().stats().direct_loads, 0u)
            << "NVMe->GPU teleport without the direct path configured";
      }
      ASSERT_GE(engine.now(), last_now);
      last_now = engine.now();
      ASSERT_LE(engine.PendingDeferredJobs(),
                static_cast<size_t>(config.matcher_queue_depth));
      for (const uint64_t key : engine.cache().Keys()) {
        const ConstEntryRef entry = engine.cache().Find(key);
        ASSERT_TRUE(static_cast<bool>(entry));
        // A live entry is either awaiting its queued transfer (no ready time yet) or fully
        // scheduled with a concrete ready time.
        ASSERT_EQ(entry.prefetch_pending(), !std::isfinite(entry.ready_at())) << "key " << key;
      }
    }

    const RunMetrics& metrics = engine.metrics();
    const DeferredPipelineStats& deferred = metrics.deferred();
    EXPECT_EQ(deferred.applied + deferred.superseded + deferred.dropped + deferred.blocking +
                  engine.PendingDeferredJobs(),
              deferred.published)
        << "every published job must be applied, superseded, dropped, or still pending";
    if (config.matcher_latency_scale == 0.0) {
      EXPECT_EQ(engine.PendingDeferredJobs(), 0u) << "scale 0 applies every job inline";
    }
    uint64_t per_iteration = 0;
    for (const IterationRecord& record : metrics.iteration_records()) {
      per_iteration += record.hits + record.misses;
    }
    EXPECT_EQ(per_iteration, metrics.expert_hits() + metrics.expert_misses());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzzTest, ::testing::Values(5u, 77u, 4242u, 31337u));

// ---------------------------------------------------------------------------
// Scheduler + admission-controller invariants under randomized knobs (DESIGN.md §5j): for any
// policy, SLO, gain, window, cadence, and queue discipline, the controller's books must
// balance — every arrived request is either admitted (and then served) or rejected, the
// scheduler's counters agree with the controller's, and open loop never sheds.

class SchedulerFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchedulerFuzzTest, ControllerBookkeepingConsistent) {
  Rng rng(GetParam());
  const ModelConfig model = TinyTestConfig();

  for (int round = 0; round < 8; ++round) {
    EngineConfig config;
    config.prefetch_distance = 1 + static_cast<int>(rng.NextBounded(3));
    config.expert_cache_bytes = model.expert_bytes * (2 + rng.NextBounded(12));
    config.cache_policy = "LRU";
    config.gpu_count = 1 + static_cast<int>(rng.NextBounded(2));
    OnDemandPolicy policy(OnDemandOptions{.expert_agnostic = false});
    ServingEngine engine(model, config, &policy);

    SchedulerOptions sched;
    sched.max_batch_size = 1 + static_cast<int>(rng.NextBounded(6));
    sched.discipline = rng.NextBool(0.5) ? SchedulerOptions::QueueDiscipline::kFcfs
                                         : SchedulerOptions::QueueDiscipline::kShortestJobFirst;
    const bool closed_loop = rng.NextBool(0.5);
    sched.admission.policy =
        closed_loop ? AdmissionPolicyKind::kGradient : AdmissionPolicyKind::kOpenLoop;
    sched.admission.slo_sec = rng.NextBool(0.5) ? 0.02 + rng.NextDouble() : 0.0;
    sched.admission.shed_fraction = 0.05 + 0.95 * rng.NextDouble();
    sched.admission.window_sec = 0.05 + rng.NextDouble();
    sched.admission.update_period_sec = rng.NextBool(0.3) ? 0.0 : 0.05 * rng.NextDouble();
    sched.admission.gain = 0.05 + 0.9 * rng.NextDouble();
    sched.admission.thrash_threshold = rng.NextDouble();
    sched.admission.inflight_threshold = rng.NextDouble();
    ContinuousBatchScheduler scheduler(&engine, sched);

    const size_t request_count = 4 + rng.NextBounded(28);
    std::vector<Request> requests;
    double arrival = 0.0;
    for (uint64_t r = 0; r < request_count; ++r) {
      Request request;
      request.id = static_cast<uint64_t>(round) * 1000 + r;
      request.routing.cluster = static_cast<int>(rng.NextBounded(4));
      request.routing.blend_cluster = request.routing.cluster;
      request.routing.seed = request.id * 7919 + 13;
      request.prompt_tokens = 4 + static_cast<int>(rng.NextBounded(24));
      request.decode_tokens = 1 + static_cast<int>(rng.NextBounded(16));
      request.arrival_time = arrival;
      // Mix simultaneous stampedes (deep queues that can trip the shedder) with gaps.
      arrival += rng.NextBool(0.5) ? 0.0 : rng.NextExponential(20.0);
      requests.push_back(request);
    }

    const auto completed = scheduler.Run(requests);
    const SchedulerStats& stats = scheduler.stats();
    const AdmissionController& controller = scheduler.controller();

    // The books balance: arrived partitions into admitted + rejected; admitted == served.
    ASSERT_EQ(stats.arrived_requests, request_count);
    ASSERT_EQ(stats.arrived_requests, stats.admitted_requests + stats.rejected_requests);
    ASSERT_EQ(stats.served_requests, stats.admitted_requests);
    ASSERT_EQ(completed.size(), stats.served_requests);
    // Scheduler and controller agree on every counter.
    ASSERT_EQ(controller.counters().arrived, stats.arrived_requests);
    ASSERT_EQ(controller.counters().admitted, stats.admitted_requests);
    ASSERT_EQ(controller.counters().rejected, stats.rejected_requests);
    // Open loop (or a disabled SLO) never sheds.
    if (!closed_loop || sched.admission.slo_sec == 0.0) {
      ASSERT_EQ(stats.rejected_requests, 0u);
    }
    // Whatever the controller did to the batch limit, occupancy respects the configured max.
    ASSERT_LE(stats.mean_batch_occupancy,
              static_cast<double>(sched.max_batch_size) + 1e-12);
    ASSERT_TRUE(engine.TransferTagsConsistent());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzzTest, ::testing::Values(7u, 123u, 2026u, 60901u));

// ---------------------------------------------------------------------------
// Trace CSV reader under byte mutations: a valid exported trace has bytes overwritten,
// inserted and deleted, and number-shaped tokens spliced in (nan, inf, counts past INT_MAX).
// Whatever the reader accepts must be finite, non-negative, arrival-sorted, and hold each
// row's counts exactly as written (no narrowing into the int fields).

class TraceCsvFuzzTest : public ::testing::TestWithParam<uint64_t> {};

// The data rows of `csv` (header dropped, blank lines skipped), each split on commas and
// trimmed the way the reader trims.
std::vector<std::vector<std::string>> DataRows(const std::string& csv) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);
  while (std::getline(lines, line)) {
    if (line.empty() || line == "\r") {
      continue;
    }
    std::vector<std::string> cells;
    std::istringstream fields(line);
    std::string cell;
    while (std::getline(fields, cell, ',')) {
      const size_t begin = cell.find_first_not_of(" \t\r");
      const size_t end = cell.find_last_not_of(" \t\r");
      cells.push_back(begin == std::string::npos ? "" : cell.substr(begin, end - begin + 1));
    }
    rows.push_back(cells);
  }
  return rows;
}

TEST_P(TraceCsvFuzzTest, AcceptedParsesAreFiniteSortedAndExact) {
  Rng rng(GetParam());
  std::ostringstream exported;
  ASSERT_TRUE(
      WriteTraceCsv(TraceGenerator(TraceProfile{}, LmsysLikeProfile(), GetParam()).Generate(6),
                    exported)
          .ok);
  const std::string base = exported.str();
  const size_t header_end = base.find('\n') + 1;  // The header stays intact.
  const std::string alphabet = "0123456789-+.eE,xnaifNI \r\n";
  const std::vector<std::string> tokens = {
      "nan", "inf", "-inf", "1e400", "-0", "4294967297", "2147483648", "2147483647",
      "-2147483649", "9223372036854775808", "0x1p3", "", ","};

  size_t accepted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string csv = base;
    const int edits = 1 + static_cast<int>(rng.NextBounded(4));
    for (int e = 0; e < edits && csv.size() > header_end; ++e) {
      const size_t at = header_end + rng.NextBounded(csv.size() - header_end);
      switch (rng.NextBounded(4)) {
        case 0:
          csv[at] = alphabet[rng.NextBounded(alphabet.size())];
          break;
        case 1:
          csv[at] = static_cast<char>(rng.NextBounded(256));
          break;
        case 2:
          csv.erase(at, 1 + rng.NextBounded(3));
          break;
        default:
          csv.insert(at, tokens[rng.NextBounded(tokens.size())]);
          break;
      }
    }
    std::istringstream in(csv);
    std::vector<Request> requests;
    if (!ReadTraceCsv(in, LmsysLikeProfile(), &requests).ok) {
      continue;
    }
    ++accepted;
    const std::vector<std::vector<std::string>> rows = DataRows(csv);
    ASSERT_EQ(rows.size(), requests.size()) << csv;
    for (size_t i = 0; i < requests.size(); ++i) {
      const Request& request = requests[i];
      ASSERT_TRUE(std::isfinite(request.arrival_time)) << csv;
      ASSERT_GE(request.arrival_time, 0.0) << csv;
      if (i > 0) {
        ASSERT_GE(request.arrival_time, requests[i - 1].arrival_time) << csv;
      }
      ASSERT_GT(request.prompt_tokens, 0) << csv;
      ASSERT_GE(request.decode_tokens, 0) << csv;
      ASSERT_EQ(std::strtoll(rows[i][2].c_str(), nullptr, 10), request.prompt_tokens) << csv;
      ASSERT_EQ(std::strtoll(rows[i][3].c_str(), nullptr, 10), request.decode_tokens) << csv;
      ASSERT_EQ(std::strtod(rows[i][1].c_str(), nullptr), request.arrival_time) << csv;
    }
  }
  // Both outcomes must actually occur, or the fuzz is testing nothing.
  EXPECT_GT(accepted, 100u);
  EXPECT_LT(accepted, 3000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceCsvFuzzTest, ::testing::Values(3u, 41u, 2718u, 99991u));

// ---------------------------------------------------------------------------
// Map-store loader under byte mutations: a valid 2-shard store file has bytes overwritten,
// inserted and deleted, 32/64-bit counts spliced over its fields, and its tail cut off. Each
// mutant loads into a store that already holds records. A rejected load must leave that store
// exactly as it was (same records, same generations); an accepted one must leave a store
// whose every record has the model's map shape and finite values, and that searches.

class MapStoreFileFuzzTest : public ::testing::TestWithParam<uint64_t> {};

StoredIteration FuzzRecord(const ModelConfig& model, Rng& rng, uint64_t id) {
  StoredIteration record;
  record.request_id = id;
  record.iteration = static_cast<int>(rng.NextBounded(16));
  record.map = ExpertMap(model.num_layers, model.experts_per_layer);
  for (int layer = 0; layer < model.num_layers; ++layer) {
    std::vector<double> row(static_cast<size_t>(model.experts_per_layer));
    for (double& p : row) {
      p = rng.NextDouble();
    }
    record.map.SetLayer(layer, row);
  }
  record.embedding = {rng.NextUniform(-1, 1), rng.NextUniform(-1, 1), rng.NextUniform(-1, 1),
                      rng.NextUniform(-1, 1)};
  return record;
}

ShardedMapStore FuzzStore(const ModelConfig& model, MapPrecision precision) {
  return ShardedMapStore(model, 24, 2, StoreDedupPolicy::kRedundancy, precision, 2,
                         kSemanticRouterSeed);
}

TEST_P(MapStoreFileFuzzTest, RejectedLoadsLeaveStoreUntouchedAcceptedLoadsAreConsistent) {
  const ModelConfig model = TinyTestConfig();
  Rng rng(GetParam());
  const std::vector<uint64_t> counts = {0, 1, 7, 0xFFFFFFFFull, 0xF0000000ull, 1ull << 58,
                                        ~0ull};
  // Probabilities (or int8 scales and offsets) spliced over a value: out of [0, 1], the
  // edges, and one ulp past them.
  const std::vector<float> values = {1.5f,
                                     -0.25f,
                                     std::numeric_limits<float>::max(),
                                     -std::numeric_limits<float>::max(),
                                     1e30f,
                                     0.0f,
                                     1.0f,
                                     std::nextafter(1.0f, 2.0f),
                                     -std::numeric_limits<float>::denorm_min()};

  for (const MapPrecision precision :
       {MapPrecision::kFp32, MapPrecision::kFp16, MapPrecision::kInt8}) {
    SCOPED_TRACE(static_cast<int>(precision));
    ShardedMapStore source = FuzzStore(model, precision);
    for (uint64_t id = 0; id < 10; ++id) {
      source.Insert(FuzzRecord(model, rng, id));
    }
    std::ostringstream saved;
    ASSERT_TRUE(SaveStore(source, saved).ok);
    const std::string base = saved.str();

    size_t accepted = 0;
    size_t rejected = 0;
    for (int trial = 0; trial < 600; ++trial) {
      std::string bytes = base;
      const int edits = 1 + static_cast<int>(rng.NextBounded(3));
      for (int e = 0; e < edits && !bytes.empty(); ++e) {
        const size_t at = rng.NextBounded(bytes.size());
        switch (rng.NextBounded(6)) {
          case 0:
            bytes[at] = static_cast<char>(rng.NextBounded(256));
            break;
          case 1:
            bytes.erase(at, 1 + rng.NextBounded(8));
            break;
          case 2:
            bytes.insert(at, 1 + rng.NextBounded(8), static_cast<char>(rng.NextBounded(256)));
            break;
          case 3: {  // A count spliced over whatever field sits at `at`.
            const uint64_t count = counts[rng.NextBounded(counts.size())];
            const size_t width = rng.NextBool(0.5) ? 4 : 8;
            if (at + width <= bytes.size()) {
              std::memcpy(bytes.data() + at, &count, width);
            }
            break;
          }
          case 4: {  // A float spliced over whatever field sits at `at`.
            const float value = values[rng.NextBounded(values.size())];
            if (at + sizeof(value) <= bytes.size()) {
              std::memcpy(bytes.data() + at, &value, sizeof(value));
            }
            break;
          }
          default:
            bytes.resize(at);
            break;
        }
      }

      ShardedMapStore store = FuzzStore(model, precision);
      Rng prefill_rng(7);
      for (uint64_t id = 100; id < 103; ++id) {
        store.Insert(FuzzRecord(model, prefill_rng, id));
      }
      std::vector<uint64_t> before;
      for (size_t i = 0; i < store.size(); ++i) {
        before.push_back(store.Get(i).request_id);
      }
      const uint64_t generations = store.generation(0) + store.generation(1);

      std::istringstream in(bytes);
      const StoreIoResult io = LoadStore(in, &store);
      if (!io.ok) {
        ++rejected;
        ASSERT_FALSE(io.error.empty());
        ASSERT_EQ(store.size(), before.size());
        ASSERT_EQ(store.generation(0) + store.generation(1), generations);
        for (size_t i = 0; i < before.size(); ++i) {
          ASSERT_EQ(store.Get(i).request_id, before[i]);
        }
        continue;
      }
      ++accepted;
      ASSERT_LE(store.size(), store.capacity());
      ASSERT_GE(store.size(), before.size());
      for (size_t i = 0; i < store.size(); ++i) {
        const StoredIteration& record = store.Get(i);
        ASSERT_EQ(record.map.Flat().size(),
                  static_cast<size_t>(model.num_layers * model.experts_per_layer));
        for (const double p : record.map.Flat()) {
          ASSERT_GE(p, 0.0);
          ASSERT_LE(p, 1.0);
        }
        for (const double x : record.embedding) {
          ASSERT_TRUE(std::isfinite(x));
        }
      }
      // What the scans see stays finite too (an int8 column stretched to infinity used to
      // decode every record of that column as NaN).
      for (int s = 0; s < store.num_shards(); ++s) {
        const ExpertMapStore& shard = store.shard(s);
        for (size_t i = 0; i < shard.size(); ++i) {
          for (const float v : shard.MapRow(i)) {
            ASSERT_TRUE(std::isfinite(v));
          }
        }
      }
      const std::vector<double> query = {0.5, -0.25, 0.125, 1.0};
      ASSERT_TRUE(store.SemanticSearch(query).found);
      const std::span<const double> prefix = store.Get(size_t{0}).map.Flat().first(
          static_cast<size_t>(model.experts_per_layer));
      const SearchResult trajectory = store.TrajectorySearch(prefix, 1);
      ASSERT_TRUE(trajectory.found);
      ASSERT_TRUE(std::isfinite(trajectory.score));
    }
    // Both outcomes must actually occur, or the fuzz is testing nothing.
    EXPECT_GT(accepted, 30u);
    EXPECT_GT(rejected, 30u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapStoreFileFuzzTest, ::testing::Values(5u, 67u, 1409u));

}  // namespace
}  // namespace fmoe
