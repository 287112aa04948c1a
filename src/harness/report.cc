#include "src/harness/report.h"

#include <cstdio>
#include <iomanip>

namespace fmoe {
namespace {

// JSON-safe number formatting: fixed precision, never locale-dependent.
std::string Num(double value, int precision = 9) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
  return buffer;
}

}  // namespace

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void WriteResultJson(const ExperimentResult& result, bool include_latencies,
                     std::ostream& out) {
  out << "{";
  out << "\"system\":\"" << JsonEscape(result.system) << "\",";
  out << "\"mean_ttft_s\":" << Num(result.mean_ttft) << ",";
  out << "\"mean_tpot_s\":" << Num(result.mean_tpot) << ",";
  out << "\"hit_rate\":" << Num(result.hit_rate) << ",";
  out << "\"mean_e2e_s\":" << Num(result.mean_e2e) << ",";
  out << "\"iterations\":" << result.iterations << ",";
  out << "\"cache_capacity_gb\":" << Num(result.cache_capacity_gb) << ",";
  out << "\"cache_used_gb\":" << Num(result.cache_used_gb) << ",";
  out << "\"mean_semantic_score\":" << Num(result.mean_semantic_score) << ",";
  out << "\"mean_trajectory_score\":" << Num(result.mean_trajectory_score) << ",";
  const LatencyBreakdown& b = result.breakdown;
  out << "\"breakdown\":{";
  out << "\"attention_compute_s\":" << Num(b.attention_compute) << ",";
  out << "\"expert_compute_s\":" << Num(b.expert_compute) << ",";
  out << "\"demand_stall_s\":" << Num(b.demand_stall) << ",";
  out << "\"layer_overhead_s\":" << Num(b.layer_overhead) << ",";
  out << "\"sync_overhead_s\":{";
  for (size_t i = 0; i < b.sync_overhead.size(); ++i) {
    out << "\"" << OverheadCategoryName(static_cast<OverheadCategory>(i))
        << "\":" << Num(b.sync_overhead[i]);
    if (i + 1 < b.sync_overhead.size()) {
      out << ",";
    }
  }
  out << "},\"async_work_s\":{";
  for (size_t i = 0; i < b.async_work.size(); ++i) {
    out << "\"" << OverheadCategoryName(static_cast<OverheadCategory>(i))
        << "\":" << Num(b.async_work[i]);
    if (i + 1 < b.async_work.size()) {
      out << ",";
    }
  }
  out << "},";
  out << "\"policy_critical_path_s\":" << Num(b.PolicyCriticalPathSeconds()) << ",";
  out << "\"policy_overlapped_s\":" << Num(b.PolicyOverlappedSeconds());
  out << "},";
  const DeferredPipelineStats& d = result.deferred;
  out << "\"deferred\":{";
  out << "\"published\":" << d.published << ",";
  out << "\"applied\":" << d.applied << ",";
  out << "\"superseded\":" << d.superseded << ",";
  out << "\"dropped\":" << d.dropped << ",";
  out << "\"blocking\":" << d.blocking << ",";
  out << "\"pending\":" << d.Pending() << ",";
  out << "\"modeled_work_s\":" << Num(d.modeled_work_s) << ",";
  out << "\"overlapped_s\":" << Num(d.overlapped_s) << ",";
  out << "\"wasted_work_s\":" << Num(d.wasted_work_s) << ",";
  out << "\"queue_wait_s\":" << Num(d.queue_wait_s) << ",";
  out << "\"decision_latency_s\":" << Num(d.decision_latency_s);
  out << "}";
  if (result.tier_enabled) {
    // Emitted only for multi-tier runs, so legacy (two-tier) reports stay byte-identical.
    const TierStats& t = result.tier;
    out << ",\"tier\":{";
    out << "\"host_capacity_gb\":" << Num(result.host_capacity_gb) << ",";
    out << "\"host_used_gb\":" << Num(result.host_used_gb) << ",";
    out << "\"host_hits\":" << t.host_hits << ",";
    out << "\"nvme_hits\":" << t.nvme_hits << ",";
    out << "\"gpu_fills_from_host\":" << t.gpu_fills_from_host << ",";
    out << "\"gpu_fills_chained\":" << t.gpu_fills_chained << ",";
    out << "\"direct_loads\":" << t.direct_loads << ",";
    out << "\"stages_issued\":" << t.stages_issued << ",";
    out << "\"stages_landed\":" << t.stages_landed << ",";
    out << "\"stage_promotions\":" << t.stage_promotions << ",";
    out << "\"demotions_to_host\":" << t.demotions_to_host << ",";
    out << "\"demotions_to_nvme\":" << t.demotions_to_nvme << ",";
    out << "\"host_spills\":" << t.host_spills;
    out << "}";
  }
  if (result.cluster_enabled) {
    // Emitted only for multi-replica runs, so single-engine reports stay byte-identical.
    const ClusterSummary& c = result.cluster;
    out << ",\"cluster\":{";
    out << "\"replicas\":" << c.replicas << ",";
    out << "\"router_policy\":\"" << RouterPolicyName(c.router) << "\",";
    out << "\"memory_mode\":\"" << ClusterMemoryModeName(c.memory) << "\",";
    out << "\"makespan_s\":" << Num(c.makespan) << ",";
    out << "\"aggregate_throughput_rps\":" << Num(c.aggregate_throughput_rps) << ",";
    out << "\"replica_stats\":[";
    for (size_t i = 0; i < c.replica_stats.size(); ++i) {
      const ClusterReplicaStats& r = c.replica_stats[i];
      out << "{\"replica\":" << r.replica << ",";
      out << "\"requests\":" << r.requests << ",";
      out << "\"iterations\":" << r.iterations << ",";
      out << "\"mean_e2e_s\":" << Num(r.mean_e2e) << ",";
      out << "\"hit_rate\":" << Num(r.hit_rate) << ",";
      out << "\"busy_until_s\":" << Num(r.busy_until) << "}";
      if (i + 1 < c.replica_stats.size()) {
        out << ",";
      }
    }
    out << "]}";
  }
  if (result.admission_enabled) {
    // Emitted only for closed-loop admission runs, so open-loop reports stay byte-identical.
    out << ",\"admission\":{";
    out << "\"policy\":\"" << AdmissionPolicyName(result.admission_policy) << "\",";
    out << "\"arrived\":" << result.admission.arrived << ",";
    out << "\"admitted\":" << result.admission.admitted << ",";
    out << "\"rejected\":" << result.admission.rejected;
    out << "}";
  }
  if (result.oracle_enabled) {
    // Emitted only when the clairvoyant oracle ran, so default reports stay byte-identical.
    const OracleReport& o = result.oracle;
    out << ",\"oracle\":{";
    out << "\"accesses\":" << o.accesses << ",";
    out << "\"policy_hits\":" << o.policy_hits << ",";
    out << "\"policy_misses\":" << o.policy_misses << ",";
    out << "\"oracle_fetches\":" << o.oracle_fetches << ",";
    out << "\"oracle_hits\":" << o.oracle_hits << ",";
    out << "\"oracle_misses\":" << o.oracle_misses << ",";
    out << "\"policy_stall_s\":" << Num(o.policy_stall_s) << ",";
    out << "\"oracle_stall_s\":" << Num(o.oracle_stall_s) << ",";
    out << "\"miss_gap\":" << Num(o.miss_gap) << ",";
    out << "\"stall_gap\":" << Num(o.stall_gap) << ",";
    out << "\"pct_of_clairvoyant\":" << Num(o.pct_of_clairvoyant);
    out << "}";
  }
  if (include_latencies) {
    out << ",\"request_latencies_s\":[";
    for (size_t i = 0; i < result.request_latencies.size(); ++i) {
      out << Num(result.request_latencies[i]);
      if (i + 1 < result.request_latencies.size()) {
        out << ",";
      }
    }
    out << "]";
  }
  out << "}";
}

void WriteResultsJson(const std::vector<ExperimentResult>& results, bool include_latencies,
                      std::ostream& out) {
  out << "[";
  for (size_t i = 0; i < results.size(); ++i) {
    WriteResultJson(results[i], include_latencies, out);
    if (i + 1 < results.size()) {
      out << ",";
    }
  }
  out << "]\n";
}

void WritePlanReportJson(const ExperimentPlan& plan,
                         const std::vector<ExperimentResult>& results,
                         bool include_latencies, std::ostream& out) {
  out << "{\"plan_seed\":" << plan.plan_seed() << ",\"tasks\":[";
  const std::vector<ExperimentTask>& tasks = plan.tasks();
  for (size_t i = 0; i < tasks.size(); ++i) {
    const ExperimentTask& task = tasks[i];
    out << "{\"index\":" << i << ",";
    out << "\"system\":\"" << JsonEscape(task.system) << "\",";
    const char* mode = task.source == RequestSource::kSplit      ? "offline"
                       : task.serving == Serving::kContinuous     ? "scheduled"
                       : task.options.replicas > 1                ? "cluster"
                                                                  : "online";
    out << "\"mode\":\"" << mode << "\",";
    out << "\"seed\":" << task.options.seed << ",";
    out << "\"tags\":[";
    for (size_t t = 0; t < task.tags.size(); ++t) {
      out << "\"" << JsonEscape(task.tags[t]) << "\"";
      if (t + 1 < task.tags.size()) {
        out << ",";
      }
    }
    out << "],\"result\":";
    if (i < results.size()) {
      WriteResultJson(results[i], include_latencies, out);
    } else {
      out << "null";
    }
    out << "}";
    if (i + 1 < tasks.size()) {
      out << ",";
    }
  }
  out << "]}\n";
}

void WriteResultsCsv(const std::vector<ExperimentResult>& results, std::ostream& out) {
  out << "system,ttft_s,tpot_s,hit_rate,e2e_s,iterations,cache_capacity_gb,cache_used_gb,"
         "demand_stall_s,sync_overhead_s\n";
  for (const ExperimentResult& result : results) {
    out << result.system << "," << Num(result.mean_ttft) << "," << Num(result.mean_tpot) << ","
        << Num(result.hit_rate) << "," << Num(result.mean_e2e) << "," << result.iterations
        << "," << Num(result.cache_capacity_gb) << "," << Num(result.cache_used_gb) << ","
        << Num(result.breakdown.demand_stall) << ","
        << Num(result.breakdown.TotalSyncOverhead()) << "\n";
  }
}

}  // namespace fmoe
