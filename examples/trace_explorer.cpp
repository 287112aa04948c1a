// Trace explorer: run a small fMoE offline experiment with a TraceRecorder attached, then
// summarise what the observability layer captured — per-track event counts, an ASCII busy
// timeline of the measured phase, and the demand-stall attribution table (DESIGN.md §5f).
//
// Build & run:
//   cmake -B build -S . && cmake --build build
//   ./build/examples/trace_explorer                  # summary only
//   ./build/examples/trace_explorer /tmp/trace.json  # also export Perfetto JSON
//
// The exported file loads directly in ui.perfetto.dev or chrome://tracing; virtual-time
// seconds are mapped to trace microseconds, so 1 ms of wall display = 1 s of simulation.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/obs/perfetto_export.h"
#include "src/obs/stall_report.h"
#include "src/obs/trace_recorder.h"
#include "src/util/table.h"

namespace {

// Renders one busy line per track: 64 equal virtual-time buckets, shaded by the fraction of
// the bucket covered by span events (instants and counters count as a touch).
void PrintTimeline(const fmoe::TraceRecorder& recorder, std::ostream& out) {
  const std::vector<fmoe::TraceEvent>& events = recorder.events();
  if (events.empty()) {
    return;
  }
  double t0 = events.front().start_s;
  double t1 = t0;
  for (const fmoe::TraceEvent& event : events) {
    t0 = std::min(t0, event.start_s);
    t1 = std::max(t1, std::max(event.start_s, event.end_s));
  }
  if (t1 <= t0) {
    return;
  }
  constexpr int kBuckets = 64;
  const double bucket_s = (t1 - t0) / kBuckets;
  const std::vector<std::string>& tracks = recorder.track_names();
  size_t label_width = 0;
  for (const std::string& name : tracks) {
    label_width = std::max(label_width, name.size());
  }

  out << "\nBusy timeline, " << fmoe::AsciiTable::Num(t0, 3) << "s .. "
      << fmoe::AsciiTable::Num(t1, 3) << "s virtual (each column = "
      << fmoe::AsciiTable::Num(bucket_s * 1e3, 2) << " ms):\n";
  for (size_t track = 0; track < tracks.size(); ++track) {
    std::vector<double> busy(kBuckets, 0.0);
    for (const fmoe::TraceEvent& event : events) {
      if (event.track != static_cast<int>(track) + 1) {
        continue;
      }
      const double start = event.start_s;
      const double end =
          event.phase == fmoe::TracePhase::kSpan ? std::max(event.end_s, start) : start;
      int first = static_cast<int>((start - t0) / bucket_s);
      int last = static_cast<int>((end - t0) / bucket_s);
      first = std::clamp(first, 0, kBuckets - 1);
      last = std::clamp(last, 0, kBuckets - 1);
      for (int b = first; b <= last; ++b) {
        const double lo = t0 + b * bucket_s;
        const double hi = lo + bucket_s;
        const double overlap =
            event.phase == fmoe::TracePhase::kSpan
                ? std::max(0.0, std::min(end, hi) - std::max(start, lo))
                : bucket_s * 0.25;  // Point events: tick the bucket lightly.
        busy[b] = std::min(bucket_s, busy[b] + overlap);
      }
    }
    out << "  " << tracks[track] << std::string(label_width - tracks[track].size(), ' ')
        << " |";
    for (int b = 0; b < kBuckets; ++b) {
      const double fraction = busy[b] / bucket_s;
      out << (fraction <= 0.0 ? ' ' : fraction < 0.25 ? '.' : fraction < 0.75 ? ':' : '#');
    }
    out << "|\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  fmoe::ExperimentOptions options;
  options.model = fmoe::TinyTestConfig();
  options.dataset = fmoe::LmsysLikeProfile();
  options.history_requests = 48;
  options.test_requests = 12;
  options.max_decode_tokens = 16;
  // Model the background matcher worker (§4.3) so its track carries match-job spans; at the
  // default scale of 0 decisions are instantaneous and the matcher timeline is empty.
  options.matcher_latency_scale = 1.0;
  // Run the three-tier store (§5h) so the host_pool and nvme/link pseudo-threads show up in
  // the track table and timeline: expert misses ride NVMe -> host RAM -> GPU, and the fMoE
  // policy speculatively stages its runner-up map candidates into the host pool.
  options.tier.nvme_backing = true;
  options.tier.host_capacity_bytes = static_cast<uint64_t>(0.05 * 1024 * 1024 * 1024);
  options.host_stage_candidates = 2;

  fmoe::TraceRecorder recorder;
  options.trace = &recorder;

  fmoe::PrintBanner(std::cout, "trace explorer: fMoE on " + options.model.name);
  const fmoe::ExperimentResult result = fmoe::RunExperiment({.system = "fMoE", .options = options});
  std::cout << "TTFT " << fmoe::AsciiTable::Num(result.mean_ttft * 1e3, 2) << " ms | TPOT "
            << fmoe::AsciiTable::Num(result.mean_tpot * 1e3, 3) << " ms | hit rate "
            << fmoe::AsciiTable::Num(result.hit_rate, 3) << "\n\n";

  // Per-track event counts: which timelines carry the most activity.
  const std::vector<fmoe::TraceEvent>& events = recorder.events();
  fmoe::AsciiTable table({"track", "spans", "instants", "counters"});
  const std::vector<std::string>& tracks = recorder.track_names();
  for (size_t track = 0; track < tracks.size(); ++track) {
    uint64_t spans = 0;
    uint64_t instants = 0;
    uint64_t counters = 0;
    for (const fmoe::TraceEvent& event : events) {
      if (event.track != static_cast<int>(track) + 1) {
        continue;
      }
      switch (event.phase) {
        case fmoe::TracePhase::kSpan:
          ++spans;
          break;
        case fmoe::TracePhase::kInstant:
          ++instants;
          break;
        case fmoe::TracePhase::kCounter:
          ++counters;
          break;
      }
    }
    table.AddRow({tracks[track], std::to_string(spans), std::to_string(instants),
                  std::to_string(counters)});
  }
  table.Print(std::cout);

  PrintTimeline(recorder, std::cout);

  // The recorder carries the engine's own stall split (RunExperiment copies signal_stall()).
  std::cout << "\n" << fmoe::RenderStallReport(recorder.stall());
  std::cout << "attributed total matches LatencyBreakdown::demand_stall: "
            << (recorder.stall().total_seconds == result.breakdown.demand_stall ? "yes"
                                                                                : "NO")
            << "\n";

  if (argc > 1) {
    const std::string path = argv[1];
    if (!fmoe::WriteChromeTraceFile(recorder, "trace_explorer fMoE", path)) {
      return 1;
    }
    std::cout << "\nwrote " << events.size() << " events to " << path
              << " (load in ui.perfetto.dev or chrome://tracing)\n";
  } else {
    std::cout << "\npass an output path to export Perfetto JSON, e.g. "
              << "./build/examples/trace_explorer /tmp/trace.json\n";
  }
  return 0;
}
