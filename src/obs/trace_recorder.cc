#include "src/obs/trace_recorder.h"

#include <cmath>
#include <cstdio>

#include "src/util/logging.h"

namespace fmoe {
namespace {

std::string FormatDouble(double v) {
  // Shortest round-trip-ish rendering: integers print without a trailing ".000000".
  if (v == static_cast<int64_t>(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

TraceArg TraceArg::Int(std::string key, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return TraceArg{std::move(key), buf, /*numeric=*/true};
}

TraceArg TraceArg::Uint(std::string key, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return TraceArg{std::move(key), buf, /*numeric=*/true};
}

TraceArg TraceArg::Num(std::string key, double v) {
  return TraceArg{std::move(key), FormatDouble(v), /*numeric=*/true};
}

TraceArg TraceArg::Str(std::string key, std::string v) {
  return TraceArg{std::move(key), std::move(v), /*numeric=*/false};
}

int TraceRecorder::RegisterTrack(const std::string& name) {
  tracks_.push_back(name);
  return static_cast<int>(tracks_.size());
}

void TraceRecorder::Span(int track, std::string name, std::string category, double start_s,
                         double end_s, std::vector<TraceArg> args) {
  FMOE_CHECK(track >= 1 && track <= static_cast<int>(tracks_.size()));
  TraceEvent ev;
  ev.phase = TracePhase::kSpan;
  ev.track = track;
  ev.name = std::move(name);
  ev.category = std::move(category);
  ev.start_s = start_s;
  ev.end_s = end_s;
  ev.args = std::move(args);
  events_.push_back(std::move(ev));
}

void TraceRecorder::Instant(int track, std::string name, std::string category, double ts_s,
                            std::vector<TraceArg> args) {
  FMOE_CHECK(track >= 1 && track <= static_cast<int>(tracks_.size()));
  TraceEvent ev;
  ev.phase = TracePhase::kInstant;
  ev.track = track;
  ev.name = std::move(name);
  ev.category = std::move(category);
  ev.start_s = ts_s;
  ev.end_s = ts_s;
  ev.args = std::move(args);
  events_.push_back(std::move(ev));
}

void TraceRecorder::Counter(int track, std::string name, double ts_s, double value) {
  FMOE_CHECK(track >= 1 && track <= static_cast<int>(tracks_.size()));
  TraceEvent ev;
  ev.phase = TracePhase::kCounter;
  ev.track = track;
  ev.name = std::move(name);
  ev.start_s = ts_s;
  ev.end_s = ts_s;
  ev.value = value;
  events_.push_back(std::move(ev));
}

double TraceRecorder::SpanSeconds(std::string_view name) const {
  double sum = 0.0;
  for (const TraceEvent& ev : events_) {
    if (ev.phase == TracePhase::kSpan && ev.name == name) sum += ev.end_s - ev.start_s;
  }
  return sum;
}

uint64_t TraceRecorder::CountEvents(TracePhase phase, std::string_view name) const {
  uint64_t count = 0;
  for (const TraceEvent& ev : events_) {
    if (ev.phase == phase && ev.name == name) ++count;
  }
  return count;
}

void TraceRecorder::ClearEvents() {
  events_.clear();
  stall_ = StallAttribution{};
}

}  // namespace fmoe
