// Pluggable admission control for the continuous-batching scheduler (DESIGN.md §5j).
//
// Every admission decision the scheduler used to hard-code — how many requests may share the
// lockstep batch, whether a queued request is worth serving at all — now goes through an
// AdmissionController. Two implementations ship:
//
//   * OpenLoopAdmissionController — the historical behaviour, bit for bit: the configured
//     batch limit, never rejects, never touches prefetch distance. The default policy, so
//     untouched configurations replay the legacy scheduler byte-identically (golden-pinned).
//   * GradientAdmissionController — a closed-loop controller in the spirit of Envoy's
//     adaptive-concurrency / admission-control filters (see ROADMAP; ProMoE arXiv:2410.22134
//     and ExpertFlow arXiv:2510.26730 make the serving-side case). It samples a
//     ControlSignalTracker (src/obs/control_signals.h) in virtual time and:
//       - shrinks the admitted batch size multiplicatively when the evicted-before-use share
//         of recent stall (the cache-thrash ratio) spikes, growing it back additively when
//         the cache is healthy (AIMD, like congestion control);
//       - raises the engine's effective prefetch distance when prefetch-in-flight stall
//         dominates (prefetches are issued but land late: a lead-time problem), decaying it
//         back toward the configured distance otherwise;
//       - sheds queued requests early when their wait already consumes the SLO budget, so a
//         storm degrades into bounded-latency service + explicit rejections instead of an
//         unbounded queue.
//
// The scheduler, the engine, and the harness's lockstep runs all consume this one interface:
// the scheduler asks BatchLimit/ShouldReject per admission pass, the engine pulls
// PrefetchDistance at iteration boundaries and feeds the controller's signal tracker, and
// RunExperiment runs one controller per replica (composing with the cluster router).
//
// All decisions run in virtual time off deterministic signals, so closed-loop runs are as
// reproducible as open-loop ones.
#ifndef FMOE_SRC_SERVING_ADMISSION_H_
#define FMOE_SRC_SERVING_ADMISSION_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/obs/control_signals.h"
#include "src/workload/workload.h"

namespace fmoe {

enum class AdmissionPolicyKind : uint8_t {
  kOpenLoop = 0,  // Fixed knobs; never rejects (the legacy scheduler behaviour).
  kGradient = 1,  // Closed-loop AIMD on batch size + distance + SLO shedding.
};

bool ParseAdmissionPolicy(const std::string& name, AdmissionPolicyKind* kind);
const char* AdmissionPolicyName(AdmissionPolicyKind kind);

struct AdmissionOptions {
  AdmissionPolicyKind policy = AdmissionPolicyKind::kOpenLoop;
  // End-to-end latency objective in seconds; 0 disables SLO shedding. The gradient
  // controller sheds a queued request once its wait alone exceeds slo_sec * shed_fraction
  // (the rest of the budget belongs to service time).
  double slo_sec = 0.0;
  double shed_fraction = 0.5;
  // Signal window and controller cadence, both in virtual seconds.
  double window_sec = 0.5;
  double update_period_sec = 0.05;
  // AIMD gain: multiplicative-decrease factor on thrash (limit *= 1 - gain) and the additive
  // step on recovery (limit += gain).
  double gain = 0.5;
  // Control thresholds on the sampled signal shares.
  double thrash_threshold = 0.25;   // cache_thrash_ratio above this = shrink the batch.
  double inflight_threshold = 0.5;  // inflight_share above this = raise prefetch distance.
  int min_batch = 1;                // Floor for the controlled batch limit (>= 1).
  int max_prefetch_distance = 8;    // Ceiling for the controlled distance.
};

// Conservation counters every controller maintains: each request handed to the scheduler is
// counted arrived exactly once, and leaves the queue as exactly one of admitted/rejected —
// the ControllerBookkeepingConsistent invariant the engine fuzz checks
// (admitted + still-queued + rejected == arrived).
struct AdmissionCounters {
  uint64_t arrived = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
};

class AdmissionController {
 public:
  virtual ~AdmissionController() = default;

  virtual AdmissionPolicyKind kind() const = 0;
  const char* name() const { return AdmissionPolicyName(kind()); }

  // Called once per admission pass, before any BatchLimit/ShouldReject query; closed-loop
  // controllers re-sample their signals here (at a bounded cadence).
  virtual void BeginAdmission(double /*now*/) {}

  // Number of requests that may be active concurrently. Open loop returns configured_max;
  // controllers may shrink it (never below 1, so admission always makes progress).
  virtual int BatchLimit(int configured_max, double now) = 0;

  // True to shed `request` (it has arrived and is still queued at `now`). A shed request
  // leaves the queue immediately and is never served.
  virtual bool ShouldReject(const Request& request, double now) = 0;

  // Effective prefetch distance, given the engine's configured one. Open loop returns
  // `configured` unchanged.
  virtual int PrefetchDistance(int configured, double now) = 0;

  // Bookkeeping notifications from the consumer (scheduler or cluster harness). Signal
  // events (queueing delay, stalls, iterations) flow in from the engine via signals(); these
  // only maintain the conservation counters.
  void OnArrived(uint64_t n = 1) { counters_.arrived += n; }
  void OnAdmitted() { ++counters_.admitted; }
  void OnRejected() { ++counters_.rejected; }

  const AdmissionCounters& counters() const { return counters_; }

  // The signal tracker this controller reads. The engine attaches it (SetControlSignals) so
  // stall/iteration events flow in; open loop never samples it.
  ControlSignalTracker* signals() { return &signals_; }

 protected:
  explicit AdmissionController(const AdmissionOptions& options)
      : options_(options), signals_(options.window_sec) {}

  AdmissionOptions options_;
  ControlSignalTracker signals_;
  AdmissionCounters counters_;
};

// Legacy behaviour: fixed batch limit, never rejects, configured prefetch distance.
class OpenLoopAdmissionController : public AdmissionController {
 public:
  explicit OpenLoopAdmissionController(const AdmissionOptions& options)
      : AdmissionController(options) {}

  AdmissionPolicyKind kind() const override { return AdmissionPolicyKind::kOpenLoop; }
  int BatchLimit(int configured_max, double /*now*/) override { return configured_max; }
  bool ShouldReject(const Request& /*request*/, double /*now*/) override { return false; }
  int PrefetchDistance(int configured, double /*now*/) override { return configured; }
};

// Closed-loop AIMD controller on the windowed stall-attribution signals (header comment).
class GradientAdmissionController : public AdmissionController {
 public:
  explicit GradientAdmissionController(const AdmissionOptions& options);

  AdmissionPolicyKind kind() const override { return AdmissionPolicyKind::kGradient; }
  void BeginAdmission(double now) override;
  int BatchLimit(int configured_max, double now) override;
  bool ShouldReject(const Request& request, double now) override;
  int PrefetchDistance(int configured, double now) override;

  // Introspection for tests and the bench report.
  double controlled_batch_limit() const { return batch_limit_; }
  int distance_boost() const { return distance_boost_; }
  uint64_t control_updates() const { return control_updates_; }

 private:
  double batch_limit_ = 0.0;  // Continuous AIMD state; < 0 = uninitialised.
  int distance_boost_ = 0;    // Layers added on top of the configured distance.
  double last_update_ = 0.0;
  bool updated_once_ = false;
  uint64_t control_updates_ = 0;
};

std::unique_ptr<AdmissionController> MakeAdmissionController(const AdmissionOptions& options);

}  // namespace fmoe

#endif  // FMOE_SRC_SERVING_ADMISSION_H_
