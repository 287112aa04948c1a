// Host-time probes for the serving benchmark.
//
// The simulator has no in-program wall-clock profiler, so the benchmark times layers from the
// outside: ProbedPolicy wraps the real OffloadPolicy and times each hook, and hands the hook a
// ProbedHandle that times the engine services the policy calls (cache insert / victim pick,
// link enqueue, tier staging). Deferred applies are re-bound to the ProbedHandle, so services
// a job performs when it applies are timed too. Both wrappers only forward: they change no
// decision, so every virtual-time result of a probed run is bitwise equal to a plain run
// (driver.cc checks this on every traced run).
#ifndef FMOE_PERFBENCH_PROBES_H_
#define FMOE_PERFBENCH_PROBES_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/serving/policy.h"

namespace perfbench {

inline double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Host seconds spent per layer during one measured phase.
struct HostLedger {
  enum Hook { kStart = 0, kGate = 1, kEnd = 2, kHooks = 3 };
  double hook_self_s[kHooks] = {};  // Policy self time (hook time minus nested services).
  uint64_t hook_calls[kHooks] = {};
  double hook_total_s = 0.0;        // Hook time including nested services.
  double service_s = 0.0;           // Outermost engine-service calls.
  uint64_t service_calls = 0;
  double service_outside_hooks_s = 0.0;  // Deferred applies drained by the engine itself.

  double PolicySelf() const {
    return hook_self_s[kStart] + hook_self_s[kGate] + hook_self_s[kEnd];
  }
};

class ProbedHandle : public fmoe::EngineHandle {
 public:
  explicit ProbedHandle(HostLedger* ledger) : ledger_(ledger) {}

  void Bind(fmoe::EngineHandle* engine) { engine_ = engine; }
  void EnterHook() { ++hook_depth_; }
  void LeaveHook() { --hook_depth_; }

  const fmoe::ModelConfig& model() const override { return engine_->model(); }
  double now() const override { return engine_->now(); }
  int prefetch_distance() const override { return engine_->prefetch_distance(); }
  fmoe::TraceRecorder* trace() const override { return engine_->trace(); }

  void PrefetchAsync(fmoe::ExpertId id, double probability, double priority) override {
    Timed([&] { engine_->PrefetchAsync(id, probability, priority); });
  }
  void PrefetchAsyncSized(fmoe::ExpertId id, double probability, double priority,
                          double size_fraction) override {
    Timed([&] { engine_->PrefetchAsyncSized(id, probability, priority, size_fraction); });
  }
  void StageToHostAsync(fmoe::ExpertId id, double probability) override {
    Timed([&] { engine_->StageToHostAsync(id, probability); });
  }
  void BlockingLoad(fmoe::ExpertId id, double probability) override {
    Timed([&] { engine_->BlockingLoad(id, probability); });
  }
  bool IsCached(fmoe::ExpertId id) const override {
    bool cached = false;
    Timed([&] { cached = engine_->IsCached(id); });
    return cached;
  }
  void SetCachedProbability(fmoe::ExpertId id, double probability) override {
    Timed([&] { engine_->SetCachedProbability(id, probability); });
  }
  std::vector<double> SpeculativeGate(const fmoe::RequestRouting& routing, int iteration,
                                      int target_layer, int distance) const override {
    return engine_->SpeculativeGate(routing, iteration, target_layer, distance);
  }
  void AddOverhead(fmoe::OverheadCategory category, double seconds) override {
    engine_->AddOverhead(category, seconds);
  }
  void AddAsyncWork(fmoe::OverheadCategory category, double seconds) override {
    engine_->AddAsyncWork(category, seconds);
  }
  uint64_t PublishDeferred(fmoe::OverheadCategory category, fmoe::PublishMode mode,
                           double cost_seconds, uint64_t topic,
                           fmoe::DeferredApply apply) override {
    fmoe::DeferredApply probed;
    if (apply) {
      // The engine applies with itself as the handle; route the job through this handle so
      // the services it calls stay timed, wherever the engine drains it.
      probed = [this, inner = std::move(apply)](fmoe::EngineHandle&) {
        Timed([&] { inner(*this); });
      };
    }
    uint64_t seq = 0;
    Timed([&] { seq = engine_->PublishDeferred(category, mode, cost_seconds, topic, probed); });
    return seq;
  }

 private:
  // Times the outermost service call only: nested calls (a deferred apply's prefetches) are
  // inside their parent's interval already.
  template <typename Fn>
  void Timed(Fn&& fn) const {
    if (service_depth_ > 0) {
      fn();
      return;
    }
    ++service_depth_;
    const double start = NowSeconds();
    fn();
    const double elapsed = NowSeconds() - start;
    --service_depth_;
    ledger_->service_s += elapsed;
    ++ledger_->service_calls;
    if (hook_depth_ == 0) {
      ledger_->service_outside_hooks_s += elapsed;
    }
  }

  HostLedger* ledger_;
  fmoe::EngineHandle* engine_ = nullptr;
  mutable int service_depth_ = 0;
  int hook_depth_ = 0;
};

class ProbedPolicy : public fmoe::OffloadPolicy {
 public:
  ProbedPolicy(fmoe::OffloadPolicy* inner, HostLedger* ledger)
      : inner_(inner), ledger_(ledger), handle_(ledger) {}

  std::string name() const override { return inner_->name(); }
  void Reset() override { inner_->Reset(); }

  void OnRequestAdmitted(fmoe::EngineHandle& engine,
                         const fmoe::IterationContext& context) override {
    Hook(HostLedger::kStart, engine,
         [&](fmoe::EngineHandle& h) { inner_->OnRequestAdmitted(h, context); });
  }
  void OnIterationStart(fmoe::EngineHandle& engine,
                        const fmoe::IterationContext& context) override {
    Hook(HostLedger::kStart, engine,
         [&](fmoe::EngineHandle& h) { inner_->OnIterationStart(h, context); });
  }
  void OnGateOutput(fmoe::EngineHandle& engine, const fmoe::IterationContext& context, int layer,
                    const std::vector<double>& probs,
                    const std::vector<int>& activated) override {
    Hook(HostLedger::kGate, engine,
         [&](fmoe::EngineHandle& h) { inner_->OnGateOutput(h, context, layer, probs, activated); });
  }
  void OnIterationEnd(fmoe::EngineHandle& engine, const fmoe::IterationContext& context,
                      const std::vector<std::vector<double>>& layer_probs) override {
    Hook(HostLedger::kEnd, engine,
         [&](fmoe::EngineHandle& h) { inner_->OnIterationEnd(h, context, layer_probs); });
  }
  void OnRequestCompleted(fmoe::EngineHandle& engine,
                          const fmoe::IterationContext& context) override {
    Hook(HostLedger::kEnd, engine,
         [&](fmoe::EngineHandle& h) { inner_->OnRequestCompleted(h, context); });
  }

 private:
  template <typename Fn>
  void Hook(HostLedger::Hook hook, fmoe::EngineHandle& engine, Fn&& fn) {
    handle_.Bind(&engine);
    handle_.EnterHook();
    const double services_before = ledger_->service_s;
    const double start = NowSeconds();
    fn(handle_);
    const double elapsed = NowSeconds() - start;
    handle_.LeaveHook();
    ledger_->hook_total_s += elapsed;
    ledger_->hook_self_s[hook] += elapsed - (ledger_->service_s - services_before);
    ++ledger_->hook_calls[hook];
  }

  fmoe::OffloadPolicy* inner_;
  HostLedger* ledger_;
  ProbedHandle handle_;
};

}  // namespace perfbench

#endif  // FMOE_PERFBENCH_PROBES_H_
