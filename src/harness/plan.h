// Declarative experiment plans.
//
// Every paper figure is a cross-product of independent experiments (3 models x 2 datasets x
// 5 systems, a prefetch-distance sweep, ...). An ExperimentPlan captures that cross-product as
// data — an ordered vector of ExperimentTask (experiment.h) — so the runner (runner.h) can
// execute it on any number of worker threads and hand back results in plan order, and so the
// figure benches shrink to "declare plan, run, render over ordered results".
//
// Determinism contract: a task's behaviour is a pure function of the task itself (system,
// options, request source, serving). The only random seed a task ever sees is options.seed,
// which is fixed at Add() time: either the value the caller set explicitly, or — when the
// caller leaves kSeedFromPlan in place — a value derived from (plan_seed, task_index) alone.
// Nothing about execution (worker id, scheduling order, completion order) can influence a
// result, which is what makes `--jobs=1` and `--jobs=N` byte-identical.
#ifndef FMOE_SRC_HARNESS_PLAN_H_
#define FMOE_SRC_HARNESS_PLAN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/harness/experiment.h"

namespace fmoe {

// Sentinel: "derive this task's seed from (plan_seed, task_index)". ExperimentOptions
// defaults its seed to 42 for backwards compatibility, so derivation is opt-in per task.
inline constexpr uint64_t kSeedFromPlan = ~0ULL;

class ExperimentPlan {
 public:
  explicit ExperimentPlan(uint64_t plan_seed = 42) : plan_seed_(plan_seed) {}

  // Appends a task and returns its index (== position of its result in the runner's output).
  // Resolves kSeedFromPlan seeds here so the stored plan is fully explicit.
  size_t Add(ExperimentTask task);

  // The common case: a task on the 7:3 split (the task defaults), served lockstep.
  size_t AddOffline(std::string system, ExperimentOptions options,
                    std::vector<std::string> tags = {});

  // Model x dataset x system cross-product in row-major declaration order (model outermost,
  // system innermost — the iteration order every figure bench uses). `make_options` is
  // called as make_options(model, dataset) and must return the fully-configured
  // ExperimentOptions for that cell. Tasks are tagged with model=, dataset=, and system=.
  // Returns the indices in declaration order.
  template <typename OptionsFn>
  std::vector<size_t> AddOfflineCross(const std::vector<ModelConfig>& models,
                                      const std::vector<DatasetProfile>& datasets,
                                      const std::vector<std::string>& systems,
                                      OptionsFn&& make_options) {
    std::vector<size_t> indices;
    indices.reserve(models.size() * datasets.size() * systems.size());
    for (const ModelConfig& model : models) {
      for (const DatasetProfile& dataset : datasets) {
        for (const std::string& system : systems) {
          indices.push_back(AddOffline(
              system, make_options(model, dataset),
              {"model=" + model.name, "dataset=" + dataset.name, "system=" + system}));
        }
      }
    }
    return indices;
  }

  // Parameter sweep: one offline task per value, `mutate(options, value)` applied to a copy
  // of `base`. Each task is tagged "system=<system>" and "<tag_key>=<position>" (the sweep
  // position, not the value — values may not have a canonical text form). Returns indices in
  // value order.
  template <typename T, typename MutateFn>
  std::vector<size_t> AddOfflineSweep(const std::string& system, const ExperimentOptions& base,
                                      const std::vector<T>& values, MutateFn&& mutate,
                                      const std::string& tag_key) {
    std::vector<size_t> indices;
    indices.reserve(values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      ExperimentOptions options = base;
      mutate(options, values[i]);
      indices.push_back(AddOffline(system, std::move(options),
                                   {"system=" + system, tag_key + "=" + std::to_string(i)}));
    }
    return indices;
  }

  const std::vector<ExperimentTask>& tasks() const { return tasks_; }
  // Mutable view for post-declaration knob overrides that apply to every task uniformly
  // (e.g. RunObserved's --oracle enabling the clairvoyant recorder plan-wide).
  std::vector<ExperimentTask>& mutable_tasks() { return tasks_; }
  size_t size() const { return tasks_.size(); }
  bool empty() const { return tasks_.empty(); }
  uint64_t plan_seed() const { return plan_seed_; }

  // Indices of every task carrying `tag`, in plan order.
  std::vector<size_t> IndicesWithTag(const std::string& tag) const;

  // The seed-derivation rule (stateless; exposed for tests and DESIGN.md §5e): a SplitMix64
  // mix of the plan seed and the task index, so sibling tasks get decorrelated streams and
  // the mapping depends on nothing but those two values.
  static uint64_t DeriveTaskSeed(uint64_t plan_seed, size_t task_index);

 private:
  uint64_t plan_seed_;
  std::vector<ExperimentTask> tasks_;
};

}  // namespace fmoe

#endif  // FMOE_SRC_HARNESS_PLAN_H_
