// Synthetic prompt workloads.
//
// Substitutes for LMSYS-Chat-1M and ShareGPT (DESIGN.md §2): each dataset is a mixture of
// semantic topic clusters with dataset-specific prompt/output length distributions. A request
// carries its RequestRouting (cluster membership + per-request noise), which both the gate
// simulator and the semantic embedder consume, so routing behaviour and prompt semantics are
// consistent — the property fMoE's semantic search exploits.
#ifndef FMOE_SRC_WORKLOAD_WORKLOAD_H_
#define FMOE_SRC_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/moe/gate_simulator.h"
#include "src/util/rng.h"

namespace fmoe {

struct Request {
  uint64_t id = 0;
  RequestRouting routing;
  int prompt_tokens = 0;
  int decode_tokens = 0;      // Answer tokens generated after the first.
  double arrival_time = 0.0;  // Seconds; 0 for offline experiments.
};

struct DatasetProfile {
  std::string name;
  int num_clusters = 24;
  // Zipf-ish skew over clusters: probability of cluster c ~ (c+1)^-skew. 0 = uniform.
  double cluster_skew = 0.6;
  // Log-normal token-length marginals.
  double prompt_log_mean = 4.6;   // exp(4.6) ~ 100 tokens.
  double prompt_log_sigma = 0.8;
  double decode_log_mean = 4.0;   // exp(4.0) ~ 55 tokens.
  double decode_log_sigma = 0.6;
  int min_prompt_tokens = 8;
  int max_prompt_tokens = 2048;
  int min_decode_tokens = 4;
  int max_decode_tokens = 256;
  // Fraction of requests blending a second topic cluster, and the blend-weight range.
  double blend_probability = 0.25;
  double max_blend_weight = 0.45;
  // Per-request routing-noise multiplier range (prompt heterogeneity).
  double min_noise_multiplier = 0.6;
  double max_noise_multiplier = 1.5;
};

// Presets mirroring the paper's two evaluation datasets.
DatasetProfile LmsysLikeProfile();     // Short chatty prompts, many topics.
DatasetProfile ShareGptLikeProfile();  // Longer conversations, fewer topics.
std::vector<DatasetProfile> AllPaperDatasets();

// `profile` with decode lengths capped at `max_decode_tokens` (<= 0 keeps the profile's own
// cap). A cap below the minimum lowers the minimum to it, so every length is the cap.
DatasetProfile CapDecodeTokens(DatasetProfile profile, int max_decode_tokens);

class WorkloadGenerator {
 public:
  // Aborts unless the profile's length bounds are ordered (min <= max, prompt and decode).
  WorkloadGenerator(const DatasetProfile& profile, uint64_t seed);

  // Generates `count` offline requests (arrival_time = 0).
  std::vector<Request> Generate(size_t count);

  // Single request; exposed so online simulators can draw incrementally.
  Request NextRequest();

  const DatasetProfile& profile() const { return profile_; }

 private:
  int SampleCluster();
  int SampleLength(double log_mean, double log_sigma, int min_value, int max_value);

  DatasetProfile profile_;
  Rng rng_;
  uint64_t next_id_ = 0;
  std::vector<double> cluster_cdf_;
};

// Standard 7:3 split used by the paper's offline experiments: the first 70% of requests seed
// history (expert-map store / activation matrices), the rest are served and measured.
struct WorkloadSplit {
  std::vector<Request> history;
  std::vector<Request> test;
};
WorkloadSplit SplitWorkload(std::vector<Request> requests, double history_fraction = 0.7);

}  // namespace fmoe

#endif  // FMOE_SRC_WORKLOAD_WORKLOAD_H_
