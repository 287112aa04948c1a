// Online-serving request traces.
//
// Substitutes for the Microsoft Azure LLM inference traces (Splitwise / DynamoLLM) used in the
// paper's §6.3: arrivals follow a Poisson process with occasional bursts, and the trace
// overrides each request's input/output lengths with Azure-like marginals ("fMoE and all
// baselines input and generate the exact number of tokens specified in the traces"). Prompt
// semantics (cluster membership) still come from the prompt dataset generator.
#ifndef FMOE_SRC_SERVING_TRACE_H_
#define FMOE_SRC_SERVING_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/workload/workload.h"

namespace fmoe {

struct TraceProfile {
  std::string name = "Azure-like";
  double mean_arrival_rate = 0.05;    // Requests per second (offload serving is slow).
  double burst_probability = 0.15;    // Chance an arrival starts a burst.
  double burst_rate_multiplier = 6.0; // Burst arrival-rate scaling.
  int burst_length = 4;               // Requests per burst.
  // Azure conversation-trace length marginals (log-normal).
  double prompt_log_mean = 5.6;   // ~270 input tokens.
  double prompt_log_sigma = 1.0;
  double decode_log_mean = 4.5;   // ~90 output tokens.
  double decode_log_sigma = 0.7;
  int min_prompt_tokens = 8;
  int max_prompt_tokens = 2048;
  int min_decode_tokens = 4;
  int max_decode_tokens = 256;
};

class TraceGenerator {
 public:
  // Aborts unless the trace's and the prompts' length bounds are ordered (min <= max).
  TraceGenerator(const TraceProfile& trace, const DatasetProfile& prompts, uint64_t seed);

  // `count` requests with strictly increasing arrival times and trace-driven lengths.
  std::vector<Request> Generate(size_t count);

 private:
  TraceProfile trace_;
  WorkloadGenerator prompts_;
  Rng rng_;
  double now_ = 0.0;
  int burst_remaining_ = 0;
};

}  // namespace fmoe

#endif  // FMOE_SRC_SERVING_TRACE_H_
