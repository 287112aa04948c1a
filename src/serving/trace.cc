#include "src/serving/trace.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace fmoe {

TraceGenerator::TraceGenerator(const TraceProfile& trace, const DatasetProfile& prompts,
                               uint64_t seed)
    : trace_(trace), prompts_(prompts, seed), rng_(seed ^ 0x7261636574726163ULL) {
  FMOE_CHECK(trace.min_prompt_tokens <= trace.max_prompt_tokens);
  FMOE_CHECK(trace.min_decode_tokens <= trace.max_decode_tokens);
}

std::vector<Request> TraceGenerator::Generate(size_t count) {
  std::vector<Request> requests;
  requests.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Request request = prompts_.NextRequest();

    double rate = trace_.mean_arrival_rate;
    if (burst_remaining_ > 0) {
      rate *= trace_.burst_rate_multiplier;
      --burst_remaining_;
    } else if (rng_.NextBool(trace_.burst_probability)) {
      burst_remaining_ = trace_.burst_length;
    }
    now_ += rng_.NextExponential(rate);
    request.arrival_time = now_;

    const auto sample_tokens = [&](double log_mean, double log_sigma, int lo, int hi) {
      const int tokens = static_cast<int>(std::lround(rng_.NextLogNormal(log_mean, log_sigma)));
      return std::clamp(tokens, lo, hi);
    };
    request.prompt_tokens = sample_tokens(trace_.prompt_log_mean, trace_.prompt_log_sigma,
                                          trace_.min_prompt_tokens, trace_.max_prompt_tokens);
    request.decode_tokens = sample_tokens(trace_.decode_log_mean, trace_.decode_log_sigma,
                                          trace_.min_decode_tokens, trace_.max_decode_tokens);
    requests.push_back(request);
  }
  return requests;
}

}  // namespace fmoe
