// CSV import/export for request traces.
//
// Lets the simulator replay *real* traces (e.g. rows derived from the Azure LLM inference
// datasets the paper uses) instead of the synthetic generators, and lets generated workloads
// be exported for external analysis. Format (header required, extra columns ignored):
//
//   request_id,arrival_time_s,prompt_tokens,decode_tokens,cluster,seed
//
// `cluster` and `seed` are optional columns; when absent, clusters are assigned round-robin
// over the dataset profile and seeds derive deterministically from the request id.
#ifndef FMOE_SRC_WORKLOAD_TRACE_IO_H_
#define FMOE_SRC_WORKLOAD_TRACE_IO_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/workload/workload.h"

namespace fmoe {

struct TraceIoResult {
  bool ok = true;
  std::string error;
  size_t rows = 0;

  static TraceIoResult Failure(std::string message) {
    TraceIoResult result;
    result.ok = false;
    result.error = std::move(message);
    return result;
  }
};

// Writes requests as CSV (all columns, including routing).
TraceIoResult WriteTraceCsv(const std::vector<Request>& requests, std::ostream& out);

// Parses CSV into requests. `profile` supplies routing defaults (cluster count, noise range)
// for rows without explicit routing columns. Rejects, with a line-numbered error, any row
// whose request id or decode count is negative, whose prompt count is not positive, whose
// token counts exceed INT_MAX, or whose arrival is negative, non-finite or earlier than the
// previous row's. On failure `requests` is left unchanged.
TraceIoResult ReadTraceCsv(std::istream& in, const DatasetProfile& profile,
                           std::vector<Request>* requests);

TraceIoResult WriteTraceCsvToFile(const std::vector<Request>& requests,
                                  const std::string& path);
TraceIoResult ReadTraceCsvFromFile(const std::string& path, const DatasetProfile& profile,
                                   std::vector<Request>* requests);

}  // namespace fmoe

#endif  // FMOE_SRC_WORKLOAD_TRACE_IO_H_
