// Stall-attribution rendering (DESIGN.md §5f).
//
// Decomposes a run's `demand_stall` total by cause, as classified by the engine's per-key
// state machine: {never-prefetched, prefetch-in-flight, evicted-before-use}. The
// ASCII form goes to stderr after a traced bench run; the JSON fragment is embedded in the
// Chrome trace export and usable by scripts.
#ifndef FMOE_SRC_OBS_STALL_REPORT_H_
#define FMOE_SRC_OBS_STALL_REPORT_H_

#include <string>

namespace fmoe {

struct StallAttribution;

// Multi-line human-readable table: per-class seconds, miss counts, and share of the total.
std::string RenderStallReport(const StallAttribution& stall);

}  // namespace fmoe

#endif  // FMOE_SRC_OBS_STALL_REPORT_H_
