// Binary persistence for the Expert Map Store.
//
// The paper's offline protocol builds the store from the history split of a dataset before
// serving (§6.1); persisting it lets deployments pay that cost once. The format is a small
// versioned header (magic, version, model shape, map precision, record count) followed by
// fixed-layout records: map rows are stored at the store's native precision (float32, or the
// quantized fp16/int8 payloads of DESIGN.md §5g — int8 files carry a per-column scale/offset
// prologue) and embeddings as float32 — exactly the footprint the paper's memory accounting
// assumes (Fig. 16). fp32 files are byte-identical to the pre-quantization format.
//
// Loading decodes records to exact doubles and re-inserts them through the normal path, so a
// store may load a file of any precision: the destination's own precision re-quantizes as
// needed (e.g. loading an fp32 history file into an int8 store quantizes it offline).
//
// Loading validates the header against the target store's model shape and refuses mismatches.
// It never trusts a declared count beyond the stream's actual content (so it needs a seekable
// stream) and refuses non-finite values.
#ifndef FMOE_SRC_CORE_MAP_STORE_IO_H_
#define FMOE_SRC_CORE_MAP_STORE_IO_H_

#include <iosfwd>
#include <string>

#include "src/core/map_store.h"
#include "src/core/sharded_store.h"

namespace fmoe {

// Outcome of a save/load; `ok` false means `error` describes the failure and the destination
// store (for loads) is left unchanged.
struct StoreIoResult {
  bool ok = true;
  std::string error;
  size_t records = 0;
  size_t bytes = 0;

  static StoreIoResult Failure(std::string message) {
    StoreIoResult result;
    result.ok = false;
    result.error = std::move(message);
    return result;
  }
};

// Writes every record of `store` to `out`.
StoreIoResult SaveStore(const ExpertMapStore& store, std::ostream& out);

// Reads records from `in` and inserts them into `store` (which must be constructed for the
// same model shape; capacity may differ — excess records go through normal replacement).
StoreIoResult LoadStore(std::istream& in, ExpertMapStore* store);

// Sharded-store persistence (DESIGN.md §5i). A 1-shard store writes the legacy single-store
// format byte-identically; a multi-shard store writes a small wrapper header (shard count)
// followed by one legacy blob per shard. Loading accepts either format into any shard count:
// records always decode to exact doubles and re-insert through the destination's semantic
// routing, so a file saved at S shards reloads correctly into S' shards.
StoreIoResult SaveStore(const ShardedMapStore& store, std::ostream& out);
StoreIoResult LoadStore(std::istream& in, ShardedMapStore* store);

// File-path conveniences.
StoreIoResult SaveStoreToFile(const ExpertMapStore& store, const std::string& path);
StoreIoResult LoadStoreFromFile(const std::string& path, ExpertMapStore* store);
StoreIoResult SaveStoreToFile(const ShardedMapStore& store, const std::string& path);
StoreIoResult LoadStoreFromFile(const std::string& path, ShardedMapStore* store);

}  // namespace fmoe

#endif  // FMOE_SRC_CORE_MAP_STORE_IO_H_
