// Epoch-consistent checkpointing of stream pipeline state.
//
// A checkpoint captures, at one epoch boundary (the applier's observer
// point — see StreamEpochObserver), everything needed to rebuild a
// scheduler that is BIT-IDENTICAL to the uninterrupted run after replaying
// the post-checkpoint tail of the stream:
//
//   * the committed ShadowDb prefix under the epoch's per-node watermark —
//     every row's column values and multiplicity sign (restore re-stages
//     and re-commits them, which rebuilds the join-index fragments
//     deterministically: per-key index vectors hold row ids in append
//     order either way);
//   * the strategy's view state, serialized BYTE-EXACT by the strategy
//     itself (SaveCheckpoint/LoadCheckpoint) — view payloads are IEEE-754
//     images, never recomputed at load time, because the coalesced folds
//     that produced them are a different summation order than any replay;
//   * the scheduler's structural cursor (epochs/batches/rows consumed,
//     per-node watermark) so the restored assembler seals the tail into
//     exactly the epochs the uninterrupted run would have formed.
//
// FILE FORMAT: an 8-byte magic ("RBCKPT01", bumped on layout changes),
// u64 payload size, u64 FNV-1a checksum of the payload, then the payload.
// The file is written to `<path>.tmp` and atomically renamed, so a crash
// mid-write (including the injected pre-checkpoint-fsync fault) leaves
// either the previous complete checkpoint or none — never a torn one that
// parses. ReadCheckpointFile distinguishes "no checkpoint" (kNotFound:
// restore from scratch) from "corrupt checkpoint" (kDataLoss: surfaced,
// never silently ignored).
//
// LENGTH CONTRACT: no reader trusts a stored length. ReadCheckpointFile
// checks the header's size field (outside the checksum) against the file's
// real length before allocating the payload, and every element count
// inside the payload — the watermark, each node's prefix rows, each
// strategy view — is bounded by the bytes left (ByteSource::CountFits)
// before it sizes an allocation or a loop. A corrupt length therefore
// fails with kDataLoss: no throw, no huge allocation, no long spin.
#ifndef RELBORG_STREAM_CHECKPOINT_H_
#define RELBORG_STREAM_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ivm/shadow_db.h"
#include "util/serde.h"
#include "util/status.h"

namespace relborg {

struct StreamCheckpointOptions {
  // Target file. Empty disables checkpointing.
  std::string path;
  // Write a checkpoint after every K maintained epochs (0 disables).
  size_t every_epochs = 0;
  // fsync the tmp file before the atomic rename. Off is faster and fine
  // for tests (rename alone orders against same-process reads); on is the
  // durable default.
  bool fsync = true;
};

// The scheduler-level header of a checkpoint: how much of the stream the
// checkpointed state covers. `epochs`/`batches`/`rows` are the structural
// counters at the boundary; a caller resuming a recorded stream re-pushes
// batches [batches, end) — epochs never split batches, so the boundary is
// always a whole-batch position.
struct StreamCheckpointInfo {
  uint64_t epochs = 0;
  uint64_t batches = 0;
  uint64_t rows = 0;
  uint64_t ranges = 0;
  std::vector<size_t> watermark;  // per node: committed rows at the boundary
};

uint64_t Fnv1a64(const uint8_t* data, size_t size);

void SerializeStreamCheckpointInfo(const StreamCheckpointInfo& info,
                                   ByteSink* sink);
StreamCheckpointInfo DeserializeStreamCheckpointInfo(ByteSource* src);

// Serializes rows [0, watermark[v]) of every node: column values (via the
// exact double round-trip — categorical int32 codes survive the cast both
// ways) plus per-row multiplicity signs.
void SerializeShadowDbPrefix(const ShadowDb& db,
                             const std::vector<size_t>& watermark,
                             ByteSink* sink);

// Re-stages and commits the serialized prefix into `db`, which must be
// FRESH (zero committed rows everywhere) and built over the same catalog;
// arity mismatches and short payloads surface as Status, never abort.
Status RestoreShadowDbPrefix(ByteSource* src, ShadowDb* db);

// Writes magic + framing + payload to `<path>.tmp`, optionally fsyncs,
// then atomically renames onto `path`. Contains the
// "stream/pre-checkpoint-fsync" fault site: when it fires, the tmp file is
// left behind un-renamed (a torn checkpoint that never becomes visible)
// and the write reports kAborted.
Status WriteCheckpointFile(const std::string& path, const ByteSink& sink,
                           bool do_fsync, size_t* bytes_out = nullptr);

// Reads and verifies a checkpoint file: kNotFound when absent, kDataLoss
// on bad magic, on a size field that disagrees with the file's length
// (checked before the payload is allocated), or on a checksum mismatch.
Status ReadCheckpointFile(const std::string& path,
                          std::vector<uint8_t>* payload);

}  // namespace relborg

#endif  // RELBORG_STREAM_CHECKPOINT_H_
