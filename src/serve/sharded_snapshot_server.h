// Merged snapshot-consistent serving over a key-range SHARDED pipeline —
// one read surface across N independent shard pipelines
// (shard/sharded_stream_scheduler.h), returning the same answers a
// SnapshotServer over the equivalent unsharded pipeline would.
//
// N x UNSHARDED. The server owns one SnapshotServer per shard: each
// publishes, pins (or copies) and retains its shard's snapshot entries
// exactly as it would over an unsharded pipeline, and its serve
// instruments land in the shard's registry, so the fleet's MetricsText
// carries one relborg_serve_* family. This class adds only the merge: a
// consistent cut over the per-shard entries, and the fold of the per-shard
// answers.
//
// THE MERGED-HORIZON PROBLEM. Each shard seals and maintains its own
// epochs at its own pace, so "the newest snapshot of every shard" is NOT a
// consistent cut of the source stream: shard 0 may have applied source
// batch 40 while shard 1 is still at batch 25. A merged read must pick one
// GLOBAL batch count b and, for every shard, a published snapshot whose
// state equals that shard's deliveries among the first b source batches —
// then the ring merge of the per-shard snapshots equals the unsharded
// aggregate after b batches exactly.
//
// HOW A CUT IS FOUND. The sharded scheduler logs every delivery as
// (global batch, cumulative delivered rows); because shard epochs are
// whole delivered batches, a snapshot's applied-row count (the sum of its
// watermark) maps EXACTLY to a delivery ordinal, and hence to the global
// batch interval [g_lo, g_hi) over which that shard state is current
// (ShardedStreamScheduler::DeliveryInterval). BeginMergedSnapshot takes
// b* = min over shards of the newest entry's interval end, then picks from
// each shard's retained entries the one whose interval contains b*.
// Retaining several entries per shard makes the race window small; if
// some shard has already discarded every entry covering b* the begin fails
// kUnavailable and the caller retries — reads can degrade to failure,
// never to an inconsistent merge. A quiescent pipeline (after Finish, or
// paused) always succeeds: every newest interval is open-ended, so b*
// falls in all of them.
//
// The merge itself is the ring fold in ascending shard order (key-wise
// CovarSpanAdd semantics — see shard/shard_map.h for why the join
// distributes over the root partition): bit-identical across runs, and
// bit-identical to the unsharded answer whenever the payload sums are
// exactly representable (integer-valued features; the differential suite
// in tests/shard_test.cc pins this).
//
// RESUMED RUNS. While a Resume() replay is still inside some shard's
// restored prefix, that shard's snapshots cover deliveries the global log
// has not re-routed yet, so interval lookups fail and merged begins return
// kUnavailable; once the replay catches up past every restored prefix,
// merged reads succeed again.
//
// LIFECYCLE mirrors SnapshotServer: construct AFTER the sharded scheduler
// and BEFORE its first Push (initial empty/restored snapshots must not
// race a fold); destroy before the scheduler; open transactions keep their
// entries alive until closed.
#ifndef RELBORG_SERVE_SHARDED_SNAPSHOT_SERVER_H_
#define RELBORG_SERVE_SHARDED_SNAPSHOT_SERVER_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ml/linear_regression.h"
#include "ring/covariance.h"
#include "serve/snapshot_server.h"
#include "shard/sharded_stream_scheduler.h"
#include "util/check.h"

namespace relborg {

/// Sharded serving configuration.
struct ShardedServeOptions {
  /// Each shard server's options. Retaining 8 entries per shard lets a
  /// merged begin find a cut while shards run apart; 1 (newest only)
  /// requires near-lockstep shards.
  ServeOptions shard = {/*snapshot_every_epochs=*/1, /*retained_entries=*/8};
  /// Attempts per BeginMergedSnapshot before giving up with kUnavailable
  /// (each attempt re-reads every shard's retained entries; clamped to
  /// >= 1).
  size_t begin_attempts = 16;
};

/// Merged read front end over a live ShardedStreamScheduler<Strategy>.
///
/// THREAD SAFETY: BeginMergedSnapshot / EndSnapshot / Covar / GroupBy /
/// TrainModel are safe from any number of client threads concurrently with
/// the pipelines. Construction and destruction belong to the scheduler's
/// owner thread.
template <typename Strategy>
class ShardedSnapshotServer {
  using Server = SnapshotServer<Strategy>;
  using Entry = serve_internal::Entry<Strategy>;

 public:
  /// One open merged read transaction: a shared hold on one published
  /// entry per shard, all current at the same global batch count.
  class MergedReadTxn {
   public:
    MergedReadTxn() = default;
    /// The global cut: source batches covered by every read through this
    /// transaction.
    uint64_t global_batches() const { return global_batches_; }
    /// Shard s's epoch horizon at the cut (epochs its server observed — a
    /// resumed shard's restored prefix counts as horizon 0).
    uint64_t shard_horizon(int s) const { return entries_[s]->horizon; }
    bool open() const { return !entries_.empty(); }

   private:
    friend class ShardedSnapshotServer;
    std::vector<std::shared_ptr<const Entry>> entries_;
    uint64_t global_batches_ = 0;
  };

  /// Builds one SnapshotServer per shard pipeline (each registers its
  /// shard's epoch observer and publishes its initial snapshot). Must run
  /// after the scheduler's construction and before its first Push.
  ShardedSnapshotServer(ShardedStreamScheduler<Strategy>* sched,
                        const ShardedServeOptions& options = {})
      : sched_(sched),
        begin_attempts_(std::max<size_t>(1, options.begin_attempts)) {
    for (int s = 0; s < sched_->num_shards(); ++s) {
      servers_.push_back(std::make_unique<Server>(
          sched_->scheduler(s), &sched_->shadow(s), sched_->strategy(s),
          options.shard));
    }
  }

  ShardedSnapshotServer(const ShardedSnapshotServer&) = delete;
  ShardedSnapshotServer& operator=(const ShardedSnapshotServer&) = delete;

  /// Opens a merged transaction on the newest consistent cut (see the file
  /// comment). kUnavailable when no retained entry combination forms one
  /// after `begin_attempts` tries — transient while shards race far apart
  /// or a Resume() replay is still inside a restored prefix. Never blocks
  /// on the pipelines.
  Status BeginMergedSnapshot(MergedReadTxn* out) {
    const size_t shards = servers_.size();
    for (size_t attempt = 0; attempt < begin_attempts_; ++attempt) {
      std::vector<std::vector<std::shared_ptr<const Entry>>> retained(shards);
      for (size_t s = 0; s < shards; ++s) {
        retained[s] = servers_[s]->Retained();
      }
      // The cut candidate: every shard's newest entry covers [lo, hi);
      // b* = min over shards of (hi - 1), open-ended intervals capped at
      // the current global batch count.
      uint64_t cut = sched_->global_batches();
      bool newest_ok = true;
      for (size_t s = 0; s < shards && newest_ok; ++s) {
        uint64_t lo = 0, hi = 0;
        newest_ok = Interval(s, *retained[s].back(), &lo, &hi);
        if (newest_ok && hi != UINT64_MAX && hi - 1 < cut) cut = hi - 1;
      }
      if (!newest_ok) continue;  // a shard mid-replay or mid-delivery
      MergedReadTxn txn;
      txn.entries_.resize(shards);
      txn.global_batches_ = cut;
      bool all = true;
      for (size_t s = 0; s < shards && all; ++s) {
        all = false;
        for (auto it = retained[s].rbegin(); it != retained[s].rend(); ++it) {
          uint64_t lo = 0, hi = 0;
          if (Interval(s, **it, &lo, &hi) && lo <= cut && cut < hi) {
            txn.entries_[s] = *it;
            all = true;
            break;
          }
        }
      }
      if (all) {
        // Each shard server counts its part of the merged transaction.
        for (const std::unique_ptr<Server>& server : servers_) {
          server->transactions_->Inc();
        }
        *out = std::move(txn);
        return Status::Ok();
      }
    }
    return Status::Unavailable(
        "no consistent merged cut across shard snapshots");
  }

  /// Closes a merged transaction; superseded entries unpin on last hold.
  void EndSnapshot(MergedReadTxn* txn) {
    txn->entries_.clear();
    txn->global_batches_ = 0;
  }

  /// The merged covariance aggregate at the transaction's cut: per-shard
  /// snapshot reads ring-added in ascending shard order.
  CovarMatrix Covar(const MergedReadTxn& txn) const {
    RELBORG_DCHECK(txn.open());
    CovarMatrix first = servers_[0]->CovarOf(*txn.entries_[0]);
    const int n = first.num_features();
    CovarPayload acc = CovarPayload::Zero(n);
    CovarAddInPlace(&acc, first.payload());
    for (size_t s = 1; s < servers_.size(); ++s) {
      CovarAddInPlace(&acc, servers_[s]->CovarOf(*txn.entries_[s]).payload());
    }
    return CovarMatrix(n, acc);
  }

  /// Group-by at the cut: node v's keys with their COUNT(*) payloads,
  /// sorted by key — the unsharded answer, reconstructed per v's position:
  /// only the ROOT's view aggregates over the partitioned root relation,
  /// so only it sums across shards; every other view is maintained over
  /// broadcast (replicated) relations, so at a consistent cut all shards
  /// hold the same result and one replica — shard 0's — IS the answer
  /// (summing would overcount N-fold). Zero-copy strategies only, as in
  /// SnapshotServer::GroupBy.
  std::vector<std::pair<uint64_t, double>> GroupBy(const MergedReadTxn& txn,
                                                   int v) const {
    static_assert(serve_internal::HasServePin<Strategy>::value,
                  "GroupBy requires a strategy with the ServePin protocol "
                  "(CovarFivm); copy-based snapshots keep no view state");
    RELBORG_DCHECK(txn.open());
    if (v != sched_->shadow(0).tree().root()) {
      return servers_[0]->GroupByOf(*txn.entries_[0], v);
    }
    std::map<uint64_t, double> merged;
    for (size_t s = 0; s < servers_.size(); ++s) {
      for (const auto& [key, count] :
           servers_[s]->GroupByOf(*txn.entries_[s], v)) {
        merged[key] += count;
      }
    }
    return std::vector<std::pair<uint64_t, double>>(merged.begin(),
                                                    merged.end());
  }

  /// Trains the ridge model for `response` on the merged covariance at the
  /// cut, warm-starting from the last weights for that response (shard 0's
  /// server holds the fleet's warm-start cache).
  LinearModel TrainModel(const MergedReadTxn& txn, int response,
                         RidgeOptions options = {},
                         TrainInfo* info = nullptr) {
    return servers_[0]->Train(Covar(txn), response, options, info);
  }

  /// Per-shard snapshot entries published so far (initial ones included).
  size_t published_snapshots() const {
    size_t total = 0;
    for (const std::unique_ptr<Server>& server : servers_) {
      total += server->published_snapshots();
    }
    return total;
  }

  /// The fleet's exposition: pipeline and serve instruments, aggregate
  /// plus per-shard series (ShardedStreamScheduler::MetricsText).
  std::string MetricsText() const { return sched_->MetricsText(); }

 private:
  // The global batch interval [*lo, *hi) over which `entry`'s shard state
  // is current — false while the delivery log has not (re-)routed the
  // entry's applied prefix (Resume replay).
  bool Interval(size_t shard, const Entry& entry, uint64_t* lo,
                uint64_t* hi) const {
    size_t applied = 0;
    for (size_t rows : entry.watermark) applied += rows;
    return sched_->DeliveryInterval(static_cast<int>(shard), applied, lo, hi);
  }

  ShardedStreamScheduler<Strategy>* sched_;
  size_t begin_attempts_;
  std::vector<std::unique_ptr<Server>> servers_;  // one per shard
};

}  // namespace relborg

#endif  // RELBORG_SERVE_SHARDED_SNAPSHOT_SERVER_H_
