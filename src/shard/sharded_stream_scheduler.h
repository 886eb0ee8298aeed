// Key-range sharded stream pipelines with exact ring merges.
//
// A ShardedStreamScheduler<Strategy> runs N fully independent
// StreamScheduler pipelines — each with its own ShadowDb, strategy
// instance, metrics registry and (optionally) checkpoint file — and routes
// every pushed UpdateBatch by the deterministic key-range ShardMap:
//
//   * Every batch is VALIDATED ONCE, before routing, by the same ingress
//     check an unsharded pipeline runs (stream_internal::BatchValidator).
//     A rejected batch is quarantined whole at the fleet and reaches no
//     shard, exactly as the unsharded pipeline rejects it whole. The shard
//     pipelines run with validation off: every delivery is a slice of a
//     validated batch — a valid root row, insert or delete, routes by its
//     content to the one shard holding its inserts, and non-root batches
//     are replicated.
//   * ROOT-relation batches SPLIT: rows partition by ShardOfRow in stable
//     row order, and each shard receives one sub-batch holding exactly its
//     rows (empty sub-batches are delivered nowhere).
//   * NON-ROOT batches BROADCAST verbatim to every shard: dimension
//     relations are not partitioned (the join distributes over a disjoint
//     partition of the root only — see shard/shard_map.h).
//   * EMPTY batches are delivered nowhere (they would only perturb
//     per-shard epoch sealing; the global batch counter still advances).
//
// Shard s therefore maintains Q over (R_s ⋈ S ⋈ ...), and the full
// aggregate is the RING MERGE of the per-shard results, folded in
// ascending shard order (MergedCurrent / MergeViewInto — key-wise
// CovarSpanAdd via ring/covar_arena.h's cross-arena entry points).
//
// DETERMINISM AND EXACTNESS. Routing is a pure function of row content, so
// for a fixed (stream, ShardMap, options) every run delivers the same
// per-shard batch sequences; each per-shard pipeline is bit-identical to
// its own serial replay (stream/stream_scheduler.h), and the merge order
// is fixed — the sharded result is BIT-IDENTICAL across runs, thread
// counts, and commit/compute run-ahead for ANY shard count. Whether the
// sharded result equals the UNSHARDED run's bytes is a property of the
// data: the merge re-associates the ring sums across shards, which is
// exact whenever every payload sum is exactly representable (integer-
// valued features of moderate magnitude — the differential suite in
// tests/shard_test.cc builds such fixtures), and equal only up to rounding
// for general doubles. Deterministic always; exact when the data is.
//
// OBSERVABILITY. Each shard's pipeline owns a private registry (which a
// serve layer over the shard shares); MetricsText() folds them through
// MetricsRegistry::MergeFrom into one fresh exposition — every instrument
// appears as the cross-shard aggregate under its original name plus
// per-shard "_shard<i>" series. The router's ingress rejects count under
// the same relborg_stream_rejected_* / *quarantine* names, in the
// aggregate only. Finish(&total) reports the same fold (without the
// per-shard series) as one StreamStats projection.
//
// CHECKPOINTS. When ShardedStreamOptions::checkpoint_prefix is set, shard i
// checkpoints to <prefix>shard-i.ckpt on its own epoch cadence. Resume()
// restores every shard that has a checkpoint (a shard without one restarts
// from scratch) and the caller replays the WHOLE global stream from batch
// 0: routing re-derives each shard's delivery sequence, and each shard
// skips its restored delivery prefix — per-shard prefixes differ (each
// shard checkpoints at its own epoch boundaries), which a single global
// cursor could not express. The router's validator starts empty and
// re-checks the whole replayed stream, skipped deliveries included, so it
// rejects exactly the batches the checkpointed run rejected.
#ifndef RELBORG_SHARD_SHARDED_STREAM_SCHEDULER_H_
#define RELBORG_SHARD_SHARDED_STREAM_SCHEDULER_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/exec_policy.h"
#include "core/feature_map.h"
#include "ivm/shadow_db.h"
#include "ivm/update_stream.h"
#include "obs/metrics.h"
#include "ring/covar_arena.h"
#include "ring/covariance.h"
#include "shard/shard_map.h"
#include "stream/stream_scheduler.h"
#include "util/check.h"
#include "util/status.h"

namespace relborg {

struct ShardedStreamOptions {
  // Per-shard pipeline options. `checkpoint.path` and `metrics` must stay
  // unset — the sharded scheduler derives per-shard checkpoint paths from
  // checkpoint_prefix below and owns one registry per shard.
  // `validate_ingress` and `quarantine_capacity` configure the router's
  // one ingress check; the shard pipelines always run without validation.
  StreamOptions stream;
  // Path prefix for per-shard checkpoint files (<prefix>shard-<i>.ckpt;
  // any directory component must exist — a directory with a trailing
  // slash is a prefix). "" disables checkpointing even if
  // stream.checkpoint.every_epochs is set.
  std::string checkpoint_prefix;
};

template <typename Strategy>
class ShardedStreamScheduler {
 public:
  /// Builds `map.num_shards()` independent pipelines over clones of
  /// `source`'s topology rooted at `root` (all relations start empty; the
  /// stream carries every row). `fm` must outlive the scheduler and is
  /// shared by every shard — it resolves to node/attribute INDICES, which
  /// are identical across the clones.
  ShardedStreamScheduler(const JoinQuery& source, int root,
                         const FeatureMap* fm, ShardMap map,
                         const ExecPolicy& policy = {},
                         ShardedStreamOptions options = {})
      : ShardedStreamScheduler(source, root, fm, std::move(map), policy,
                               std::move(options), DeferStart{}) {
    for (int s = 0; s < map_.num_shards(); ++s) StartShard(s, nullptr);
  }

  /// Restores a sharded run from `options.checkpoint_prefix`: every shard
  /// with a checkpoint resumes from it (kNotFound restarts that shard from
  /// scratch; any other restore error fails the whole Resume). On OK the
  /// caller must replay the ENTIRE global stream from batch 0 — routing
  /// skips each shard's restored delivery prefix.
  static Status Resume(const JoinQuery& source, int root, const FeatureMap* fm,
                       ShardMap map, const ExecPolicy& policy,
                       ShardedStreamOptions options,
                       std::unique_ptr<ShardedStreamScheduler>* out) {
    RELBORG_CHECK(!options.checkpoint_prefix.empty());
    std::unique_ptr<ShardedStreamScheduler> sched(new ShardedStreamScheduler(
        source, root, fm, std::move(map), policy, std::move(options),
        DeferStart{}));
    for (int s = 0; s < sched->map_.num_shards(); ++s) {
      StreamCheckpointInfo info;
      Shard& shard = *sched->shards_[s];
      Status st = StreamScheduler<Strategy>::RestoreFromCheckpoint(
          ShardCheckpointPath(sched->options_.checkpoint_prefix, s),
          shard.shadow.get(), shard.strategy.get(), &info);
      if (st.code() == StatusCode::kNotFound) {
        sched->StartShard(s, nullptr);
        continue;
      }
      if (!st.ok()) return st;
      sched->StartShard(s, &info);
      shard.skip_deliveries = info.batches;
    }
    *out = std::move(sched);
    return Status::Ok();
  }

  ~ShardedStreamScheduler() {
    if (!finished_) Finish();
  }

  ShardedStreamScheduler(const ShardedStreamScheduler&) = delete;
  ShardedStreamScheduler& operator=(const ShardedStreamScheduler&) = delete;

  /// Validates and routes one batch (see the file comment).
  /// Single-producer, like StreamScheduler::Push. A batch that fails
  /// validation returns its kInvalidArgument status and is quarantined
  /// (DrainQuarantine); no shard receives any of its rows. Otherwise
  /// returns the first shard failure (a failed or finished pipeline), OK
  /// when every delivery was accepted. Rejected and empty batches still
  /// advance global_batches().
  Status Push(const UpdateBatch& batch) {
    const uint64_t g = ++global_batches_;
    if (validator_ != nullptr) {
      stream_internal::BatchValidator::CheckResult chk;
      Status st = validator_->Check(batch, &chk);
      if (!st.ok()) return st;
      validator_->Account(chk);
    }
    if (batch.rows.empty()) return Status::Ok();
    Status first = Status::Ok();
    if (batch.node == map_.root_node()) {
      // Stable partition: each shard's sub-batch keeps the global row
      // order, so per-shard streams are a pure subsequence of the input.
      std::vector<UpdateBatch> parts(
          static_cast<size_t>(map_.num_shards()));
      for (const std::vector<double>& row : batch.rows) {
        UpdateBatch& part = parts[map_.ShardOfRow(row)];
        if (part.rows.empty()) {
          part.node = batch.node;
          part.sign = batch.sign;
        }
        part.rows.push_back(row);
      }
      for (int s = 0; s < map_.num_shards(); ++s) {
        if (parts[s].rows.empty()) continue;
        Status st = Deliver(s, g, std::move(parts[s]));
        if (!st.ok() && first.ok()) first = st;
      }
    } else {
      for (int s = 0; s < map_.num_shards(); ++s) {
        Status st = Deliver(s, g, batch);
        if (!st.ok() && first.ok()) first = st;
      }
    }
    return first;
  }

  /// Finishes every shard pipeline (ascending order), reports the fleet's
  /// stats through *total — the router's and every shard's registry folded
  /// as in MetricsText(), projected like one pipeline's — and returns the
  /// first shard failure (OK when all drained cleanly). Idempotent.
  Status Finish(StreamStats* total = nullptr,
                std::vector<StreamStats>* per_shard = nullptr) {
    if (!finished_) {
      finished_ = true;
      shard_stats_.resize(shards_.size());
      for (size_t s = 0; s < shards_.size(); ++s) {
        Status st = shards_[s]->scheduler->Finish(&shard_stats_[s]);
        if (!st.ok() && finish_status_.ok()) {
          finish_status_ = Status(
              st.code(), "shard " + std::to_string(s) + ": " + st.message());
        }
      }
    }
    if (total != nullptr) {
      obs::MetricsRegistry merged;
      FoldMetrics(&merged, /*per_shard_series=*/false);
      *total = stream_internal::StreamMetrics::Register(&merged).Derive();
    }
    if (per_shard != nullptr) *per_shard = shard_stats_;
    return finish_status_;
  }

  int num_shards() const { return map_.num_shards(); }
  const ShardMap& shard_map() const { return map_; }

  /// Source batches routed so far (empty batches included).
  uint64_t global_batches() const {
    return global_batches_.load(std::memory_order_acquire);
  }

  /// Shard s's pipeline / strategy / shadow database. The per-shard
  /// contracts of StreamScheduler apply unchanged (e.g. strategy state is
  /// only readable between epochs or after Finish).
  StreamScheduler<Strategy>* scheduler(int s) {
    return shards_[s]->scheduler.get();
  }
  Strategy* strategy(int s) { return shards_[s]->strategy.get(); }
  const Strategy* strategy(int s) const { return shards_[s]->strategy.get(); }
  const ShadowDb& shadow(int s) const { return *shards_[s]->shadow; }

  /// The merged covariance aggregate: per-shard Strategy::Current()
  /// payloads ring-added in ascending shard order. Same quiescence
  /// contract as Current() itself — call after Finish, or from a paused
  /// pipeline; live merged reads go through serve/sharded_snapshot_server.h.
  CovarMatrix MergedCurrent() const {
    const int n = fm_->num_features();
    CovarPayload acc = CovarPayload::Zero(n);
    for (const std::unique_ptr<Shard>& shard : shards_) {
      CovarAddInPlace(&acc, shard->strategy->Current().payload());
    }
    return CovarMatrix(n, acc);
  }

  /// Ring-merges node v's per-shard maintained views into *out (ascending
  /// shard order, one published merge per shard — CovarArenaMergeInto).
  /// Strategies exposing ViewOf only (CovarFivm); same quiescence contract
  /// as MergedCurrent. The sum is the unsharded view only for the ROOT
  /// node, whose subtree spans the partitioned relation; non-root views
  /// are maintained over broadcast relations and thus REPLICATED — each
  /// shard already holds the unsharded answer, and the N-fold sum is the
  /// replication count times it (see serve/sharded_snapshot_server.h's
  /// GroupBy for the read-side handling).
  template <typename S = Strategy>
  void MergeViewInto(int v, CovarArenaView* out) const {
    for (const std::unique_ptr<Shard>& shard : shards_) {
      CovarArenaMergeInto(static_cast<const S*>(shard->strategy.get())->ViewOf(v),
                          out);
    }
  }

  /// One Prometheus exposition across the fleet: a FRESH registry per call
  /// (MergeFrom re-adds counters, so the aggregate is never kept live),
  /// with every instrument as the cross-shard aggregate plus "_shard<i>"
  /// per-shard series; the router's ingress rejects join the aggregate.
  /// Safe from any thread while pipelines run.
  std::string MetricsText() const {
    obs::MetricsRegistry agg;
    FoldMetrics(&agg, /*per_shard_series=*/true);
    return agg.ExpositionText();
  }

  /// Shard s's private registry (per-shard instruments, unsuffixed).
  const obs::MetricsRegistry& shard_metrics(int s) const {
    return shards_[s]->scheduler->metrics();
  }

  /// Removes and returns the batches the router rejected, whole and
  /// oldest first. Safe from any thread.
  std::vector<QuarantinedBatch> DrainQuarantine() {
    if (validator_ == nullptr) return {};
    return validator_->Drain();
  }

  /// Maps shard s's applied-row count (the sum of an epoch watermark) to
  /// its delivery ordinal and the GLOBAL batch interval that state covers:
  /// the merged-horizon protocol's bijection (serve layer). Every
  /// delivered batch is non-empty, so cumulative delivered rows strictly
  /// increase and the lookup is exact or fails. On true: a merged read at
  /// any global batch count in [*g_lo, *g_hi) sees shard s in exactly this
  /// state (*g_hi == UINT64_MAX until the next delivery is routed).
  bool DeliveryInterval(int s, size_t applied_rows, uint64_t* g_lo,
                       uint64_t* g_hi) const {
    std::lock_guard<std::mutex> lock(log_mu_);
    const std::vector<DeliveryPoint>& log = shards_[s]->log;
    if (applied_rows == 0) {
      *g_lo = 0;
      *g_hi = log.empty() ? UINT64_MAX : log[0].global_batch;
      return true;
    }
    auto it = std::lower_bound(
        log.begin(), log.end(), applied_rows,
        [](const DeliveryPoint& p, size_t rows) { return p.cum_rows < rows; });
    if (it == log.end() || it->cum_rows != applied_rows) return false;
    *g_lo = it->global_batch;
    *g_hi = (it + 1) == log.end() ? UINT64_MAX : (it + 1)->global_batch;
    return true;
  }

  /// <prefix>shard-<i>.ckpt — the per-shard checkpoint naming scheme.
  static std::string ShardCheckpointPath(const std::string& prefix,
                                         int shard) {
    return prefix + "shard-" + std::to_string(shard) + ".ckpt";
  }

 private:
  // One routed delivery: the global batch counter value it happened at and
  // the shard's cumulative delivered rows after it.
  struct DeliveryPoint {
    uint64_t global_batch = 0;
    size_t cum_rows = 0;
  };

  // Declaration order is the destruction-safety order (reverse teardown):
  // the scheduler goes first, releasing the strategy, the registry it
  // writes into, and the shadow it reads, in that order.
  struct Shard {
    std::unique_ptr<ShadowDb> shadow;
    std::unique_ptr<obs::MetricsRegistry> registry;
    std::unique_ptr<Strategy> strategy;
    std::unique_ptr<StreamScheduler<Strategy>> scheduler;
    // Routing state (producer thread; log shared with serve readers under
    // log_mu_).
    size_t delivered = 0;         // deliveries routed to this shard so far
    size_t skip_deliveries = 0;   // restored prefix to skip (Resume)
    size_t cum_rows = 0;          // rows across logged deliveries
    std::vector<DeliveryPoint> log;
  };

  struct DeferStart {};

  ShardedStreamScheduler(const JoinQuery& source, int root,
                         const FeatureMap* fm, ShardMap map,
                         const ExecPolicy& policy,
                         ShardedStreamOptions options, DeferStart)
      : fm_(fm), map_(std::move(map)), policy_(policy),
        options_(std::move(options)),
        router_metrics_(
            stream_internal::StreamMetrics::Register(&router_registry_)) {
    RELBORG_CHECK(options_.stream.metrics == nullptr);
    RELBORG_CHECK(options_.stream.checkpoint.path.empty());
    shards_.reserve(static_cast<size_t>(map_.num_shards()));
    for (int s = 0; s < map_.num_shards(); ++s) {
      auto shard = std::make_unique<Shard>();
      shard->shadow = std::make_unique<ShadowDb>(source, root);
      shard->registry = std::make_unique<obs::MetricsRegistry>();
      shard->strategy =
          std::make_unique<Strategy>(shard->shadow.get(), fm_, policy_);
      shards_.push_back(std::move(shard));
    }
    if (options_.stream.validate_ingress) {
      // Shard 0's database supplies the catalog. It is still empty here —
      // before any restore — so the validator starts with empty live
      // multisets, also on Resume.
      validator_ = std::make_unique<stream_internal::BatchValidator>(
          shards_[0]->shadow.get(), options_.stream, &router_metrics_);
    }
  }

  // Folds the router's registry and every shard's into `agg`: counters and
  // histograms sum, gauges take the max. `per_shard_series` also adds each
  // shard's instruments under a "_shard<i>" suffix.
  void FoldMetrics(obs::MetricsRegistry* agg, bool per_shard_series) const {
    agg->MergeFrom(router_registry_);
    for (size_t s = 0; s < shards_.size(); ++s) {
      agg->MergeFrom(shards_[s]->scheduler->metrics(),
                     per_shard_series ? "_shard" + std::to_string(s) : "");
    }
  }

  // Spins up shard s's pipeline (fresh, or resuming from `info`).
  void StartShard(int s, const StreamCheckpointInfo* info) {
    Shard& shard = *shards_[s];
    StreamOptions opts = options_.stream;
    opts.validate_ingress = false;  // the router validated every delivery
    opts.metrics = shard.registry.get();
    if (!options_.checkpoint_prefix.empty()) {
      opts.checkpoint.path = ShardCheckpointPath(options_.checkpoint_prefix, s);
    }
    shard.scheduler = std::make_unique<StreamScheduler<Strategy>>(
        shard.shadow.get(), shard.strategy.get(), opts, info);
  }

  // Hands one non-empty batch to shard s. The delivery is logged only when
  // the shard ACCEPTS it (or when it replays a restored prefix, which was
  // accepted by the run that checkpointed), so the applied-rows bijection
  // in DeliveryInterval never counts rows a failed pipeline dropped.
  Status Deliver(int s, uint64_t g, UpdateBatch batch) {
    Shard& shard = *shards_[s];
    const size_t rows = batch.rows.size();
    if (shard.delivered++ < shard.skip_deliveries) {
      LogDelivery(&shard, g, rows);
      return Status::Ok();
    }
    Status st = shard.scheduler->Push(std::move(batch));
    if (st.ok()) LogDelivery(&shard, g, rows);
    return st;
  }

  void LogDelivery(Shard* shard, uint64_t g, size_t rows) {
    std::lock_guard<std::mutex> lock(log_mu_);
    shard->cum_rows += rows;
    shard->log.push_back({g, shard->cum_rows});
  }

  const FeatureMap* fm_;
  ShardMap map_;
  ExecPolicy policy_;
  ShardedStreamOptions options_;
  // The router's ingress: rejection counters (in a registry of their own,
  // folded into the fleet's aggregates) and the validator, null when
  // validate_ingress is off. Producer thread, except the quarantine drain.
  obs::MetricsRegistry router_registry_;
  stream_internal::StreamMetrics router_metrics_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<stream_internal::BatchValidator> validator_;
  std::atomic<uint64_t> global_batches_{0};
  // Guards every shard's delivery log against concurrent serve readers
  // (DeliveryInterval); appends happen on the producer thread only.
  mutable std::mutex log_mu_;
  std::vector<StreamStats> shard_stats_;
  Status finish_status_;
  bool finished_ = false;
};

}  // namespace relborg

#endif  // RELBORG_SHARD_SHARDED_STREAM_SCHEDULER_H_
