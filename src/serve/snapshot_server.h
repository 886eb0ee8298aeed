// Snapshot-consistent concurrent query serving over a live stream pipeline
// — the read front end of the engines (the "millions of users" story).
//
// A SnapshotServer<Strategy> wraps a running StreamScheduler<Strategy> and
// lets any number of client threads open READ TRANSACTIONS against the
// stream while ingestion and maintenance keep running:
//
//   SnapshotServer<CovarFivm>::ReadTxn txn = server.BeginSnapshot();
//   CovarMatrix covar   = server.Covar(txn);         // aggregates
//   LinearModel model   = server.TrainModel(txn, y); // model outputs
//   auto groups         = server.GroupBy(txn, node); // group-by results
//   server.EndSnapshot(&txn);
//
// Every read of one transaction observes ONE committed epoch horizon: the
// state a serial replay of the stream would have after exactly
// txn.horizon_epochs() epochs — epoch-consistent across all views and the
// row store, and byte-identical to that paused-pipeline state (the
// differential suite in tests/serve_snapshot_test.cc pins this against a
// serial oracle for all three strategies).
//
// HOW IT COMPOSES with the PR-5/PR-6 machinery (no stop-the-world, reads
// never block the committer or the compute stage):
//
//   * The server registers a StreamEpochObserver; at every K-th epoch
//     boundary (ServeOptions::snapshot_every_epochs, the staleness knob)
//     the APPLIER thread publishes a fresh snapshot entry. For strategies
//     with the per-view pin protocol (CovarFivm's ServePin over
//     CovarArenaView::Pin) the entry pins all views copy-on-write —
//     zero-copy snapshots whose bytes later merges cannot disturb. For
//     copy-based strategies (HigherOrderIvm, FirstOrderIvm) the entry
//     copies Current() at the boundary — ~n(n+1)/2 doubles.
//   * BeginSnapshot is non-blocking: it refcounts the newest published
//     entry (one mutex acquisition, no gates). The server retains its
//     newest ServeOptions::retained_entries entries (1 by default; the
//     sharded server's per-shard servers keep more to find merged cuts).
//     Entries unpin when the last transaction holding them closes AND they
//     have left the retained window, in any order across threads (the
//     CovarArenaView pin table).
//   * Pinned-path queries take the scheduler's ViewGate READ lock on just
//     the views they touch (a concurrent fold can rehash a view's hash map
//     and move its arena buffer; COW preserves payload bytes, not
//     addresses). Readers block — and are blocked by — only the applier's
//     fold into one of those same views, never the committer (CommitGate
//     is untouched), the compute stage (reader/reader), or other clients.
//
// LIFECYCLE. Construct the server AFTER the scheduler but BEFORE the first
// Push (the constructor pins the initial snapshot at the database's
// committed rows — empty, or a resumed scheduler's restored prefix — which
// must not race a fold). Destroy it before the scheduler; the destructor
// unregisters the observer and synchronizes with any in-flight epoch
// callback. Transactions still open at destruction keep their snapshot
// alive (shared ownership) and must be closed before the strategy itself
// is destroyed. The server keeps serving after StreamScheduler::Finish —
// the final snapshot then covers the whole stream.
#ifndef RELBORG_SERVE_SNAPSHOT_SERVER_H_
#define RELBORG_SERVE_SNAPSHOT_SERVER_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "ml/linear_regression.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ring/covariance.h"
#include "stream/stream_scheduler.h"
#include "util/check.h"
#include "util/timer.h"

namespace relborg {

/// Serving configuration.
struct ServeOptions {
  /// Staleness bound: publish a fresh snapshot every K maintained epochs.
  /// 1 = every epoch boundary (freshest reads, one pin/copy per epoch);
  /// larger values amortize snapshot publication against read staleness —
  /// a transaction's horizon then lags the maintained prefix by at most
  /// K - 1 epochs. Clamped to >= 1.
  size_t snapshot_every_epochs = 1;
  /// Published entries retained, newest last. BeginSnapshot serves only
  /// the newest, so 1 keeps no history; a sharded server's per-shard
  /// servers retain more so a merged begin can find a cut while shards run
  /// apart (ShardedServeOptions). Clamped to >= 1.
  size_t retained_entries = 1;
};

namespace serve_internal {

// Detects the zero-copy pin protocol (CovarFivm): `Strategy::ServePin`
// plus PinServe / UnpinServe / CovarAt / GroupByAt. Strategies without it
// are served by copying Current() at the epoch boundary.
template <typename Strategy, typename = void>
struct HasServePin : std::false_type {};
template <typename Strategy>
struct HasServePin<Strategy, std::void_t<typename Strategy::ServePin>>
    : std::true_type {};

// One published snapshot entry. The copy-based primary template stores the
// covariance payload copied at the epoch boundary; the pinned
// specialization stores the strategy's per-view pin (released on
// destruction, from whichever thread drops the last reference).
template <typename Strategy, bool = HasServePin<Strategy>::value>
struct Entry {
  uint64_t horizon = 0;              // epochs maintained at publication
  std::vector<size_t> watermark;     // per-node committed rows at horizon
  int num_features = 0;
  CovarPayload covar;                // copied at the boundary
  Entry(uint64_t h, std::vector<size_t> wm, Strategy* strategy)
      : horizon(h), watermark(std::move(wm)) {
    CovarMatrix m = strategy->Current();
    num_features = m.num_features();
    covar = m.payload();
  }
};

template <typename Strategy>
struct Entry<Strategy, true> {
  uint64_t horizon = 0;
  std::vector<size_t> watermark;
  typename Strategy::ServePin pin;
  Strategy* strategy;  // for the unpin on release
  Entry(uint64_t h, std::vector<size_t> wm, Strategy* s)
      : horizon(h), watermark(std::move(wm)), pin(s->PinServe()), strategy(s) {}
  Entry(const Entry&) = delete;
  Entry& operator=(const Entry&) = delete;
  ~Entry() { strategy->UnpinServe(); }
};

}  // namespace serve_internal

template <typename Strategy>
class ShardedSnapshotServer;

/// Read front end over a live StreamScheduler<Strategy> (see the file
/// comment for the protocol and lifecycle).
///
/// THREAD SAFETY: BeginSnapshot / EndSnapshot / Covar / GroupBy /
/// TrainModel / horizon_epochs are safe from any number of client threads
/// concurrently with the pipeline. Construction and destruction belong to
/// one thread (the scheduler's owner).
template <typename Strategy>
class SnapshotServer : public StreamEpochObserver {
  static constexpr bool kPinned =
      serve_internal::HasServePin<Strategy>::value;
  using Entry = serve_internal::Entry<Strategy>;

 public:
  /// One open read transaction: a shared handle on a published snapshot.
  /// Copyable/movable; closing (EndSnapshot or destruction) releases the
  /// hold. All reads through one ReadTxn observe the same horizon.
  class ReadTxn {
   public:
    ReadTxn() = default;
    /// The number of stream epochs this snapshot covers.
    uint64_t horizon_epochs() const { return entry_->horizon; }
    /// Per-node committed-row watermark at the horizon (observability).
    const std::vector<size_t>& watermark() const { return entry_->watermark; }
    bool open() const { return entry_ != nullptr; }

   private:
    friend class SnapshotServer;
    explicit ReadTxn(std::shared_ptr<const Entry> entry)
        : entry_(std::move(entry)) {}
    std::shared_ptr<const Entry> entry_;
  };

  /// Registers the epoch observer and publishes the initial (horizon 0)
  /// snapshot at `db`'s committed rows: the empty database, or the
  /// restored prefix of a resumed scheduler. Must run after the
  /// scheduler's construction and before its first Push.
  SnapshotServer(StreamScheduler<Strategy>* scheduler, const ShadowDb* db,
                 Strategy* strategy, const ServeOptions& options = {})
      : scheduler_(scheduler),
        strategy_(strategy),
        options_(options),
        root_mask_(db->tree().num_nodes(), 0) {
    options_.snapshot_every_epochs =
        std::max<size_t>(1, options_.snapshot_every_epochs);
    options_.retained_entries = std::max<size_t>(1, options_.retained_entries);
    root_mask_[db->tree().root()] = 1;
    // Serve instruments live in the SCHEDULER's registry, so one
    // MetricsText() exposes the whole pipeline + serving surface.
    obs::MetricsRegistry& reg = scheduler_->metrics();
    read_latency_ = reg.GetHistogram("relborg_serve_read_latency_seconds",
                                     "Per-query serve read latency (Covar / "
                                     "GroupBy, gate wait included)");
    transactions_ = reg.GetCounter("relborg_serve_transactions_total",
                                   "Read transactions opened");
    reads_ = reg.GetCounter("relborg_serve_reads_total",
                            "Snapshot reads served (Covar + GroupBy)");
    snapshots_ = reg.GetCounter("relborg_serve_snapshots_published_total",
                                "Snapshot entries published (initial one "
                                "included)");
    models_ = reg.GetCounter("relborg_serve_models_trained_total",
                             "Ridge models trained over snapshots");
    std::vector<size_t> watermark(root_mask_.size());
    for (size_t v = 0; v < watermark.size(); ++v) {
      watermark[v] = db->committed_rows(static_cast<int>(v));
    }
    Publish(0, std::move(watermark));
    scheduler_->SetEpochObserver(this);
  }

  ~SnapshotServer() override {
    // Synchronizes with any in-flight callback; no new one can start.
    scheduler_->SetEpochObserver(nullptr);
  }

  SnapshotServer(const SnapshotServer&) = delete;
  SnapshotServer& operator=(const SnapshotServer&) = delete;

  /// Opens a read transaction on the newest published snapshot.
  /// Non-blocking (one mutex acquisition); never waits on the pipeline.
  ReadTxn BeginSnapshot() {
    transactions_->Inc();
    std::lock_guard<std::mutex> lock(mu_);
    return ReadTxn(entries_.back());
  }

  /// Closes a transaction. Dropping the last hold on a superseded
  /// snapshot releases its pins (any thread, any order).
  void EndSnapshot(ReadTxn* txn) { txn->entry_.reset(); }

  /// The covariance aggregate batch at the transaction's horizon.
  CovarMatrix Covar(const ReadTxn& txn) const {
    RELBORG_DCHECK(txn.open());
    obs::ThreadTraceScope trace_scope(scheduler_->trace(), "serve");
    obs::TraceSpan span("serve/covar", "serve",
                        static_cast<int64_t>(txn.horizon_epochs()));
    return CovarOf(*txn.entry_);
  }

  /// Group-by results at the horizon: node `v`'s view keys with their
  /// COUNT(*) payloads, sorted by key. Zero-copy strategies only
  /// (copy-based snapshots keep no per-view state).
  std::vector<std::pair<uint64_t, double>> GroupBy(const ReadTxn& txn,
                                                   int v) const {
    static_assert(kPinned,
                  "GroupBy requires a strategy with the ServePin protocol "
                  "(CovarFivm); copy-based snapshots keep no view state");
    RELBORG_DCHECK(txn.open());
    obs::ThreadTraceScope trace_scope(scheduler_->trace(), "serve");
    obs::TraceSpan span("serve/group-by", "serve",
                        static_cast<int64_t>(txn.horizon_epochs()), v);
    return GroupByOf(*txn.entry_, v);
  }

  /// Trains (or warm-start-refreshes) the ridge model for `response` on
  /// the transaction's covariance snapshot. Consecutive calls for the same
  /// response resume gradient descent from the previous weights (Sec. 1.5
  /// of the paper) — the cache is shared across clients under a mutex.
  LinearModel TrainModel(const ReadTxn& txn, int response,
                         RidgeOptions options = {},
                         TrainInfo* info = nullptr) {
    return Train(Covar(txn), response, options, info);
  }

  /// Horizon of the newest published snapshot (epochs maintained).
  uint64_t horizon_epochs() {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.back()->horizon;
  }

  /// Snapshots published so far (including the initial one).
  size_t published_snapshots() {
    std::lock_guard<std::mutex> lock(mu_);
    return published_;
  }

  /// Prometheus-style exposition of the shared registry: the scheduler's
  /// pipeline instruments plus this server's serve instruments. Safe from
  /// any thread — this is the "metrics queryable through the serve layer"
  /// endpoint.
  std::string MetricsText() const { return scheduler_->MetricsText(); }

  /// The shared registry itself (e.g. for quantile queries on
  /// relborg_serve_read_latency_seconds).
  const obs::MetricsRegistry& metrics() const {
    return scheduler_->metrics();
  }

  /// StreamEpochObserver: runs on the APPLIER thread between epochs —
  /// the one point where pinning/copying strategy state cannot race a
  /// fold. Not part of the client API.
  void OnEpochMaintained(uint64_t id,
                         const std::vector<size_t>& watermark) override {
    if ((id + 1) % options_.snapshot_every_epochs != 0) return;
    Publish(id + 1, watermark);
  }

 private:
  friend class ShardedSnapshotServer<Strategy>;

  // The retained entries, oldest first (the merged-cut search).
  std::vector<std::shared_ptr<const Entry>> Retained() const {
    std::lock_guard<std::mutex> lock(mu_);
    return {entries_.begin(), entries_.end()};
  }

  // One covariance read of `entry`: the pinned views under the root view's
  // read lock, or the payload copied at the boundary.
  CovarMatrix CovarOf(const Entry& entry) const {
    WallTimer timer;
    reads_->Inc();
    if constexpr (kPinned) {
      scheduler_->BeginViewRead(root_mask_);
      CovarMatrix m = strategy_->CovarAt(entry.pin);
      scheduler_->EndViewRead(root_mask_);
      read_latency_->Observe(timer.Seconds());
      return m;
    } else {
      read_latency_->Observe(timer.Seconds());
      return CovarMatrix(entry.num_features, entry.covar);
    }
  }

  // One group-by read of node v's pinned view, under v's read lock.
  std::vector<std::pair<uint64_t, double>> GroupByOf(const Entry& entry,
                                                     int v) const {
    WallTimer timer;
    reads_->Inc();
    std::vector<uint8_t> mask(root_mask_.size(), 0);
    mask[v] = 1;
    scheduler_->BeginViewRead(mask);
    auto out = strategy_->GroupByAt(v, entry.pin);
    scheduler_->EndViewRead(mask);
    read_latency_->Observe(timer.Seconds());
    return out;
  }

  // Ridge training on `m`, warm-started from the last weights for
  // `response`.
  LinearModel Train(const CovarMatrix& m, int response, RidgeOptions options,
                    TrainInfo* info) {
    {
      std::lock_guard<std::mutex> lock(model_mu_);
      auto it = warm_.find(response);
      if (it != warm_.end()) options.warm_start = it->second;
    }
    LinearModel model = TrainRidgeGd(m, response, options, {}, info);
    models_->Inc();
    {
      std::lock_guard<std::mutex> lock(model_mu_);
      warm_[response] = model.weights;
    }
    return model;
  }

  void Publish(uint64_t horizon, std::vector<size_t> watermark) {
    // Runs on the applier thread (or the owner's at construction): the
    // instant lands in that thread's trace ring when tracing is on.
    RELBORG_TRACE_INSTANT("snapshot-publish", "serve",
                          static_cast<int64_t>(horizon), -1);
    auto entry = std::make_shared<const Entry>(horizon, std::move(watermark),
                                               strategy_);
    snapshots_->Inc();
    std::lock_guard<std::mutex> lock(mu_);
    entries_.push_back(std::move(entry));
    // An entry leaving the window unpins on its last release.
    if (entries_.size() > options_.retained_entries) entries_.pop_front();
    ++published_;
  }

  StreamScheduler<Strategy>* scheduler_;
  Strategy* strategy_;
  ServeOptions options_;
  std::vector<uint8_t> root_mask_;  // view-gate mask: the root view only
  mutable std::mutex mu_;           // guards entries_ + published_
  std::deque<std::shared_ptr<const Entry>> entries_;  // newest last
  size_t published_ = 0;
  std::mutex model_mu_;             // guards warm_
  std::map<int, std::vector<double>> warm_;  // response -> last weights
  // Serve instruments (registered in the scheduler's registry; stable for
  // the registry's lifetime). read_latency_/reads_ are written from const
  // read paths — the instruments are atomic, so they stay mutable.
  obs::Histogram* read_latency_ = nullptr;
  obs::Counter* transactions_ = nullptr;
  mutable obs::Counter* reads_ = nullptr;
  obs::Counter* snapshots_ = nullptr;
  obs::Counter* models_ = nullptr;
};

}  // namespace relborg

#endif  // RELBORG_SERVE_SNAPSHOT_SERVER_H_
