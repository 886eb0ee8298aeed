// Asynchronous, pipelined maintenance of IVM update streams with
// epoch-coalesced deltas, watermark-overlapped commits and snapshot-
// validated multi-epoch delta computation.
//
// The classic IVM driver loop interleaves three jobs on one thread:
// ingestion (appending rows and maintaining the ShadowDb's join indexes),
// delta computation, and view propagation. The StreamScheduler splits them
// into a five-stage pipeline:
//
//   caller ──Push──▶ [ingress] ──▶ assembler ──▶ [sealed] ──▶ committer
//            (bounded, blocks:       thread        (bounded)     thread
//             backpressure)                                         │
//   applier ◀── [computed] ◀── compute ◀── [committed] ◀──────────┘
//    thread       (bounded)     thread       (bounded)
//
//   * The INGRESS QUEUE is bounded by rows; Push blocks while it is full,
//     so a fast producer is throttled to the maintenance rate instead of
//     buffering the whole stream.
//   * The ASSEMBLER coalesces batches into EPOCHS: all of an epoch's
//     batches for one node merge into a single contiguous row range (the
//     shadow relations are per-node, so interleaved arrivals still land
//     contiguously), carrying per-row multiplicity signs so insert and
//     delete batches coalesce into the same range. It also STAGES the
//     ingestion work off the maintenance thread (ShadowDb::StageRows) and
//     attaches each range's VISIBILITY HORIZON — the per-node row
//     watermark of the serial replay at that range's commit point — plus
//     the epoch's maintenance READ SET (range nodes and their ancestors).
//     An epoch seals once it holds epoch_rows rows or epoch_batches
//     batches — a pure function of the batch sequence, never of timing.
//     Batches with zero rows count toward the batch bound (an epoch whose
//     batches were all empty seals with zero ranges and applies as a
//     structural no-op).
//   * The COMMITTER splices sealed epochs' chunks into the ShadowDb
//     (ShadowDb::CommitChunk: column splices, one index probe per distinct
//     key, then the atomic watermark flip) strictly in epoch order — and
//     CONCURRENTLY with the applier's maintenance of EARLIER epochs.
//     Overlap is safe on two independent grounds:
//       - MEMORY: a per-node CommitGate excludes the committer from any
//         node in the epoch read set the applier is currently maintaining.
//         Strategies with the speculative API below maintain a range by
//         reading only its node and ancestors, so they lock just those;
//         the rest — first-order IVM re-enumerates the whole database —
//         lock every node, serializing commits with their maintenance but
//         still overlapping queue/latency gaps.
//       - VISIBILITY: maintenance bounds every ShadowDb read by its
//         epoch's watermark (rows at ids >= the horizon are exactly the
//         rows later epochs spliced early), so results never depend on how
//         far commits ran ahead.
//   * The COMPUTE stage starts epoch N+1's DELTA COMPUTATION while epoch N
//     (or several earlier epochs) is still propagating — the speculative
//     half of the applier's work, pulled off the serial path. It
//     SPECULATES each range of a committed epoch whose probe set (its
//     node's children) misses the write closure of every fold still in
//     flight — an earlier epoch handed downstream but not yet maintained,
//     or an earlier range of the same epoch: it computes the range's delta
//     against the CURRENT child views, bounded by per-view version
//     snapshots taken at entry, and records the observed (node, version)
//     pairs. The applier revalidates the versions at the range's serial
//     point; equality means the child views never changed in between, so
//     the precomputed delta is bit-identical to a fresh serial compute
//     (deterministic partitioned folds) and propagation proceeds from it
//     directly — a SPECULATION HIT. On a mismatch the applier recomputes
//     serially (a MISS; correctness never depends on the speculation, only
//     latency does). A range whose probe set meets an in-flight write
//     closure would miss with certainty, so the stage leaves it alone and
//     the applier computes its delta serially, exactly as for a miss.
//     Safety mirrors the committer's two-mechanism design:
//       - MEMORY: the compute thread holds the per-node CommitGate (as a
//         second maintain-side holder) while reading the range's relation
//         rows, and a per-view ViewGate read lock on the range's children
//         while probing their views; the applier write-locks exactly the
//         view being folded into (never the read-only upward scan between
//         folds). Acquisition is CommitGate before ViewGate everywhere,
//         readers acquire all-or-nothing and never wait while holding, and
//         each side is a single thread — deadlock-free.
//       - VISIBILITY: every speculative probe is bounded by the child's
//         snapshot, and the applier accepts a speculated delta only when
//         the child versions are unchanged — version equality implies
//         state identity, which implies bit-identity.
//     Strategies without the speculative API (FirstOrderIvm's delta join
//     reads the whole database, so every epoch's write set intersects
//     every probe set) are forwarded untouched and keep the serial
//     schedule; stats report speculated_ranges == 0 for them.
//   * The APPLIER maintains computed epochs strictly in order, one range
//     at a time in canonical order — deepest view group first
//     (IndependentViewGroups), ascending node id within a group — each
//     under its own visibility horizon, exactly as ReplayStream does. A
//     speculated range is validated (and recomputed on a miss) right
//     before it propagates.
//
// DETERMINISM: epoch composition, application order and per-range
// watermarks are pure functions of (stream, options); every delta is
// folded with the thread-count-independent partitioning of
// core/exec_policy.h; and every maintenance read is bounded by its epoch's
// watermark, so the scheduler's result is BIT-IDENTICAL to ReplayStream
// (the same epochs committed and maintained serially on the caller's
// thread) for any ExecPolicy thread count, any commit run-ahead and any
// compute run-ahead — the queues, threads, the committer's lead and the
// speculation hit rate change when work happens, never what is read or
// summed in which order. With epoch_batches == 1 every batch is its own
// epoch and both are in turn bit-identical to the classic
// append-then-ApplyBatch loop over the original stream. Epoch coalescing
// folds same-key rows of an epoch into one delta payload before
// propagation; ring addition makes that exact (deletions cancel inserts
// inside the epoch), though the coalesced fold is a different
// floating-point summation order than per-batch replay, equal to it only
// up to rounding.
//
// Timing-dependent values (queue high-water marks, per-epoch latency, gate
// waits, the committer's maximum epoch lead) are surfaced in StreamStats
// for observability; the structural counters (epochs, ranges, rows) are
// deterministic.
//
// While a scheduler is live, the ShadowDb and the strategy belong to the
// pipeline: the caller must not touch either until Finish() returns. Two
// exceptions:
//   * ShadowDb::committed_rows(v) — an atomic gauge that may be polled
//     from any thread (the stress suite samples it live); reading actual
//     ROWS still requires waiting for Finish.
//   * SNAPSHOT READS through the serve layer (serve/snapshot_server.h):
//     an epoch observer registered via SetEpochObserver pins strategy
//     view snapshots at epoch boundaries ON THE APPLIER THREAD, and
//     client threads read those pinned snapshots under the scheduler's
//     view-gate read locks (BeginViewRead/EndViewRead) — excluded from
//     the one view the applier is folding into, never from the committer
//     or the compute stage.
#ifndef RELBORG_STREAM_STREAM_SCHEDULER_H_
#define RELBORG_STREAM_STREAM_SCHEDULER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/exec_policy.h"
#include "ivm/shadow_db.h"
#include "ivm/update_stream.h"
#include "ivm/view_tree.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/checkpoint.h"
#include "stream/stream_metrics.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/status.h"
#include "util/timer.h"

namespace relborg {

struct StreamOptions {
  // Epoch sealing bounds: an epoch seals once it holds >= epoch_rows rows
  // or >= epoch_batches batches, whichever comes first. Pure functions of
  // the batch sequence, so epoch composition never depends on timing.
  // epoch_batches == 1 disables coalescing (one batch per epoch).
  size_t epoch_rows = 8192;
  size_t epoch_batches = 64;
  // Backpressure bounds: Push blocks while the ingress queue holds
  // >= max_queued_rows rows; each of the sealed, committed and computed
  // epoch queues holds at most max_queued_epochs epochs (so commits and
  // the compute stage run at most ~max_queued_epochs epochs ahead of
  // maintenance). 0 is treated as 1.
  size_t max_queued_rows = 1 << 16;
  size_t max_queued_epochs = 4;
  // Ingress validation (docs/ARCHITECTURE.md, "Failure model & recovery"):
  // when on, Push checks every batch against the catalog — node id in
  // range, per-row arity and attribute types, finite values, deletes only
  // retracting live multiplicities — and routes rejected batches to a
  // bounded quarantine instead of letting them reach the pipeline (where
  // they would corrupt views or trip an abort). Off builds no validator:
  // Push skips the per-row scan, and a resumed scheduler skips the scan of
  // its restored rows. For trusted producers — the sharded router
  // validates each source batch once and runs its shards with this off.
  // Results are identical for valid streams.
  bool validate_ingress = true;
  // Rejected batches kept for DrainQuarantine; older rejects beyond the
  // capacity are dropped (counted in quarantine_dropped_batches). 0 keeps
  // none.
  size_t quarantine_capacity = 64;
  // Stall watchdog: when > 0, a monitor thread dumps queue depths and
  // per-node watermarks to stderr (and counts watchdog_stalls) whenever no
  // stage makes progress for this long while work is queued. Observability
  // only — it never unblocks or kills anything.
  double stall_timeout_seconds = 0;
  // Periodic epoch checkpointing (stream/checkpoint.h); disabled unless
  // both path and every_epochs are set.
  StreamCheckpointOptions checkpoint;
  // Observability (src/obs/). `metrics`: an external registry to register
  // the pipeline's instruments in (so one registry can span scheduler +
  // serve layer); null means the scheduler owns a private registry,
  // reachable via metrics(). `trace`: when set, every stage thread records
  // spans into the recorder's per-thread rings (Chrome-trace exportable);
  // null disables recording entirely — spans cost one thread-local load.
  // Tracing and metrics never affect WHAT the pipeline computes: results
  // stay bit-identical to an uninstrumented run.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
};

struct StreamStats {
  // Deterministic structural counters.
  size_t batches = 0;  // source batches consumed (empty batches included)
  size_t rows = 0;     // rows across those batches
  size_t epochs = 0;   // sealed epochs applied
  size_t ranges = 0;   // coalesced per-node ranges applied
  // Speculative compute counters. speculated is decided on the compute
  // thread; hits/misses are decided on the applier thread at each range's
  // serial point (hits + misses == speculated_ranges after Finish). All
  // are timing-dependent; a range not speculated is computed serially.
  size_t speculated_ranges = 0;   // ranges with a precomputed delta
  size_t speculation_hits = 0;    // ...accepted at the serial point
  size_t speculation_misses = 0;  // ...invalidated and recomputed
  // Timing (observability only; never affects results).
  double apply_seconds = 0;   // wall time maintaining epochs (gate wait in)
  double commit_seconds = 0;  // wall time splicing chunks, gate waits out
  double compute_seconds = 0;  // wall time speculating, gate waits out
  double commit_gate_wait_seconds = 0;    // committer blocked on readers
  double maintain_gate_wait_seconds = 0;  // applier blocked on commits
  double compute_gate_wait_seconds = 0;   // compute blocked on gates
  size_t commit_ahead_max_epochs = 0;  // committer's max lead over applier
  size_t compute_overlap_epochs_max = 0;  // compute's max lead over applier
  double epoch_latency_mean_seconds = 0;  // epoch sealed -> applied
  double epoch_latency_max_seconds = 0;
  size_t ingress_high_water_rows = 0;
  size_t epoch_queue_high_water = 0;
  // Ingress robustness counters (producer side).
  size_t rejected_batches = 0;   // failed validation, never entered pipeline
  size_t rejected_rows = 0;      // rows across rejected batches
  size_t quarantined_batches = 0;       // rejected AND retained for drain
  size_t quarantine_dropped_batches = 0;  // rejected, quarantine was full
  size_t dropped_batches = 0;    // pushed after Finish or after a failure
  size_t try_push_timeouts = 0;  // TryPush deadlines that expired
  // Watchdog + checkpoint observability.
  size_t watchdog_stalls = 0;       // no-progress intervals detected
  size_t checkpoints_written = 0;   // complete checkpoint files renamed in
  size_t checkpoint_bytes = 0;      // file bytes across them
  double checkpoint_seconds = 0;    // wall time serializing + writing
};

/// A batch the ingress validator rejected, retained for inspection.
struct QuarantinedBatch {
  UpdateBatch batch;
  Status status;  // why it was rejected
};

namespace stream_internal {

// StreamStats is a PROJECTION of the metrics registry: the scheduler only
// ever updates instruments, and this derivation is the only producer of the
// flat struct — the two cannot disagree. Counter values are integer-valued
// doubles (exact); the seconds fields are the histogram sums, accumulated by
// a single writer in the same order as the `+=` fields they replaced.
inline StreamStats StreamMetrics::Derive() const {
  StreamStats s;
  s.batches = static_cast<size_t>(batches->Value());
  s.rows = static_cast<size_t>(rows->Value());
  s.epochs = static_cast<size_t>(epochs->Value());
  s.ranges = static_cast<size_t>(ranges->Value());
  s.speculated_ranges = static_cast<size_t>(speculated_ranges->Value());
  s.speculation_hits = static_cast<size_t>(speculation_hits->Value());
  s.speculation_misses = static_cast<size_t>(speculation_misses->Value());
  s.apply_seconds = apply_seconds->Sum();
  s.commit_seconds = commit_seconds->Sum();
  s.compute_seconds = compute_seconds->Sum();
  s.commit_gate_wait_seconds = commit_gate_wait->Sum();
  s.maintain_gate_wait_seconds = maintain_gate_wait->Sum();
  s.compute_gate_wait_seconds = compute_gate_wait->Sum();
  s.commit_ahead_max_epochs = static_cast<size_t>(commit_ahead_max->Value());
  s.compute_overlap_epochs_max =
      static_cast<size_t>(compute_overlap_max->Value());
  // Mean over ALL epochs counted (checkpoint resume seeds the epoch
  // counter), matching the pre-registry semantics.
  s.epoch_latency_mean_seconds =
      s.epochs > 0 ? epoch_latency->Sum() / static_cast<double>(s.epochs) : 0;
  s.epoch_latency_max_seconds = epoch_latency_max->Value();
  s.ingress_high_water_rows = static_cast<size_t>(ingress_high_water->Value());
  s.epoch_queue_high_water =
      static_cast<size_t>(epoch_queue_high_water->Value());
  s.rejected_batches = static_cast<size_t>(rejected_batches->Value());
  s.rejected_rows = static_cast<size_t>(rejected_rows->Value());
  s.quarantined_batches = static_cast<size_t>(quarantined_batches->Value());
  s.quarantine_dropped_batches =
      static_cast<size_t>(quarantine_dropped_batches->Value());
  s.dropped_batches = static_cast<size_t>(dropped_batches->Value());
  s.try_push_timeouts = static_cast<size_t>(try_push_timeouts->Value());
  s.watchdog_stalls = static_cast<size_t>(watchdog_stalls->Value());
  s.checkpoints_written = static_cast<size_t>(checkpoint_write->Count());
  s.checkpoint_bytes = static_cast<size_t>(checkpoint_bytes->Value());
  s.checkpoint_seconds = checkpoint_write->Sum();
  return s;
}

}  // namespace stream_internal

// One coalesced node-range of an epoch: the staged ingestion chunk and the
// visibility horizon of the serial replay right after this range's commit
// — maintenance of the range bounds every per-node read by it.
struct StreamRange {
  IngestChunk chunk;
  std::vector<size_t> visible;  // per node: rows visible after this commit
};

struct StreamEpoch {
  uint64_t id = 0;
  size_t rows = 0;
  size_t batches = 0;
  // Canonical application order: ascending (view group, node).
  std::vector<StreamRange> ranges;
  // Maintenance read set (per node): range nodes and their ancestors — also
  // the epoch's write closure. The CommitGate keeps the committer out of
  // these nodes while a speculative strategy maintains the epoch.
  std::vector<uint8_t> reads;
  std::chrono::steady_clock::time_point sealed_at;
};

// Coalesces a batch sequence into epochs and stages their ingestion.
// Single-threaded (the scheduler drives it from the assembler thread;
// ReplayStream from the caller's); reads only the ShadowDb's immutable
// topology after construction.
class EpochAssembler {
 public:
  EpochAssembler(const ShadowDb* db, const StreamOptions& options);

  // Feeds one batch. Returns true when this batch sealed an epoch into
  // *out (the batch itself is part of that epoch; batches never split).
  // Zero-row batches carry no ranges but count toward the batch bound.
  bool Add(UpdateBatch batch, StreamEpoch* out);

  // Seals the in-progress partial epoch into *out; false if no batch is
  // pending (an all-empty-batch tail still seals a zero-range epoch).
  bool Flush(StreamEpoch* out);

  // Checkpoint resume: continues epoch numbering from a checkpoint
  // boundary. The row cursors need no adjustment — the constructor
  // snapshots the restored relations' sizes, which at a checkpoint
  // boundary ARE the per-node watermarks. Call before the first Add.
  void ResumeAt(uint64_t next_epoch_id) { next_epoch_id_ = next_epoch_id; }

 private:
  struct Pending {
    int node = -1;
    std::vector<std::vector<double>> rows;
    std::vector<double> signs;
  };

  void Seal(StreamEpoch* out);

  const ShadowDb* db_;
  StreamOptions options_;
  std::vector<int> group_of_;     // node -> view-group index, deepest = 0
  std::vector<size_t> next_row_;  // node -> next absolute row id
  std::vector<int> pending_of_;   // node -> index into pending_, or -1
  std::vector<Pending> pending_;
  size_t cur_rows_ = 0;
  size_t cur_batches_ = 0;
  uint64_t next_epoch_id_ = 0;
};

namespace stream_internal {

// Detects the speculative per-range compute API (`Strategy::RangeDelta`
// plus ComputeRangeDelta / RangeDeltaValid / ApplyRangeDelta): the hook
// that lets the compute stage evaluate a range's delta ahead of its serial
// point. Strategies without it (FirstOrderIvm) keep the serial schedule.
template <typename Strategy, typename = void>
struct HasSpeculativeCompute : std::false_type {};
template <typename Strategy>
struct HasSpeculativeCompute<Strategy,
                             std::void_t<typename Strategy::RangeDelta>>
    : std::true_type {};

// A committed epoch plus the compute stage's per-range output. The
// non-speculative specialization is a plain wrapper, so one channel type
// serves every strategy.
template <typename Strategy,
          bool kSpec = HasSpeculativeCompute<Strategy>::value>
struct ComputedEpoch {
  StreamEpoch epoch;
};

template <typename Strategy>
struct ComputedEpoch<Strategy, true> {
  struct Range {
    // False means the applier computes the range serially from scratch.
    bool speculated = false;
    typename Strategy::RangeDelta delta{};
    // (node, version) of every child view the delta was computed against.
    std::vector<std::pair<int, uint64_t>> observed;
  };
  StreamEpoch epoch;
  std::vector<Range> ranges;  // parallel to epoch.ranges (empty if untouched)
};

// Minimal bounded MPSC channel: Push blocks while `capacity` worth of
// weight is queued (backpressure), Pop blocks until an item arrives or the
// channel closes empty.
template <typename T>
class BoundedChannel {
 public:
  explicit BoundedChannel(size_t capacity)
      : capacity_(std::max<size_t>(1, capacity)) {}

  // Returns false (item dropped) iff the channel is closed.
  bool Push(T item, size_t weight = 1) {
    std::unique_lock<std::mutex> lock(mu_);
    can_push_.wait(lock, [&] {
      return closed_ || items_.empty() || weight_ + weight <= capacity_;
    });
    if (closed_) return false;
    weight_ += weight;
    high_water_ = std::max(high_water_, weight_);
    items_.emplace_back(std::move(item), weight);
    can_pop_.notify_one();
    return true;
  }

  enum class TryPushResult { kOk, kTimeout, kClosed };

  // Bounded-wait Push: gives up after `timeout` instead of blocking
  // indefinitely under backpressure. On kTimeout the item is untouched (the
  // caller keeps ownership and may retry).
  TryPushResult TryPush(T* item, size_t weight,
                        std::chrono::nanoseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    const bool ready = can_push_.wait_for(lock, timeout, [&] {
      return closed_ || items_.empty() || weight_ + weight <= capacity_;
    });
    if (!ready) return TryPushResult::kTimeout;
    if (closed_) return TryPushResult::kClosed;
    weight_ += weight;
    high_water_ = std::max(high_water_, weight_);
    items_.emplace_back(std::move(*item), weight);
    can_pop_.notify_one();
    return TryPushResult::kOk;
  }

  // Returns false iff the channel is closed and drained.
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    can_pop_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    *out = std::move(items_.front().first);
    weight_ -= items_.front().second;
    items_.pop_front();
    can_push_.notify_one();
    return true;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    can_push_.notify_all();
    can_pop_.notify_all();
  }

  // Only meaningful once the producing/consuming threads have joined.
  size_t high_water() const {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }

  // Queued item count right now (watchdog gauge; instantly stale).
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable can_push_;
  std::condition_variable can_pop_;
  std::deque<std::pair<T, size_t>> items_;
  size_t capacity_;
  size_t weight_ = 0;
  size_t high_water_ = 0;
  bool closed_ = false;
};

// Ingress-side batch validation against the catalog, plus the bounded
// quarantine of rejected batches — the one validate-and-quarantine path.
// StreamScheduler::Push runs it on every batch when validate_ingress is
// on; the sharded router runs it once per source batch, before routing.
// Untrusted producers must not be able to reach any RELBORG_CHECK abort
// (or silently corrupt views) with a malformed UpdateBatch, so everything
// the pipeline assumes about a batch is checked HERE, before it enters a
// pipeline:
//
//   * node id within the join tree;
//   * batch sign exactly +1 or -1;
//   * every row has the schema's arity, every value is finite, and
//     categorical attributes carry non-negative integral codes within
//     int32 range (Column::AppendCat would otherwise silently truncate in
//     release builds);
//   * a delete batch only retracts rows with live multiplicity — tracked
//     as a per-node multiset of row-content hashes, checked against the
//     batch's own two-pass need counts so the whole batch accepts or
//     rejects atomically (a delete stream that over-retracts would drive
//     multiplicities negative, which every downstream invariant assumes
//     cannot happen).
//
// Check leaves the live multisets alone (a rejected batch is counted and
// kept in the quarantine; older rejects beyond the capacity are dropped
// and counted); Account applies an ACCEPTED batch's effect — split so a
// batch that times out in TryPush after validation is never accounted.
// Check/Account belong to the producer thread; Drain and quarantine_size
// are safe from any thread.
class BatchValidator {
 public:
  struct CheckResult {
    int node = -1;
    bool is_delete = false;
    std::vector<uint64_t> hashes;  // one content hash per row
  };

  // Seeds the live multisets from rows already committed to `db` — the
  // checkpoint-resume case, where the restored prefix's deletes must stay
  // retractable-aware. On a fresh db this is a no-op. `metrics` supplies
  // the rejection counters.
  BatchValidator(const ShadowDb* db, const StreamOptions& options,
                 StreamMetrics* metrics)
      : db_(db),
        live_(db->tree().num_nodes()),
        capacity_(options.quarantine_capacity),
        trace_(options.trace),
        m_(metrics) {
    // The producer thread never installs a trace scope; rejects are
    // recorded into this dedicated ring. Push is single-producer, so the
    // single-writer contract holds.
    if (trace_ != nullptr) producer_log_ = trace_->RegisterThread("producer");
    for (int v = 0; v < db->tree().num_nodes(); ++v) {
      const Relation& rel = db->relation(v);
      for (size_t row = 0; row < rel.num_rows(); ++row) {
        uint64_t h = kHashSeed;
        for (int a = 0; a < rel.num_attrs(); ++a) {
          h = HashValue(h, rel.AsDouble(row, a));
        }
        h = Clamp(h);
        if (db->sign(v, row) > 0) {
          live_[v][h]++;
        } else if (uint32_t* cnt = live_[v].Find(h)) {
          if (*cnt > 0) --*cnt;
        }
      }
    }
  }

  // Checks `batch`. On rejection the batch is counted and quarantined, and
  // the returned status says why.
  Status Check(const UpdateBatch& batch, CheckResult* out) {
    Status st = CheckRows(batch, out);
    if (st.ok()) return st;
    m_->rejected_batches->Inc();
    m_->rejected_rows->Inc(static_cast<double>(batch.rows.size()));
    if (producer_log_ != nullptr) {
      const uint64_t now = trace_->NowNs();
      producer_log_->Record("quarantine", "ingress", /*epoch=*/-1, batch.node,
                            now, now);
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (quarantine_.size() >= capacity_) {
      (void)RELBORG_FAULT("stream/quarantine-full");  // observation only
      m_->quarantine_dropped_batches->Inc();
    } else {
      quarantine_.push_back(QuarantinedBatch{batch, st});
      m_->quarantined_batches->Inc();
    }
    return st;
  }

  // Applies an accepted batch's multiplicity effect. Call exactly once per
  // batch, only after it was handed on.
  void Account(const CheckResult& chk) {
    if (chk.node < 0) return;  // zero-row no-op batch
    FlatHashMap<uint32_t>& live = live_[chk.node];
    for (uint64_t h : chk.hashes) {
      if (chk.is_delete) {
        --live[h];  // Check proved coverage, so the count is positive
      } else {
        ++live[h];
      }
    }
  }

  // Removes and returns the quarantined batches, oldest first.
  std::vector<QuarantinedBatch> Drain() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<QuarantinedBatch> out(
        std::make_move_iterator(quarantine_.begin()),
        std::make_move_iterator(quarantine_.end()));
    quarantine_.clear();
    return out;
  }

  size_t quarantine_size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return quarantine_.size();
  }

 private:
  static constexpr uint64_t kHashSeed = 0xcbf29ce484222325ULL;

  Status CheckRows(const UpdateBatch& batch, CheckResult* out) const {
    if (batch.rows.empty()) {
      // Zero-row batches are structural no-ops that still count toward
      // epoch sealing (node -1 is their conventional encoding), so they
      // bypass the node/sign checks entirely.
      out->node = -1;
      out->is_delete = false;
      out->hashes.clear();
      return Status::Ok();
    }
    const int num_nodes = db_->tree().num_nodes();
    if (batch.node < 0 || batch.node >= num_nodes) {
      return Status::InvalidArgument("batch node id " +
                                     std::to_string(batch.node) +
                                     " out of range");
    }
    if (batch.sign != 1.0 && batch.sign != -1.0) {
      return Status::InvalidArgument("batch sign must be +1 or -1");
    }
    const Relation& rel = db_->relation(batch.node);
    const Schema& schema = rel.schema();
    const size_t arity = static_cast<size_t>(rel.num_attrs());
    out->node = batch.node;
    out->is_delete = batch.sign < 0;
    out->hashes.clear();
    out->hashes.reserve(batch.rows.size());
    for (const std::vector<double>& row : batch.rows) {
      if (row.size() != arity) {
        return Status::InvalidArgument(
            "row arity " + std::to_string(row.size()) + " does not match " +
            "schema arity " + std::to_string(arity));
      }
      uint64_t h = kHashSeed;
      for (size_t a = 0; a < arity; ++a) {
        const double v = row[a];
        if (!std::isfinite(v)) {
          return Status::InvalidArgument("non-finite value in attribute " +
                                         std::to_string(a));
        }
        if (schema.attr(static_cast<int>(a)).type == AttrType::kCategorical &&
            (v < 0 || v > 2147483647.0 || v != std::floor(v))) {
          return Status::InvalidArgument(
              "categorical attribute " + std::to_string(a) +
              " must be a non-negative int32 code");
        }
        h = HashValue(h, v);
      }
      out->hashes.push_back(Clamp(h));
    }
    if (out->is_delete && !out->hashes.empty()) {
      // Two-pass in-batch need counts: the whole batch must be coverable
      // by the CURRENT live multiset (duplicates within the batch need
      // that many live instances), so acceptance is atomic per batch.
      FlatHashMap<uint32_t> needed;
      for (uint64_t h : out->hashes) needed[h]++;
      const FlatHashMap<uint32_t>& live = live_[batch.node];
      Status st;
      needed.ForEach([&](uint64_t h, const uint32_t& n) {
        const uint32_t* cnt = live.Find(h);
        if ((cnt == nullptr ? 0u : *cnt) < n && st.ok()) {
          st = Status::InvalidArgument(
              "delete batch retracts a row with no live multiplicity");
        }
      });
      if (!st.ok()) return st;
    }
    return Status::Ok();
  }

  // FNV-1a over the value's IEEE bit pattern — exact-content identity
  // (matches the committed row exactly: categorical codes round-trip the
  // double cast bit-for-bit).
  static uint64_t HashValue(uint64_t h, double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (i * 8)) & 0xff;
      h *= 0x100000001b3ULL;
    }
    return h;
  }

  // FlatHashMap reserves ~0 as its empty sentinel.
  static uint64_t Clamp(uint64_t h) { return h == kEmptyKey ? 0 : h; }

  const ShadowDb* db_;
  std::vector<FlatHashMap<uint32_t>> live_;  // per node: content hash ->
                                             // live multiplicity
  size_t capacity_;
  obs::TraceRecorder* trace_;
  obs::trace_internal::ThreadLog* producer_log_ = nullptr;
  StreamMetrics* m_;
  mutable std::mutex mu_;  // guards quarantine_
  std::deque<QuarantinedBatch> quarantine_;
};

// Node-granular exclusion between the committer (splicing one chunk at a
// time) and the maintain side — the applier (maintaining one epoch's read
// set at a time) AND the compute thread (reading one range's relation rows
// at a time), which may hold overlapping node sets concurrently, so the
// maintain side is COUNTED per node rather than flagged. The flips run
// under one mutex, so every splice of a node happens-before any
// maintenance read of it and vice versa — the only cross-thread
// synchronization the overlapped ShadowDb needs. Deadlock-free by
// construction: neither side ever waits while holding a count the other
// side's predicate tests (the maintain side waits BEFORE raising its
// counts and never blocks other maintain-side holders; the committer holds
// busy only across one finite splice).
class CommitGate {
 public:
  explicit CommitGate(size_t num_nodes)
      : busy_(num_nodes, 0), active_(num_nodes, 0) {}

  // Committer side: blocks while any maintain-side holder is reading
  // `node`. Returns seconds spent blocked.
  double BeginCommit(int node) {
    WallTimer timer;
    std::unique_lock<std::mutex> lock(mu_);
    can_commit_.wait(lock, [&] { return active_[node] == 0; });
    busy_[node] = 1;
    return timer.Seconds();
  }

  void EndCommit(int node) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      busy_[node] = 0;
    }
    can_maintain_.notify_all();
  }

  // Applier side: blocks while the committer is splicing any node of
  // `reads` (1 = the epoch's maintenance may read that node), then locks
  // those nodes against commits. Returns seconds spent blocked.
  double BeginMaintain(const std::vector<uint8_t>& reads) {
    WallTimer timer;
    std::unique_lock<std::mutex> lock(mu_);
    can_maintain_.wait(lock, [&] {
      for (size_t v = 0; v < reads.size(); ++v) {
        if (reads[v] && busy_[v]) return false;
      }
      return true;
    });
    for (size_t v = 0; v < reads.size(); ++v) {
      if (reads[v]) ++active_[v];
    }
    return timer.Seconds();
  }

  void EndMaintain(const std::vector<uint8_t>& reads) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t v = 0; v < reads.size(); ++v) {
        if (reads[v]) --active_[v];
      }
    }
    can_commit_.notify_all();
  }

  // Compute side: same contract for a single node (the compute stage only
  // ever reads the range's own relation rows; child VIEWS are strategy
  // state guarded by the ViewGate, not ShadowDb state).
  double BeginMaintainNode(int node) {
    WallTimer timer;
    std::unique_lock<std::mutex> lock(mu_);
    can_maintain_.wait(lock, [&] { return !busy_[node]; });
    ++active_[node];
    return timer.Seconds();
  }

  void EndMaintainNode(int node) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_[node];
    }
    can_commit_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable can_commit_;
  std::condition_variable can_maintain_;
  std::vector<uint8_t> busy_;     // committer splicing this node
  std::vector<uint32_t> active_;  // maintain-side holders reading this node
};

// Per-view reader/writer exclusion between the compute thread (probing
// child views speculatively) and the applier (folding deltas into views
// during propagation). The reader acquires its whole probe set atomically
// and never waits while holding; the writer marks intent first (blocking
// new readers) and waits for that one view's readers to drain — with one
// reader party and one writer party, no cycle can form. Writer counts
// allow the coarse path-locking pattern (HigherOrderIvm locks a whole root
// path around its parallel per-maintainer propagation).
class ViewGate : public ViewWriteGate {
 public:
  explicit ViewGate(size_t num_nodes)
      : readers_(num_nodes, 0), writers_(num_nodes, 0) {}

  // Reader side: blocks until NO view of `mask` is write-locked, then
  // read-locks all of them at once. Returns seconds spent blocked.
  double BeginRead(const std::vector<uint8_t>& mask) {
    WallTimer timer;
    std::unique_lock<std::mutex> lock(mu_);
    can_read_.wait(lock, [&] {
      for (size_t v = 0; v < mask.size(); ++v) {
        if (mask[v] && writers_[v] > 0) return false;
      }
      return true;
    });
    for (size_t v = 0; v < mask.size(); ++v) {
      if (mask[v]) ++readers_[v];
    }
    return timer.Seconds();
  }

  void EndRead(const std::vector<uint8_t>& mask) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t v = 0; v < mask.size(); ++v) {
        if (mask[v]) --readers_[v];
      }
    }
    can_write_.notify_all();
  }

  // Writer side (the applier, through the ViewWriteGate interface).
  void LockView(int v) override {
    std::unique_lock<std::mutex> lock(mu_);
    ++writers_[v];  // intent first: new readers of v wait from here on
    can_write_.wait(lock, [&] { return readers_[v] == 0; });
  }

  void UnlockView(int v) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      --writers_[v];
    }
    can_read_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable can_read_;
  std::condition_variable can_write_;
  std::vector<uint32_t> readers_;
  std::vector<uint32_t> writers_;
};

// Commits every range of an epoch in canonical order: the chunk payloads
// are consumed, the range headers (node/first/rows) and watermarks stay
// for maintenance. The single-threaded commit of ReplayStream and the
// stepped pipeline; the scheduler's committer splices in the same order,
// range by range under the CommitGate.
inline void CommitEpoch(ShadowDb* shadow, StreamEpoch* epoch) {
  for (StreamRange& range : epoch->ranges) {
    shadow->CommitChunk(std::move(range.chunk));
  }
}

// Maintains one already-committed epoch, one range at a time in canonical
// order, each read bounded by the range's visibility horizon. Shared by the
// scheduler's applier thread and by ReplayStream, so both paths execute the
// exact same sequence of floating-point operations — the horizons only ever
// exclude rows that do not exist yet in the serial replay (first-order
// IVM's delta join re-enumerates the whole database, so no row may become
// visible before its own range applies, even if already committed).
template <typename Strategy>
void MaintainEpoch(Strategy* strategy, StreamEpoch* epoch) {
  for (const StreamRange& range : epoch->ranges) {
    const IngestChunk& chunk = range.chunk;
    strategy->ApplyBatch(chunk.node, chunk.first, chunk.num_rows(),
                         range.visible.data());
  }
}

// The compute stage's work on one committed epoch: per range, speculate a
// delta (recording observed child versions) unless the range's probe set
// intersects `pending_writes` (the union of the write closures of epochs
// handed downstream but not yet maintained) or an earlier range's closure
// of this same epoch; such a range is left for the applier's serial
// compute. Gates are nullable — the threaded scheduler passes both, the
// single-threaded stepper neither. Decision and output are deterministic
// given (epoch, pending_writes); only the HIT RATE at the serial point is
// timing-dependent.
template <typename Strategy>
void SpeculateEpoch(Strategy* strategy, const ShadowDb& db,
                    ComputedEpoch<Strategy, true>* ce,
                    const std::vector<uint8_t>* pending_writes,
                    CommitGate* commit_gate, ViewGate* view_gate,
                    StreamMetrics* metrics) {
  const RootedTree& tree = db.tree();
  const size_t num_nodes = static_cast<size_t>(tree.num_nodes());
  std::vector<StreamRange>& ranges = ce->epoch.ranges;
  ce->ranges.clear();
  ce->ranges.resize(ranges.size());
  // Nodes some not-yet-applied fold will write before this epoch's own
  // serial point: the in-flight epochs' write closures plus, incrementally
  // below, the closures of this epoch's earlier ranges. (A write closure
  // IS the epoch's `reads` mask — propagation writes each range node and
  // its ancestors, exactly the maintenance read set.)
  std::vector<uint8_t> conflict(num_nodes, 0);
  if (pending_writes != nullptr) conflict = *pending_writes;
  std::vector<uint8_t> probe_set(num_nodes, 0);
  for (size_t i = 0; i < ranges.size(); ++i) {
    typename ComputedEpoch<Strategy, true>::Range& cr = ce->ranges[i];
    const IngestChunk& chunk = ranges[i].chunk;
    const NodeRowRange r{chunk.node, chunk.first, chunk.num_rows()};
    std::fill(probe_set.begin(), probe_set.end(), 0);
    MarkChildren(tree, r.node, &probe_set);
    // A conflicted range's validation would miss with certainty — don't
    // burn the compute on a delta that gets thrown away.
    if (!MasksIntersect(probe_set, conflict)) {
      double waited = 0;
      if (commit_gate != nullptr) {
        waited = commit_gate->BeginMaintainNode(r.node);
      }
      if (view_gate != nullptr) waited += view_gate->BeginRead(probe_set);
      cr.delta = strategy->ComputeRangeDelta(r, &cr.observed);
      if (view_gate != nullptr) view_gate->EndRead(probe_set);
      if (commit_gate != nullptr) commit_gate->EndMaintainNode(r.node);
      cr.speculated = true;
      if (metrics != nullptr) {
        metrics->speculated_ranges->Inc();
        metrics->compute_gate_wait->Observe(waited);
      }
    }
    MarkAncestorClosure(tree, r.node, &conflict);
  }
}

// Maintains one computed epoch — the applier's work, shared by the threaded
// scheduler and its stepped twin. Without the speculative API this is
// MaintainEpoch. With it, per range: accept the precomputed delta when its
// observed child versions still hold at the serial point (version equality
// implies the child views are unchanged, so the delta is bit-identical to
// a fresh compute), else recompute serially; then propagate under the
// range's own horizon. `gate` and `metrics` are nullable.
template <typename Strategy>
void MaintainComputedEpoch(Strategy* strategy, ComputedEpoch<Strategy>* ce,
                           ViewWriteGate* gate, StreamMetrics* metrics) {
  if constexpr (!HasSpeculativeCompute<Strategy>::value) {
    MaintainEpoch(strategy, &ce->epoch);
  } else {
    std::vector<StreamRange>& ranges = ce->epoch.ranges;
    RELBORG_DCHECK(ce->ranges.size() == ranges.size());
    for (size_t i = 0; i < ranges.size(); ++i) {
      typename ComputedEpoch<Strategy>::Range& cr = ce->ranges[i];
      const IngestChunk& chunk = ranges[i].chunk;
      const NodeRowRange r{chunk.node, chunk.first, chunk.num_rows()};
      if (cr.speculated && strategy->RangeDeltaValid(cr.observed)) {
        if (metrics != nullptr) metrics->speculation_hits->Inc();
      } else {
        if (cr.speculated && metrics != nullptr) {
          metrics->speculation_misses->Inc();
        }
        cr.observed.clear();
        cr.delta = strategy->ComputeRangeDelta(r, &cr.observed);
      }
      strategy->ApplyRangeDelta(r, std::move(cr.delta),
                                ranges[i].visible.data(), gate);
    }
  }
}

}  // namespace stream_internal

/// Epoch-boundary callback for snapshot consumers (the serve layer).
///
/// OnEpochMaintained runs ON THE APPLIER THREAD, strictly between two
/// epochs' maintenance: every fold of epoch `id` has completed and no fold
/// of epoch `id + 1` has started. That makes the callback the one place
/// where strategy state may be pinned (CovarArenaView::Pin is writer-side)
/// or copied without racing a merge. `watermark` is the per-node
/// committed-row horizon of the maintained prefix — exactly the rows a
/// serial replay would have committed after epoch `id` — so a snapshot
/// taken here is epoch-consistent across every view AND the row store.
/// Implementations must be fast (the pipeline's serial stage is waiting)
/// and must not call back into the scheduler.
class StreamEpochObserver {
 public:
  virtual ~StreamEpochObserver() = default;
  virtual void OnEpochMaintained(uint64_t id,
                                 const std::vector<size_t>& watermark) = 0;
};

/// The pipeline. Construct over a ShadowDb + strategy, Push batches (blocks
/// on backpressure), then Finish() to flush, drain and join. The strategy's
/// result state (e.g. CovarFivm::Current) is valid after Finish.
///
/// FAILURE MODEL (docs/ARCHITECTURE.md, "Failure model & recovery").
/// Malformed batches are rejected at Push (quarantined, counted, the
/// pipeline keeps running); a failed STAGE — an injected fault, or a
/// checkpoint write error — latches the first failure's (stage, epoch,
/// cause), closes the ingress and drains every queue cleanly: no thread is
/// killed, no lock stays held, later batches and epochs are dropped, and
/// Finish() returns the latched Status. After a failure the ShadowDb and
/// strategy may hold a torn mid-epoch state — recover by restoring a FRESH
/// db + strategy via RestoreFromCheckpoint and replaying the stream tail.
///
/// THREAD SAFETY: Push/TryPush are single-producer (one caller thread).
/// Finish may be called from the producer thread (idempotent).
/// SetEpochObserver and the BeginViewRead/EndViewRead gate pair are safe
/// from any thread while the pipeline is live — they exist for the serve
/// layer's concurrent snapshot readers (serve/snapshot_server.h).
template <typename Strategy>
class StreamScheduler {
 public:
  // `resume` (optional) seeds the structural cursor from a checkpoint
  // restored into `shadow` + `strategy` (see RestoreFromCheckpoint): epoch
  // numbering, cumulative stats and the maintained watermark continue
  // exactly where the checkpointed run stood, so replaying the stream tail
  // reproduces the uninterrupted run bit for bit.
  StreamScheduler(ShadowDb* shadow, Strategy* strategy,
                  const StreamOptions& options = {},
                  const StreamCheckpointInfo* resume = nullptr)
      : shadow_(shadow),
        strategy_(strategy),
        options_(options),
        assembler_(shadow, options),
        ingress_(options.max_queued_rows),
        sealed_(options.max_queued_epochs),
        committed_(options.max_queued_epochs),
        computed_(options.max_queued_epochs),
        gate_(shadow->tree().num_nodes()),
        view_gate_(shadow->tree().num_nodes()),
        all_reads_(shadow->tree().num_nodes(), 1),
        maintained_watermark_(shadow->tree().num_nodes(), 0),
        owned_registry_(options.metrics != nullptr
                            ? nullptr
                            : new obs::MetricsRegistry()),
        registry_(options.metrics != nullptr ? options.metrics
                                             : owned_registry_.get()),
        m_(stream_internal::StreamMetrics::Register(registry_)) {
    if (options_.validate_ingress) {
      validator_ = std::make_unique<stream_internal::BatchValidator>(
          shadow, options_, &m_);
    }
    if (resume != nullptr) {
      m_.batches->Inc(static_cast<double>(resume->batches));
      m_.rows->Inc(static_cast<double>(resume->rows));
      m_.epochs->Inc(static_cast<double>(resume->epochs));
      m_.ranges->Inc(static_cast<double>(resume->ranges));
      cum_batches_ = resume->batches;
      cum_rows_ = resume->rows;
      maintained_epochs_.store(resume->epochs, std::memory_order_relaxed);
      maintained_watermark_ = resume->watermark;
      maintained_watermark_.resize(shadow->tree().num_nodes(), 0);
      assembler_.ResumeAt(resume->epochs);
    }
    assemble_thread_ = std::thread([this] { AssembleLoop(); });
    commit_thread_ = std::thread([this] { CommitLoop(); });
    compute_thread_ = std::thread([this] { ComputeLoop(); });
    apply_thread_ = std::thread([this] { ApplyLoop(); });
    if (options_.stall_timeout_seconds > 0) {
      watchdog_thread_ = std::thread([this] { WatchdogLoop(); });
    }
  }

  ~StreamScheduler() {
    if (!finished_) Finish();
  }

  StreamScheduler(const StreamScheduler&) = delete;
  StreamScheduler& operator=(const StreamScheduler&) = delete;

  // Enqueues one batch; blocks while the ingress queue is full. Zero-row
  // batches flow through (they count toward epoch sealing, like in
  // ReplayStream) but still weigh one row, so a flood of empty batches
  // hits backpressure instead of growing the queue without bound.
  //
  // Never aborts on bad input or misuse: a batch that fails validation is
  // quarantined and reported (kInvalidArgument; the pipeline keeps
  // processing later batches), a Push after Finish or after a pipeline
  // failure is dropped and reported (kFailedPrecondition / the failure's
  // status), both counted in StreamStats.
  Status Push(UpdateBatch batch) {
    return PushImpl(std::move(batch), /*timeout=*/nullptr);
  }

  // Bounded-wait Push: fails with kDeadlineExceeded (batch dropped,
  // counted in try_push_timeouts) instead of blocking past `timeout` when
  // the ingress queue stays full — producers that cannot stall get a
  // bounded handoff instead of unbounded backpressure.
  Status TryPush(UpdateBatch batch, std::chrono::nanoseconds timeout) {
    return PushImpl(std::move(batch), &timeout);
  }

  // Flushes the partial epoch, drains the pipeline, joins the worker
  // threads and reports the run's stats through *stats_out (optional).
  // Returns OK for a clean run, or the FIRST stage failure — naming the
  // stage and epoch — when the pipeline degraded. Idempotent.
  Status Finish(StreamStats* stats_out = nullptr) {
    if (!finished_) {
      finished_ = true;
      ingress_.Close();
      assemble_thread_.join();
      commit_thread_.join();
      compute_thread_.join();
      apply_thread_.join();
      if (watchdog_thread_.joinable()) {
        {
          std::lock_guard<std::mutex> lock(watchdog_mu_);
          watchdog_stop_ = true;
        }
        watchdog_cv_.notify_all();
        watchdog_thread_.join();
      }
      m_.ingress_high_water->Set(
          static_cast<double>(ingress_.high_water()));
      m_.epoch_queue_high_water->Set(static_cast<double>(
          std::max({sealed_.high_water(), committed_.high_water(),
                    computed_.high_water()})));
    }
    if (stats_out != nullptr) *stats_out = m_.Derive();
    return status();
  }

  /// The pipeline's metrics registry: the scheduler's own instruments plus
  /// anything else registered into it (the serve layer when it shares the
  /// registry via StreamOptions::metrics). Safe from any thread while the
  /// pipeline is live — every instrument is atomic.
  obs::MetricsRegistry& metrics() { return *registry_; }
  const obs::MetricsRegistry& metrics() const { return *registry_; }

  /// Prometheus-style text exposition of metrics(). Safe from any thread.
  std::string MetricsText() const { return registry_->ExpositionText(); }

  /// Live StreamStats snapshot derived from the registry (Finish reports
  /// the same projection after the final gauges are set). Safe from any
  /// thread; timing fields may be mid-epoch while the pipeline runs.
  StreamStats DeriveStats() const { return m_.Derive(); }

  /// The trace recorder this pipeline records into (null = tracing off).
  obs::TraceRecorder* trace() const { return options_.trace; }

  /// The first stage failure so far (OK while the pipeline is healthy).
  /// Safe from any thread.
  Status status() const {
    std::lock_guard<std::mutex> lock(fail_mu_);
    return fail_status_;
  }

  /// Removes and returns the quarantined batches accumulated so far (their
  /// rejection Status attached), oldest first. Safe from any thread.
  std::vector<QuarantinedBatch> DrainQuarantine() {
    if (validator_ == nullptr) return {};
    return validator_->Drain();
  }

  size_t quarantine_size() const {
    return validator_ == nullptr ? 0 : validator_->quarantine_size();
  }

  // Restores checkpointed state written by a scheduler with the same
  // Strategy over the same catalog: the ShadowDb prefix into `shadow`
  // (which must be fresh) and the view state into `strategy` (freshly
  // constructed). On OK, *info holds the structural cursor — pass it as
  // the `resume` constructor argument and re-push the stream from batch
  // index info->batches. kNotFound means no checkpoint exists (start from
  // scratch); kDataLoss/kInvalidArgument mean the file is unusable.
  static Status RestoreFromCheckpoint(const std::string& path,
                                      ShadowDb* shadow, Strategy* strategy,
                                      StreamCheckpointInfo* info) {
    std::vector<uint8_t> payload;
    Status st = ReadCheckpointFile(path, &payload);
    if (!st.ok()) return st;
    ByteSource src(payload.data(), payload.size());
    *info = DeserializeStreamCheckpointInfo(&src);
    if (!src.ok()) {
      return Status::DataLoss("truncated checkpoint header payload");
    }
    st = RestoreShadowDbPrefix(&src, shadow);
    if (!st.ok()) return st;
    if (src.U32() != Strategy::kCheckpointTag) {
      return Status::InvalidArgument(
          "checkpoint was written by a different IVM strategy");
    }
    st = strategy->LoadCheckpoint(&src);
    if (!st.ok()) return st;
    if (!src.Exhausted()) {
      return Status::DataLoss("checkpoint payload has trailing bytes");
    }
    return Status::Ok();
  }

  /// Registers (or, with nullptr, clears) the epoch observer. Safe from
  /// any thread at any time: the swap and the applier's callback share one
  /// mutex, so after SetEpochObserver(nullptr) returns, no callback is in
  /// flight and none will start — an observer may be destroyed right
  /// after clearing itself. Epochs maintained before registration are not
  /// replayed; register before the first Push to observe every epoch.
  void SetEpochObserver(StreamEpochObserver* observer) {
    std::lock_guard<std::mutex> lock(observer_mu_);
    observer_ = observer;
  }

  /// Read-locks every view of `mask` (1 = lock) for an external snapshot
  /// reader, all-or-nothing; returns seconds spent blocked. Safe from any
  /// client thread. Readers block only a fold into one of the masked views
  /// (and are blocked by one) — never the committer, the compute stage, or
  /// other readers. Callers must not block or wait on pipeline progress
  /// while holding the lock, and must pair every BeginViewRead with one
  /// EndViewRead of the same mask.
  double BeginViewRead(const std::vector<uint8_t>& mask) {
    return view_gate_.BeginRead(mask);
  }

  void EndViewRead(const std::vector<uint8_t>& mask) {
    view_gate_.EndRead(mask);
  }

 private:
  // Shared Push/TryPush path. Validation runs in two phases: the read-only
  // Check BEFORE the enqueue attempt, the multiset Account only AFTER a
  // successful enqueue — a batch that times out in TryPush leaves the
  // validator state untouched, so a later retry of the same batch is
  // judged identically.
  Status PushImpl(UpdateBatch batch, const std::chrono::nanoseconds* timeout) {
    if (finished_) {
      m_.dropped_batches->Inc();
      return Status::FailedPrecondition("Push after Finish: batch dropped");
    }
    stream_internal::BatchValidator::CheckResult chk;
    if (validator_ != nullptr) {
      Status st = validator_->Check(batch, &chk);
      if (!st.ok()) return st;
    }
    const size_t weight = std::max<size_t>(batch.rows.size(), 1);
    if (timeout != nullptr) {
      using Channel = stream_internal::BoundedChannel<UpdateBatch>;
      switch (ingress_.TryPush(&batch, weight, *timeout)) {
        case Channel::TryPushResult::kTimeout:
          m_.try_push_timeouts->Inc();
          return Status::DeadlineExceeded(
              "TryPush deadline expired: batch dropped");
        case Channel::TryPushResult::kClosed:
          return ClosedStatus();
        case Channel::TryPushResult::kOk:
          break;
      }
    } else if (!ingress_.Push(std::move(batch), weight)) {
      return ClosedStatus();
    }
    if (validator_ != nullptr) validator_->Account(chk);
    return Status::Ok();
  }

  // Push found the ingress closed mid-run: a stage failed (report its
  // status) — Close() only ever happens from Fail or Finish, and finished_
  // was checked above.
  Status ClosedStatus() {
    m_.dropped_batches->Inc();
    Status st = status();
    if (!st.ok()) return st;
    return Status::FailedPrecondition("stream pipeline closed: batch dropped");
  }

  // Latches the FIRST stage failure (later ones lose the race and are
  // dropped with their epochs), closes the ingress so the producer learns
  // immediately, and flips the drain flag every stage checks: queued work
  // keeps flowing through the channels but is no longer processed, so all
  // four threads wind down through the normal close cascade with no lock
  // held and no thread killed.
  void Fail(const char* stage, uint64_t epoch_id, const Status& cause) {
    // Stage threads carry a trace scope; the failure lands in their ring.
    RELBORG_TRACE_INSTANT("stage-failure", "fault",
                          static_cast<int64_t>(epoch_id), -1);
    {
      std::lock_guard<std::mutex> lock(fail_mu_);
      if (fail_status_.ok()) {
        fail_status_ =
            Status(cause.code(), std::string("stage ") + stage +
                                     " failed at epoch " +
                                     std::to_string(epoch_id) + ": " +
                                     cause.message());
      }
    }
    failed_.store(true, std::memory_order_release);
    ingress_.Close();
  }

  bool Failed() const { return failed_.load(std::memory_order_acquire); }

  // Stage progress heartbeat for the stall watchdog.
  void Progress() { progress_.fetch_add(1, std::memory_order_relaxed); }

  void AssembleLoop() {
    obs::ThreadTraceScope trace_scope(options_.trace, "assemble");
    UpdateBatch batch;
    StreamEpoch epoch;
    while (ingress_.Pop(&batch)) {
      if (Failed()) continue;  // drain: drop without assembling
      obs::TraceSpan span("assemble", "stage");
      m_.batches->Inc();
      m_.rows->Inc(static_cast<double>(batch.rows.size()));
      if (assembler_.Add(std::move(batch), &epoch)) {
        span.set_epoch(static_cast<int64_t>(epoch.id));
        sealed_.Push(std::move(epoch));
        epoch = StreamEpoch();
      }
      Progress();
    }
    if (!Failed() && assembler_.Flush(&epoch)) sealed_.Push(std::move(epoch));
    sealed_.Close();
  }

  void CommitLoop() {
    obs::ThreadTraceScope trace_scope(options_.trace, "commit");
    StreamEpoch epoch;
    while (sealed_.Pop(&epoch)) {
      if (Failed()) continue;  // drain: drop without committing
      obs::TraceSpan span("commit", "stage", static_cast<int64_t>(epoch.id));
      WallTimer timer;
      double waited = 0;
      bool faulted = false;
      // Per-RANGE commit with a fault site before each splice: an injected
      // fault here leaves the ShadowDb genuinely torn mid-epoch (earlier
      // ranges spliced, later ones lost) — exactly the state a real crash
      // leaves, which recovery must discard by restoring into a fresh db.
      for (StreamRange& range : epoch.ranges) {
        if (RELBORG_FAULT("stream/pre-commit-chunk")) {
          Fail("commit", epoch.id,
               Status::Aborted("injected fault at stream/pre-commit-chunk"));
          faulted = true;
          break;
        }
        const int node = range.chunk.node;
        waited += gate_.BeginCommit(node);
        shadow_->CommitChunk(std::move(range.chunk));
        gate_.EndCommit(node);
      }
      m_.commit_gate_wait->Observe(waited);
      m_.commit_seconds->Observe(timer.Seconds() - waited);
      if (faulted) continue;  // epoch dropped mid-commit
      // Observability: how far commits ran ahead of maintenance (the
      // applier publishes the count of maintained epochs; relaxed reads are
      // fine for a gauge).
      const uint64_t maintained =
          maintained_epochs_.load(std::memory_order_relaxed);
      m_.commit_ahead_max->SetMax(
          static_cast<double>(epoch.id + 1 - maintained));
      span.End();
      committed_.Push(std::move(epoch));
      Progress();
    }
    committed_.Close();
  }

  using ComputedEpoch = stream_internal::ComputedEpoch<Strategy>;

  // True when the strategy has the speculative per-range API; the compute
  // stage forwards every other strategy's epochs untouched.
  static constexpr bool kSpec =
      stream_internal::HasSpeculativeCompute<Strategy>::value;

  void ComputeLoop() {
    obs::ThreadTraceScope trace_scope(options_.trace, "compute");
    // Epochs handed downstream but not yet maintained — their write
    // closures are the conflict set for new speculations. Pruned by the
    // applier's published epoch count: the acquire load pairs with the
    // release store in ApplyLoop, so once an epoch counts as maintained,
    // its folds (and version bumps) are visible here too.
    std::deque<std::pair<uint64_t, std::vector<uint8_t>>> pending;
    std::vector<uint8_t> pending_mask;
    StreamEpoch epoch;
    while (committed_.Pop(&epoch)) {
      if (Failed()) continue;  // drain: drop without computing
      ComputedEpoch ce;
      ce.epoch = std::move(epoch);
      if constexpr (kSpec) {
        if (RELBORG_FAULT("stream/pre-compute-range")) {
          Fail("compute", ce.epoch.id,
               Status::Aborted("injected fault at stream/pre-compute-range"));
          continue;
        }
        obs::TraceSpan span("compute", "stage",
                            static_cast<int64_t>(ce.epoch.id));
        WallTimer timer;
        const uint64_t maintained =
            maintained_epochs_.load(std::memory_order_acquire);
        while (!pending.empty() && pending.front().first < maintained) {
          pending.pop_front();
        }
        m_.compute_overlap_max->SetMax(
            static_cast<double>(ce.epoch.id + 1 - maintained));
        pending_mask.assign(all_reads_.size(), 0);
        for (const auto& [id, reads] : pending) {
          for (size_t v = 0; v < reads.size(); ++v) {
            pending_mask[v] |= reads[v];
          }
        }
        const double waited_before = m_.compute_gate_wait->Sum();
        stream_internal::SpeculateEpoch(
            strategy_, *shadow_, &ce, &pending_mask, &gate_, &view_gate_, &m_);
        pending.emplace_back(ce.epoch.id, ce.epoch.reads);
        m_.compute_seconds->Observe(
            timer.Seconds() - (m_.compute_gate_wait->Sum() - waited_before));
      }
      computed_.Push(std::move(ce));
      Progress();
    }
    computed_.Close();
  }

  void ApplyLoop() {
    obs::ThreadTraceScope trace_scope(options_.trace, "apply");
    ComputedEpoch ce;
    while (computed_.Pop(&ce)) {
      if (Failed()) continue;  // drain: drop without maintaining
      StreamEpoch& epoch = ce.epoch;
      m_.epochs->Inc();
      m_.ranges->Inc(static_cast<double>(epoch.ranges.size()));
      cum_batches_ += epoch.batches;
      cum_rows_ += epoch.rows;
      if (RELBORG_FAULT("stream/pre-publish-merge")) {
        Fail("apply", epoch.id,
             Status::Aborted("injected fault at stream/pre-publish-merge"));
        continue;
      }
      obs::TraceSpan apply_span("apply", "stage",
                                static_cast<int64_t>(epoch.id));
      WallTimer timer;
      // A speculative strategy maintains a range by reading only its node
      // and ancestors (SpeculateEpoch relies on the same closure); the
      // others may read any node.
      const std::vector<uint8_t>& reads = kSpec ? epoch.reads : all_reads_;
      m_.maintain_gate_wait->Observe(gate_.BeginMaintain(reads));
      stream_internal::MaintainComputedEpoch(strategy_, &ce, &view_gate_, &m_);
      gate_.EndMaintain(reads);
      // Release pairs with ComputeLoop's acquire: an epoch observed as
      // maintained has all its folds and version bumps visible.
      maintained_epochs_.store(epoch.id + 1, std::memory_order_release);
      // Snapshot-horizon export: the per-node watermark after this epoch's
      // last commit IS the serial replay's committed state at this epoch
      // boundary (zero-range epochs leave it unchanged). The observer runs
      // between epochs on this (the applier) thread — the only point where
      // pinning strategy views cannot race a fold.
      if (!epoch.ranges.empty()) {
        maintained_watermark_ = epoch.ranges.back().visible;
      }
      {
        std::lock_guard<std::mutex> lock(observer_mu_);
        if (observer_ != nullptr) {
          observer_->OnEpochMaintained(epoch.id, maintained_watermark_);
        }
      }
      m_.apply_seconds->Observe(timer.Seconds());
      apply_span.End();
      const double latency =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        epoch.sealed_at)
              .count();
      m_.epoch_latency->Observe(latency);
      m_.epoch_latency_max->SetMax(latency);
      Progress();
      MaybeCheckpoint(epoch.id);
    }
  }

  // Runs on the applier thread right after epoch `epoch_id` was maintained
  // and (for CovarFivm) published. The snapshot it writes is the exact
  // state a serial replay of the first cum_batches_ source batches
  // produces: committed ShadowDb prefix up to the maintained watermark,
  // plus each strategy's accumulator payload serialized byte-exact (FP
  // folds are never recomputed at restore — summation order would differ).
  void MaybeCheckpoint(uint64_t epoch_id) {
    if (options_.checkpoint.path.empty() ||
        options_.checkpoint.every_epochs == 0) {
      return;
    }
    if ((epoch_id + 1) % options_.checkpoint.every_epochs != 0) return;
    if (RELBORG_FAULT("stream/pre-checkpoint-write")) {
      Fail("checkpoint", epoch_id,
           Status::Aborted("injected fault at stream/pre-checkpoint-write"));
      return;
    }
    obs::TraceSpan span("checkpoint", "checkpoint",
                        static_cast<int64_t>(epoch_id));
    WallTimer timer;
    ByteSink sink;
    StreamCheckpointInfo info;
    info.epochs = epoch_id + 1;
    info.batches = cum_batches_;
    info.rows = cum_rows_;
    info.ranges = static_cast<size_t>(m_.ranges->Value());
    info.watermark = maintained_watermark_;
    SerializeStreamCheckpointInfo(info, &sink);
    // The committer may be splicing FUTURE epochs into the ShadowDb right
    // now (column appends can reallocate), so take the maintain side of the
    // gate across the prefix serialization. Safe against self-deadlock:
    // BeginMaintain waits only on busy_ committers, never on other
    // maintain-side holders (the compute thread's node holds don't block
    // us, and we hold nothing yet).
    m_.maintain_gate_wait->Observe(gate_.BeginMaintain(all_reads_));
    SerializeShadowDbPrefix(*shadow_, maintained_watermark_, &sink);
    gate_.EndMaintain(all_reads_);
    sink.U32(Strategy::kCheckpointTag);
    strategy_->SaveCheckpoint(&sink);
    size_t bytes = 0;
    Status st = WriteCheckpointFile(options_.checkpoint.path, sink,
                                    options_.checkpoint.fsync, &bytes);
    if (!st.ok()) {
      Fail("checkpoint", epoch_id, st);
      return;
    }
    m_.checkpoint_bytes->Inc(static_cast<double>(bytes));
    m_.checkpoint_write->Observe(timer.Seconds());
  }

  // Stall watchdog (own thread, only when options_.stall_timeout_seconds
  // > 0): wakes every interval; if no stage made progress since the last
  // wake AND work is queued, emits ONE structured `stream.stall` record to
  // stderr — queue depths, maintained epochs, per-node committed-row
  // watermarks and the trace tail, formatted atomically so concurrent
  // stalls never interleave — and bumps the stall counter. Purely
  // diagnostic: it never unblocks or kills anything.
  void WatchdogLoop() {
    obs::ThreadTraceScope trace_scope(options_.trace, "watchdog");
    const auto interval = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::duration<double>(options_.stall_timeout_seconds));
    std::unique_lock<std::mutex> lock(watchdog_mu_);
    uint64_t last = progress_.load(std::memory_order_relaxed);
    while (!watchdog_stop_) {
      watchdog_cv_.wait_for(lock, interval, [&] { return watchdog_stop_; });
      if (watchdog_stop_) break;
      const uint64_t now = progress_.load(std::memory_order_relaxed);
      if (now != last) {
        last = now;
        continue;
      }
      const size_t qi = ingress_.size();
      const size_t qs = sealed_.size();
      const size_t qc = committed_.size();
      const size_t qx = computed_.size();
      if (qi + qs + qc + qx == 0 || Failed()) continue;  // idle or draining
      m_.watchdog_stalls->Inc();
      RELBORG_TRACE_INSTANT("stall", "watchdog", -1, -1);
      obs::StructuredEvent ev("stream.stall");
      ev.Add("no_progress_s", options_.stall_timeout_seconds)
          .Add("ingress", static_cast<uint64_t>(qi))
          .Add("sealed", static_cast<uint64_t>(qs))
          .Add("committed", static_cast<uint64_t>(qc))
          .Add("computed", static_cast<uint64_t>(qx))
          .Add("maintained_epochs",
               static_cast<uint64_t>(
                   maintained_epochs_.load(std::memory_order_relaxed)));
      std::string watermarks;
      char buf[64];
      for (int v = 0; v < shadow_->tree().num_nodes(); ++v) {
        std::snprintf(buf, sizeof(buf), "    node %d committed_rows=%zu\n", v,
                      shadow_->committed_rows(v));
        watermarks += buf;
      }
      ev.Detail("watermarks", watermarks);
      if (options_.trace != nullptr) {
        // Tolerated-racy read of the most recent spans across all rings.
        ev.Detail("trace_tail", options_.trace->TailString(16));
      }
      ev.EmitToStderr();
    }
  }

  ShadowDb* shadow_;
  Strategy* strategy_;
  StreamOptions options_;
  EpochAssembler assembler_;  // assemble thread only (after construction)
  // Ingress validation and quarantine (producer thread; the quarantine is
  // drainable from any thread). Null when validate_ingress is off.
  std::unique_ptr<stream_internal::BatchValidator> validator_;
  stream_internal::BoundedChannel<UpdateBatch> ingress_;
  stream_internal::BoundedChannel<StreamEpoch> sealed_;
  stream_internal::BoundedChannel<StreamEpoch> committed_;
  stream_internal::BoundedChannel<ComputedEpoch> computed_;
  stream_internal::CommitGate gate_;
  stream_internal::ViewGate view_gate_;
  const std::vector<uint8_t> all_reads_;  // whole-db read set (all ones)
  std::atomic<uint64_t> maintained_epochs_{0};
  // Applier-thread state: per-node committed-row horizon of the maintained
  // epoch prefix, exported to the observer at each epoch boundary.
  std::vector<size_t> maintained_watermark_;
  // Guards observer_ against SetEpochObserver from other threads; held
  // across each callback so clearing the observer synchronizes with any
  // in-flight call.
  std::mutex observer_mu_;
  StreamEpochObserver* observer_ = nullptr;
  // Metrics: every instrument is atomic, so the old per-thread stats
  // partitioning is no longer load-bearing — but each instrument still has
  // a single writer thread (same partitioning as before), which keeps the
  // floating-point sums in one deterministic accumulation order. The
  // registry is owned unless StreamOptions::metrics supplied an external
  // one; StreamStats is derived from it (StreamMetrics::Derive), never
  // maintained separately.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_;
  stream_internal::StreamMetrics m_;
  // Applier-thread cumulative batch/row counters (seeded from `resume`):
  // the checkpoint's replay cursor — the stream prefix it captures is
  // exactly the first cum_batches_ source batches.
  size_t cum_batches_ = 0;
  size_t cum_rows_ = 0;
  // Degradation state: failed_ is the drain flag every stage polls;
  // fail_status_ (first failure wins) is what Finish/status report.
  std::atomic<bool> failed_{false};
  mutable std::mutex fail_mu_;
  Status fail_status_;
  // Stall watchdog state. progress_ is bumped by every stage on every
  // item; the watchdog compares successive samples.
  std::atomic<uint64_t> progress_{0};
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;  // guarded by watchdog_mu_
  std::thread assemble_thread_;
  std::thread commit_thread_;
  std::thread compute_thread_;
  std::thread apply_thread_;
  std::thread watchdog_thread_;
  bool finished_ = false;
};

// Streams `stream` through an async scheduler and finishes. The common
// entry point the IVM strategies share. With `status` non-null it receives
// the run's degradation status: a pipeline stage failure if one occurred,
// else the first push rejection (quarantined batch), else OK — the stream
// is always driven to completion either way.
template <typename Strategy>
StreamStats ApplyStream(ShadowDb* shadow, Strategy* strategy,
                        const std::vector<UpdateBatch>& stream,
                        const StreamOptions& options = {},
                        Status* status = nullptr) {
  StreamScheduler<Strategy> scheduler(shadow, strategy, options);
  Status first_reject = Status::Ok();
  for (const UpdateBatch& batch : stream) {
    Status st = scheduler.Push(batch);
    if (!st.ok() && first_reject.ok()) first_reject = st;
  }
  StreamStats stats;
  Status finish = scheduler.Finish(&stats);
  if (status != nullptr) *status = !finish.ok() ? finish : first_reject;
  return stats;
}

// Serial reference: the same epochs committed and maintained on the
// caller's thread with no queues or worker threads. StreamScheduler
// results are bit-identical to this for any thread count and any commit
// run-ahead; with options.epoch_batches == 1 this is in turn bit-identical
// to the classic append-then-ApplyBatch loop.
template <typename Strategy>
StreamStats ReplayStream(ShadowDb* shadow, Strategy* strategy,
                         const std::vector<UpdateBatch>& stream,
                         const StreamOptions& options = {}) {
  EpochAssembler assembler(shadow, options);
  StreamStats stats;
  StreamEpoch epoch;
  auto apply = [&] {
    WallTimer timer;
    stats.epochs++;
    stats.ranges += epoch.ranges.size();
    stream_internal::CommitEpoch(shadow, &epoch);
    stream_internal::MaintainEpoch(strategy, &epoch);
    stats.apply_seconds += timer.Seconds();
    epoch = StreamEpoch();
  };
  for (const UpdateBatch& batch : stream) {
    stats.batches++;
    stats.rows += batch.rows.size();
    if (assembler.Add(batch, &epoch)) apply();
  }
  if (assembler.Flush(&epoch)) apply();
  return stats;
}

// One stage advancement of the step-driven pipeline below.
enum class PipelineStep { kAssemble, kCommit, kCompute, kApply };

// Single-threaded, step-driven twin of StreamScheduler: the same stages,
// queues, caps and maintenance code paths, advanced one explicit stage
// step at a time with no threads and no gates. A successful step appends
// one letter to the trace (A = feed batches until an epoch seals, C =
// commit one epoch, X = compute/speculate one epoch, M = maintain one
// epoch); a step that cannot make progress (empty input or full output
// queue) returns false and changes nothing. Step is a deterministic
// function of the current state, so replaying a recorded trace against a
// fresh pipeline with the same (stream, options) reproduces the schedule
// EXACTLY — the stress suite drives random traces, dumps the trace on
// failure, and any interleaving the threaded scheduler can produce
// (modulo gate timing, which never affects what is computed) corresponds
// to some trace here. Results are bit-identical to ReplayStream for every
// valid trace.
template <typename Strategy>
class SteppedStreamPipeline {
  using Computed = stream_internal::ComputedEpoch<Strategy>;
  static constexpr bool kSpec =
      stream_internal::HasSpeculativeCompute<Strategy>::value;

 public:
  SteppedStreamPipeline(ShadowDb* shadow, Strategy* strategy,
                        std::vector<UpdateBatch> stream,
                        const StreamOptions& options = {})
      : shadow_(shadow),
        strategy_(strategy),
        depth_(std::max<size_t>(1, options.max_queued_epochs)),
        assembler_(shadow, options),
        stream_(std::move(stream)),
        m_(stream_internal::StreamMetrics::Register(&registry_)) {}

  // Attempts one step; true iff the stage made progress.
  bool Step(PipelineStep step) {
    bool progressed = false;
    switch (step) {
      case PipelineStep::kAssemble:
        progressed = StepAssemble();
        break;
      case PipelineStep::kCommit:
        progressed = StepCommit();
        break;
      case PipelineStep::kCompute:
        progressed = StepCompute();
        break;
      case PipelineStep::kApply:
        progressed = StepApply();
        break;
    }
    if (progressed) trace_.push_back(StepLetter(step));
    return progressed;
  }

  // Round-robins the stages until everything is drained. Always
  // terminates: whenever the pipeline is not drained, at least one stage
  // can progress (a full queue always has a non-full consumer downstream).
  void Drain() {
    static constexpr PipelineStep kAll[] = {
        PipelineStep::kAssemble, PipelineStep::kCommit, PipelineStep::kCompute,
        PipelineStep::kApply};
    bool any = true;
    while (any) {
      any = false;
      for (PipelineStep s : kAll) any = Step(s) || any;
    }
    RELBORG_CHECK(drained());
  }

  bool drained() const {
    return next_batch_ >= stream_.size() && flushed_ && sealed_.empty() &&
           committed_.empty() && computed_.empty();
  }

  static char StepLetter(PipelineStep step) {
    switch (step) {
      case PipelineStep::kAssemble:
        return 'A';
      case PipelineStep::kCommit:
        return 'C';
      case PipelineStep::kCompute:
        return 'X';
      case PipelineStep::kApply:
        return 'M';
    }
    return '?';
  }

  // The successful steps taken so far, in order.
  const std::string& trace() const { return trace_; }
  // Derived from the pipeline's private registry, like the threaded
  // scheduler's Finish (by value: the projection is computed on demand).
  StreamStats stats() const { return m_.Derive(); }
  obs::MetricsRegistry& metrics() { return registry_; }

 private:
  bool StepAssemble() {
    if (sealed_.size() >= depth_) return false;
    if (next_batch_ >= stream_.size() && flushed_) return false;
    StreamEpoch epoch;
    while (next_batch_ < stream_.size()) {
      UpdateBatch batch = stream_[next_batch_++];
      m_.batches->Inc();
      m_.rows->Inc(static_cast<double>(batch.rows.size()));
      if (assembler_.Add(std::move(batch), &epoch)) {
        sealed_.push_back(std::move(epoch));
        return true;
      }
    }
    flushed_ = true;
    if (assembler_.Flush(&epoch)) sealed_.push_back(std::move(epoch));
    return true;  // consumed the tail (and possibly sealed the flush epoch)
  }

  bool StepCommit() {
    if (sealed_.empty() || committed_.size() >= depth_) return false;
    StreamEpoch epoch = std::move(sealed_.front());
    sealed_.pop_front();
    stream_internal::CommitEpoch(shadow_, &epoch);
    committed_.push_back(std::move(epoch));
    return true;
  }

  bool StepCompute() {
    if (committed_.empty() || computed_.size() >= depth_) return false;
    Computed ce;
    ce.epoch = std::move(committed_.front());
    committed_.pop_front();
    if constexpr (kSpec) {
      // In-flight here is precisely the computed queue: epochs past the
      // compute stage, not yet maintained.
      std::vector<uint8_t> pending(ce.epoch.reads.size(), 0);
      for (const Computed& p : computed_) {
        for (size_t v = 0; v < p.epoch.reads.size(); ++v) {
          pending[v] |= p.epoch.reads[v];
        }
      }
      m_.compute_overlap_max->SetMax(
          static_cast<double>(ce.epoch.id + 1 - applied_epochs_));
      stream_internal::SpeculateEpoch(strategy_, *shadow_, &ce, &pending,
                                      /*commit_gate=*/nullptr,
                                      /*view_gate=*/nullptr, &m_);
    }
    computed_.push_back(std::move(ce));
    return true;
  }

  bool StepApply() {
    if (computed_.empty()) return false;
    Computed ce = std::move(computed_.front());
    computed_.pop_front();
    m_.epochs->Inc();
    m_.ranges->Inc(static_cast<double>(ce.epoch.ranges.size()));
    stream_internal::MaintainComputedEpoch(strategy_, &ce, /*gate=*/nullptr,
                                           &m_);
    applied_epochs_ = ce.epoch.id + 1;
    return true;
  }

  ShadowDb* shadow_;
  Strategy* strategy_;
  // Every epoch queue's capacity, clamped like BoundedChannel's.
  size_t depth_;
  EpochAssembler assembler_;
  std::vector<UpdateBatch> stream_;
  size_t next_batch_ = 0;
  bool flushed_ = false;
  std::deque<StreamEpoch> sealed_;
  std::deque<StreamEpoch> committed_;
  std::deque<Computed> computed_;
  uint64_t applied_epochs_ = 0;
  obs::MetricsRegistry registry_;
  stream_internal::StreamMetrics m_;
  std::string trace_;
};

}  // namespace relborg

#endif  // RELBORG_STREAM_STREAM_SCHEDULER_H_
