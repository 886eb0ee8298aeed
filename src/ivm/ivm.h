// The three IVM strategies compared in Fig. 4 (right):
//
//  * CovarFivm       — F-IVM: one factorized view tree with the compound
//                      covariance ring; maintenance shared across the
//                      whole aggregate batch.
//  * HigherOrderIvm  — delta processing WITH intermediate views but WITHOUT
//                      cross-aggregate sharing: one scalar view tree per
//                      aggregate of the batch ((n+1)(n+2)/2 of them).
//  * FirstOrderIvm   — classical delta processing: no intermediate views;
//                      each insert batch joins the delta with all other
//                      full relations and folds every delta-join tuple into
//                      the running covariance accumulator.
//
// All three consume the same ShadowDb and expose the same covariance
// result, so tests can assert exact agreement and the benchmark measures
// pure strategy cost.
#ifndef RELBORG_IVM_IVM_H_
#define RELBORG_IVM_IVM_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/exec_policy.h"
#include "core/feature_map.h"
#include "ivm/shadow_db.h"
#include "ivm/view_tree.h"
#include "obs/trace.h"
#include "ring/covar_arena.h"
#include "ring/covariance.h"
#include "util/packed_key.h"
#include "util/serde.h"
#include "util/status.h"

namespace relborg {

// --- Ring adapters (the view-level Ops concept of ivm/view_tree.h) -------

// Covariance-ring ops over the features of `fm` (indices follow fm), with
// views in arena storage: every view and delta keeps its payloads in one
// contiguous CovarArena buffer, and the per-row delta is the fused
// CovarSpanLiftMulAdd kernel — no payload allocation, no materialized
// lift, in the maintenance hot loop.
class CovarArenaIvmOps {
 public:
  using View = CovarArenaView;
  struct Scratch {
    std::vector<std::pair<int, double>> feat_vals;
    std::vector<double> prod_a;  // child-product ping-pong buffers
    std::vector<double> prod_b;
  };

  explicit CovarArenaIvmOps(const FeatureMap* fm) : fm_(fm) {}

  View MakeView() const { return CovarArenaView(fm_->num_features()); }
  Scratch MakeScratch() const {
    Scratch s;
    const size_t stride = CovarStride(fm_->num_features());
    s.prod_a.resize(stride);
    s.prod_b.resize(stride);
    return s;
  }
  bool Empty(const View& view) const { return view.empty(); }
  const double* Find(const View& view, uint64_t key) const {
    return view.Find(key);
  }

  // Snapshot protocol: CovarArenaView's (slot_count, version) watermark
  // pair (see ring/covar_arena.h).
  using Snapshot = CovarViewSnapshot;
  const double* FindAt(const View& view, uint64_t key,
                       const Snapshot& snap) const {
    return view.FindAt(key, snap);
  }
  Snapshot TakeSnapshot(const View& view) const { return view.Snapshot(); }
  uint64_t ViewVersion(const View& view) const { return view.version(); }

  void RowDelta(int v, const Relation& rel, size_t row, double sign,
                const double* const* children, size_t num_children,
                uint64_t key, View* out, Scratch* scratch) const {
    const int n = fm_->num_features();
    const auto& feats = fm_->NodeFeatures(v);
    scratch->feat_vals.resize(feats.size());
    for (size_t k = 0; k < feats.size(); ++k) {
      scratch->feat_vals[k] = {feats[k].second, rel.Double(row, feats[k].first)};
    }
    double* dst = out->GetOrAdd(key);
    if (num_children <= 1) {
      CovarSpanLiftMulAdd(n, scratch->feat_vals.data(),
                          scratch->feat_vals.size(), sign,
                          num_children == 0 ? nullptr : children[0], dst);
    } else {
      // Same chain shape as the covariance engine: sparse lift folds into
      // the first child, the last product fuses into the accumulator.
      double* cur = scratch->prod_a.data();
      double* nxt = scratch->prod_b.data();
      CovarSpanLiftMul(n, scratch->feat_vals.data(),
                       scratch->feat_vals.size(), sign, children[0], cur);
      for (size_t ci = 1; ci + 1 < num_children; ++ci) {
        CovarSpanMul(n, cur, children[ci], nxt);
        std::swap(cur, nxt);
      }
      CovarSpanMulAdd(n, cur, children[num_children - 1], dst);
    }
  }

  void Merge(View* dst, const View& src) const {
    const size_t stride = CovarStride(fm_->num_features());
    src.ForEach([&](uint64_t key, const double* span) {
      CovarSpanAdd(stride, dst->GetOrAdd(key), span);
    });
  }

  // Merge for MAINTAINED views: ring additions go through BeginMergeKey
  // (copy-on-write under active pins), and one release-publish at the end
  // moves the view's snapshot watermark past all of them at once.
  void FoldPublished(View* dst, const View& src) const {
    const size_t stride = CovarStride(fm_->num_features());
    src.ForEach([&](uint64_t key, const double* span) {
      CovarSpanAdd(stride, dst->BeginMergeKey(key), span);
    });
    dst->PublishMerge();
  }

  template <typename Fn>
  void ForEach(const View& view, Fn&& fn) const {
    view.ForEach(fn);
  }

 private:
  const FeatureMap* fm_;
};

// Scalar ring ops for a single SUM(x_i * x_j) aggregate: the payload is a
// double in a plain FlatHashMap view; the lift multiplies whichever of the
// two features live at the node.
class ScalarIvmOps {
 public:
  using View = FlatHashMap<double>;
  struct Scratch {};

  // mults[v] = attribute indices to multiply at node v.
  explicit ScalarIvmOps(std::vector<std::vector<int>> mults)
      : mults_(std::move(mults)) {}

  View MakeView() const { return View(); }
  Scratch MakeScratch() const { return Scratch(); }
  bool Empty(const View& view) const { return view.empty(); }
  const double* Find(const View& view, uint64_t key) const {
    return view.Find(key);
  }

  // FlatHashMap views carry no per-view watermark; HigherOrderIvm versions
  // its 91 view trees at the STRATEGY level instead (one atomic counter per
  // join-tree node), so the ops-level snapshot is empty and FindAt degrades
  // to Find — sound because the stream scheduler only calls it while
  // holding the child's view gate (no concurrent fold can intervene).
  struct Snapshot {};
  const double* FindAt(const View& view, uint64_t key,
                       const Snapshot&) const {
    return view.Find(key);
  }
  Snapshot TakeSnapshot(const View&) const { return {}; }
  uint64_t ViewVersion(const View&) const { return 0; }

  void RowDelta(int v, const Relation& rel, size_t row, double sign,
                const double* const* children, size_t num_children,
                uint64_t key, View* out, Scratch*) const {
    double m = sign;
    for (int attr : mults_[v]) m *= rel.Double(row, attr);
    for (size_t ci = 0; ci < num_children; ++ci) m *= *children[ci];
    (*out)[key] += m;
  }

  void Merge(View* dst, const View& src) const {
    src.ForEach([&](uint64_t key, const double& v) { (*dst)[key] += v; });
  }
  // No view-level watermark to publish (see Snapshot above).
  void FoldPublished(View* dst, const View& src) const { Merge(dst, src); }

  template <typename Fn>
  void ForEach(const View& view, Fn&& fn) const {
    view.ForEach([&](uint64_t key, const double& v) { fn(key, &v); });
  }

 private:
  std::vector<std::vector<int>> mults_;
};

// --- Strategies ----------------------------------------------------------

class CovarFivm {
 public:
  // The policy drives domain parallelism over each update batch's delta
  // computation (see ViewTreeMaintainer::ApplyBatch); the default keeps
  // the canonical serial path. Results are bit-identical for any thread
  // count >= 1.
  CovarFivm(const ShadowDb* db, const FeatureMap* fm,
            const ExecPolicy& policy = {})
      : db_(db), fm_(fm), ctx_(policy), maintainer_(db, CovarArenaIvmOps(fm)) {}

  // `visible` is the per-node row watermark of the caller's epoch (see
  // ViewTreeMaintainer::ApplyBatch); nullptr reads everything committed.
  // `gate`, when non-null, write-locks each view around the fold into it.
  void ApplyBatch(int v, size_t first, size_t count,
                  const size_t* visible = nullptr,
                  ViewWriteGate* gate = nullptr) {
    RELBORG_TRACE_SPAN("fivm/fold", "ivm", -1, v);
    maintainer_.ApplyBatch(v, first, count, ctx_.enabled() ? &ctx_ : nullptr,
                           visible, gate);
  }

  // --- Speculative per-range compute (stream_scheduler's compute stage) --
  //
  // ComputeRangeDelta evaluates a range's delta against the CURRENT child
  // views, bounded by snapshots taken at entry, and records each child's
  // (node, version) in *observed. The caller holds the children's view
  // gates, so no fold intervenes mid-scan; RangeDeltaValid later re-reads
  // the versions at the serial application point — equality means the
  // child views never changed in between, so the precomputed delta is
  // BIT-IDENTICAL to what a fresh serial ComputeDelta would produce (the
  // partitioned fold order is deterministic). ApplyRangeDelta then
  // propagates it exactly like ApplyBatch's second half. A strategy with
  // this API maintains a range by reading only the range's node and its
  // ancestors, so the scheduler locks just that closure against commits.
  using RangeDelta = CovarArenaView;

  RangeDelta ComputeRangeDelta(
      const NodeRowRange& r, std::vector<std::pair<int, uint64_t>>* observed) {
    RELBORG_TRACE_SPAN("fivm/delta", "ivm", -1, r.node);
    const std::vector<int>& children = db_->tree().node(r.node).children;
    std::vector<CovarViewSnapshot> snaps(db_->tree().num_nodes());
    for (int c : children) {
      snaps[c] = maintainer_.SnapshotView(c);
      observed->push_back({c, snaps[c].version});
    }
    return maintainer_.ComputeDelta(r.node, r.first, r.count,
                                    ctx_.enabled() ? &ctx_ : nullptr,
                                    /*visible=*/nullptr, snaps.data());
  }

  bool RangeDeltaValid(
      const std::vector<std::pair<int, uint64_t>>& observed) const {
    for (const auto& [node, version] : observed) {
      if (maintainer_.ViewVersion(node) != version) return false;
    }
    return true;
  }

  void ApplyRangeDelta(const NodeRowRange& r, RangeDelta delta,
                       const size_t* visible, ViewWriteGate* gate) {
    RELBORG_TRACE_SPAN("fivm/propagate", "ivm", -1, r.node);
    maintainer_.ApplyDelta(r.node, std::move(delta), visible, gate);
  }

  CovarMatrix Current() const {
    const int n = fm_->num_features();
    const double* span = maintainer_.Root();
    return CovarMatrix(n, span == nullptr ? CovarPayload::Zero(n)
                                          : CovarPayloadFromSpan(n, span));
  }

  /// Node v's maintained arena view — the cross-arena merge entry points
  /// (CovarArenaMergeInto, shard/sharded_stream_scheduler.h) read whole
  /// views, not just the root span. Same quiescence contract as Current().
  const CovarArenaView& ViewOf(int v) const { return maintainer_.view(v); }

  // --- Horizon-bounded serve reads (serve/snapshot_server.h) -------------
  //
  // A serve pin freezes EVERY view at one epoch boundary: PinServe must be
  // called where no fold can be in flight — the stream scheduler's epoch
  // observer (applier thread, between epochs) — and captures each view's
  // (slots, version) snapshot while COW-protecting its published payloads.
  // The ServeCovarAt / ServeGroupByAt readers below then read the EXACT
  // pinned bytes from any client thread, provided the caller holds the
  // scheduler's view-gate read lock on the views it touches (a concurrent
  // fold may rehash a view's map and move its arena buffer; COW preserves
  // payload bytes, not addresses). UnpinServe is safe from any thread, in
  // any order relative to other pins (CovarArenaView's pin table).

  /// One pinned epoch-consistent horizon across all views.
  struct ServePin {
    std::vector<CovarViewSnapshot> snaps;  // per join-tree node
  };

  /// Pins every view (writer-side: applier thread between epochs only).
  ServePin PinServe() {
    const int num_nodes = db_->tree().num_nodes();
    ServePin pin;
    pin.snaps.resize(num_nodes);
    for (int v = 0; v < num_nodes; ++v) {
      pin.snaps[v] = maintainer_.mutable_view(v).Pin();
    }
    return pin;
  }

  /// Releases one serve pin (any thread; pairs with one PinServe).
  void UnpinServe() {
    const int num_nodes = db_->tree().num_nodes();
    for (int v = 0; v < num_nodes; ++v) {
      maintainer_.mutable_view(v).Unpin();
    }
  }

  /// The covariance batch at the pinned horizon. Caller holds the view
  /// gate's read lock on the ROOT view while the pipeline is live.
  CovarMatrix CovarAt(const ServePin& pin) const {
    const int root = db_->tree().root();
    const int n = fm_->num_features();
    const double* span =
        maintainer_.view(root).FindAt(kUnitKey, pin.snaps[root]);
    return CovarMatrix(n, span == nullptr ? CovarPayload::Zero(n)
                                          : CovarPayloadFromSpan(n, span));
  }

  /// Group-by at the pinned horizon: node `v`'s view keys with their
  /// payload counts (COUNT(*) per parent-edge key over v's subtree),
  /// sorted by key for determinism. Keys born after the pin are filtered
  /// out by the snapshot's slot watermark. Caller holds the view gate's
  /// read lock on node `v` while the pipeline is live.
  std::vector<std::pair<uint64_t, double>> GroupByAt(
      int v, const ServePin& pin) const {
    std::vector<std::pair<uint64_t, double>> out;
    const CovarArenaView& view = maintainer_.view(v);
    view.ForEach([&](uint64_t key, const double*) {
      const double* span = view.FindAt(key, pin.snaps[v]);
      if (span != nullptr) out.emplace_back(key, span[kCovarCountOffset]);
    });
    std::sort(out.begin(), out.end());
    return out;
  }

  // --- Checkpointing (stream/checkpoint.h) -------------------------------
  //
  // View state is serialized BYTE-EXACT: every key's payload span as IEEE
  // bits plus the view's publication counter. Restore never recomputes a
  // fold (the coalesced epoch folds that built these payloads are a
  // different summation order than any replay could reproduce), so a
  // restored strategy is bit-identical to the one that was saved.
  static constexpr uint32_t kCheckpointTag = 0x46495631;  // "FIV1"

  void SaveCheckpoint(ByteSink* sink) const {
    const int num_nodes = db_->tree().num_nodes();
    const size_t stride = CovarStride(fm_->num_features());
    for (int v = 0; v < num_nodes; ++v) {
      const CovarArenaView& view = maintainer_.view(v);
      sink->U64(view.size());
      view.ForEach([&](uint64_t key, const double* span) {
        sink->U64(key);
        sink->F64Span(span, stride);
      });
      sink->U32(view.version());
    }
  }

  // Requires a freshly constructed strategy (empty views) over the same
  // catalog and feature map as the saved one.
  Status LoadCheckpoint(ByteSource* src) {
    const int num_nodes = db_->tree().num_nodes();
    const size_t stride = CovarStride(fm_->num_features());
    for (int v = 0; v < num_nodes; ++v) {
      CovarArenaView& view = maintainer_.mutable_view(v);
      const uint64_t count = src->U64();
      if (!src->CountFits(count, sizeof(uint64_t) + stride * sizeof(double))) {
        return Status::DataLoss("truncated CovarFivm checkpoint payload");
      }
      for (uint64_t k = 0; k < count; ++k) {
        const uint64_t key = src->U64();
        // The span stays valid until the next GetOrAdd, so fill it now.
        src->F64Span(view.GetOrAdd(key), stride);
      }
      view.RestorePublished(src->U32());
    }
    return src->ok() ? Status::Ok()
                     : Status::DataLoss("truncated CovarFivm checkpoint");
  }

 private:
  const ShadowDb* db_;
  const FeatureMap* fm_;
  ExecContext ctx_;
  ViewTreeMaintainer<CovarArenaIvmOps> maintainer_;
};

class HigherOrderIvm {
 public:
  // An enabled policy applies each batch to the (n+1)(n+2)/2 independent
  // scalar maintainers in parallel — each maintainer stays internally
  // serial, so results are identical for any thread count.
  HigherOrderIvm(const ShadowDb* db, const FeatureMap* fm,
                 const ExecPolicy& policy = {});

  void ApplyBatch(int v, size_t first, size_t count,
                  const size_t* visible = nullptr,
                  ViewWriteGate* gate = nullptr);

  // Speculative per-range compute, mirroring CovarFivm's contract. The
  // FlatHashMap views carry no watermark, so validity is tracked at the
  // strategy level: one atomic version counter per join-tree node, bumped
  // (release) along the root path after every application. Gate locking is
  // COARSE — the whole root path is locked once around the parallel
  // per-maintainer propagation — because per-merge locking from 91
  // concurrent maintainers would serialize on the gate mutex.
  using RangeDelta = std::vector<FlatHashMap<double>>;  // per maintainer

  RangeDelta ComputeRangeDelta(const NodeRowRange& r,
                               std::vector<std::pair<int, uint64_t>>* observed);
  bool RangeDeltaValid(
      const std::vector<std::pair<int, uint64_t>>& observed) const;
  void ApplyRangeDelta(const NodeRowRange& r, RangeDelta delta,
                       const size_t* visible, ViewWriteGate* gate);

  /// The maintained covariance batch. While a stream pipeline is live this
  /// may only be called where no fold is in flight — the scheduler's epoch
  /// observer (applier thread, between epochs); the serve layer snapshots
  /// by COPY there (no per-view pin protocol on FlatHashMap views).
  CovarMatrix Current() const;

  size_t num_aggregates() const { return maintainers_.size(); }

  // Checkpointing: every maintainer's per-node scalar views (byte-exact,
  // never recomputed) plus the strategy-level per-node version counters —
  // restored speculation validity resumes the saved version sequence.
  static constexpr uint32_t kCheckpointTag = 0x484F4931;  // "HOI1"
  void SaveCheckpoint(ByteSink* sink) const;
  Status LoadCheckpoint(ByteSource* src);  // requires a fresh strategy

 private:
  // v, parent(v), ..., root — the write set of an application at v.
  std::vector<int> RootPath(int v) const;
  void BumpVersions(const std::vector<int>& path);

  const ShadowDb* db_;
  const FeatureMap* fm_;
  ExecContext ctx_;
  // Maintainer k tracks the aggregate for feature pair pairs_[k]; index n
  // denotes the constant feature (counts / sums).
  std::vector<std::pair<int, int>> pairs_;
  std::vector<ViewTreeMaintainer<ScalarIvmOps>> maintainers_;
  // Per-node view version counters (see RangeDelta above). Over-bumping
  // (e.g. when a propagation stops early on an empty delta) is safe: a
  // version mismatch only ever forces a spurious serial recompute.
  std::unique_ptr<std::atomic<uint64_t>[]> versions_;
};

// Classical first-order IVM for the covariance batch: the maintained state
// is the flat vector of aggregate values only (no intermediate views), and
// each update batch evaluates ONE DELTA QUERY PER AGGREGATE —
// dQ_ij = SUM(x_i * x_j) over (delta |X| rest of the database) — exactly as
// a delta-rule engine processes a batch of queries with no cross-query
// sharing. Base relations carry incrementally-maintained indexes (as a
// DBMS would); the missing sharing across the 91 aggregates is what the
// paper credits for the orders-of-magnitude gap to F-IVM.
class FirstOrderIvm {
 public:
  // An enabled policy evaluates the per-aggregate delta queries in
  // parallel (each aggregate's enumeration stays serial, writing only its
  // own accumulator), so results are identical for any thread count.
  FirstOrderIvm(const ShadowDb* db, const FeatureMap* fm,
                const ExecPolicy& policy = {});

  // No speculative-compute API (no RangeDelta): the delta join
  // re-enumerates the WHOLE database, so every epoch's write set
  // intersects every other epoch's read set. The stream scheduler's
  // compute stage forwards its epochs untouched, and the applier locks
  // every node against commits while a batch applies.

  // `visible` bounds every read (index build, delta-join enumeration) to
  // rows [0, visible[u]) of each node u; nullptr reads all committed rows.
  void ApplyBatch(int v, size_t first, size_t count,
                  const size_t* visible = nullptr);

  /// The maintained covariance batch. Same serve contract as
  /// HigherOrderIvm::Current: under a live pipeline, call only from the
  /// scheduler's epoch observer (applier thread, between epochs).
  CovarMatrix Current() const;

  size_t num_aggregates() const { return pairs_.size(); }

  // Checkpointing: the flat aggregate values (byte-exact) plus the per-node
  // indexed-row counts. LoadCheckpoint rebuilds parent_index_ from the
  // restored ShadowDb's rows — the ShadowDb prefix must be restored FIRST.
  static constexpr uint32_t kCheckpointTag = 0x464F4931;  // "FOI1"
  void SaveCheckpoint(ByteSink* sink) const;
  Status LoadCheckpoint(ByteSource* src);  // requires a fresh strategy

 private:
  // Recursively enumerates delta-join extensions over the undirected tree,
  // multiplying the current aggregate's per-node multipliers, and adds the
  // total into *acc. Rows at or above visible[] stay out of the join.
  void Expand(int v, size_t row, int from, double mult,
              const std::vector<std::vector<int>>& mults,
              const size_t* visible, double* acc);

  const ShadowDb* db_;
  const FeatureMap* fm_;
  ExecContext ctx_;
  std::vector<std::pair<int, int>> pairs_;
  std::vector<std::vector<std::vector<int>>> mults_;  // per aggregate
  std::vector<double> values_;                        // per aggregate
  // Per node: rows indexed by the parent-edge key (the direction ShadowDb
  // does not index), maintained incrementally.
  std::vector<FlatHashMap<std::vector<uint32_t>>> parent_index_;
  std::vector<size_t> indexed_rows_;  // rows already in parent_index_
};

}  // namespace relborg

#endif  // RELBORG_IVM_IVM_H_
