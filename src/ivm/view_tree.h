// Factorized view-tree maintenance (the F-IVM algorithm, Sec. 3.1 and
// Fig. 4 right of the paper).
//
// A ViewTreeMaintainer keeps, for every join-tree node, a materialized view
// mapping the node's parent-edge key to a ring payload aggregated over its
// subtree. An insert batch at node v:
//
//   1. computes the per-key payload delta at v from the new rows (their
//      lifts multiplied with the children's current views),
//   2. propagates the delta up the path to the root: at each ancestor p,
//      only the rows matching the delta's keys (found via ShadowDb's
//      indexes) contribute, each multiplied with the *sibling* views,
//   3. applies the deltas to the views along the path.
//
// Work is proportional to the affected keys, not to the database size, and
// one compound-ring payload maintains the whole aggregate batch at once.
// The higher-order IVM baseline instantiates this same template with a
// scalar ring — one maintainer per aggregate, no sharing — which is
// exactly the distinction Fig. 4 (right) measures.
//
// The Ops parameter supplies the ring AND the physical view layout, so the
// covariance instantiation can keep its payloads in arena storage
// (ring/covar_arena.h) while the scalar baseline stays on FlatHashMap:
//
//   struct Ops {
//     using View = ...;     // keyed payload container, movable
//     using Scratch = ...;  // per-scan scratch, one instance per partition
//     // Version snapshot of a View (see ring/covar_arena.h's protocol);
//     // may be an empty struct for layouts without one.
//     using Snapshot = ...;
//     View MakeView() const;
//     Scratch MakeScratch() const;
//     bool Empty(const View&) const;
//     // Opaque payload handle of `key`, nullptr when absent. Handles stay
//     // valid while their owning view is not written to.
//     const double* Find(const View&, uint64_t key) const;
//     // Handle of `key` as of `snap` (== Find whenever the view has not
//     // been folded into since the snapshot was taken).
//     const double* FindAt(const View&, uint64_t key, const Snapshot&) const;
//     // One-acquire version snapshot / publication counter of the view.
//     Snapshot TakeSnapshot(const View&) const;
//     uint64_t ViewVersion(const View&) const;
//     // (*out)[key] += sign * lift(node, row) * prod(children handles).
//     void RowDelta(int node, const Relation&, size_t row, double sign,
//                   const double* const* children, size_t num_children,
//                   uint64_t key, View* out, Scratch*) const;
//     // dst[key] += payload for every entry of src, in src's iteration
//     // order (a pure function of src's key set).
//     void Merge(View* dst, const View& src) const;
//     // Merge + version publication: same ring addition, but payload
//     // writes are ordered before a release-store of dst's version
//     // watermark so concurrent snapshot readers never see a torn
//     // payload. Used for MAINTAINED views (propagation); plain Merge
//     // stays for scratch views (partial folds).
//     void FoldPublished(View* dst, const View& src) const;
//     // fn(uint64_t key, const double* handle) over all entries.
//     template <typename Fn> void ForEach(const View&, Fn&& fn) const;
//   };
#ifndef RELBORG_IVM_VIEW_TREE_H_
#define RELBORG_IVM_VIEW_TREE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/exec_policy.h"
#include "ivm/shadow_db.h"
#include "util/check.h"
#include "util/flat_hash_map.h"

namespace relborg {

// A contiguous run of rows appended to one node's shadow relation — one
// coalesced range of a stream epoch, as the stream scheduler hands it to a
// strategy's per-range compute.
struct NodeRowRange {
  int node = -1;
  size_t first = 0;
  size_t count = 0;
};

// Write-side hook for view propagation: when non-null, ApplyDelta locks a
// node's view around the fold into it, so a concurrent speculative reader
// (the stream scheduler's compute stage) is excluded from exactly the view
// being written — never from the (read-only) upward scan between folds.
// Implementations must allow nested/overlapping locks from one writer.
class ViewWriteGate {
 public:
  virtual ~ViewWriteGate() = default;
  virtual void LockView(int v) = 0;
  virtual void UnlockView(int v) = 0;
};

template <typename Ops>
class ViewTreeMaintainer {
 public:
  using View = typename Ops::View;

  ViewTreeMaintainer(const ShadowDb* db, Ops ops)
      : db_(db), ops_(std::move(ops)) {
    const int num_nodes = db->tree().num_nodes();
    views_.reserve(num_nodes);
    for (int v = 0; v < num_nodes; ++v) views_.push_back(ops_.MakeView());
  }

  // Processes rows [first, first + count) previously appended to node v's
  // shadow relation (signs already recorded in the ShadowDb). With a
  // context, the per-row delta computation is domain-parallel over
  // deterministic partitions of the batch (partials merged in ascending
  // partition order — bit-identical for any thread count); upward
  // propagation is work-proportional and stays serial.
  //
  // `visible`, when non-null, is a per-node row watermark (indexed by node
  // id): maintenance reads at node u are bounded to rows [0, visible[u]).
  // The stream scheduler passes each epoch's visibility horizon here so
  // rows that a later epoch's commit already spliced (at ids >= the
  // horizon, always) stay invisible; nullptr reads everything committed —
  // the classic serial behavior. Results are bit-identical either way
  // whenever the rows above the horizon do not yet exist, which is exactly
  // the serial replay.
  void ApplyBatch(int v, size_t first, size_t count,
                  const ExecContext* ctx = nullptr,
                  const size_t* visible = nullptr,
                  ViewWriteGate* gate = nullptr) {
    ApplyDelta(v, ComputeDelta(v, first, count, ctx, visible), visible, gate);
  }

  // First half of ApplyBatch: the per-key payload delta at v for rows
  // [first, first + count), against the CURRENT child views. Reads only
  // const state (ShadowDb, child views), so deltas of nodes at the same
  // tree depth may be computed concurrently — no node reads a view another
  // same-depth node writes. The scan touches only the range's own rows,
  // which must sit at or below the epoch's watermark.
  //
  // `child_snaps`, when non-null, is a per-NODE array of view snapshots:
  // every child-view probe goes through Ops::FindAt bounded by the child's
  // snapshot, so payloads published after the snapshots stay invisible (the
  // SNAPSHOT HORIZON — the view-level analogue of the row watermark). The
  // stream scheduler's speculative compute stage passes the snapshots it
  // validates against; whenever validation succeeds the children never
  // changed, so the bounded and unbounded scans are bit-identical.
  View ComputeDelta(int v, size_t first, size_t count,
                    const ExecContext* ctx = nullptr,
                    const size_t* visible = nullptr,
                    const typename Ops::Snapshot* child_snaps = nullptr) {
    RELBORG_DCHECK(visible == nullptr || first + count <= visible[v]);
    (void)visible;  // only asserted: the scan stays inside its own range
    View delta = ops_.MakeView();
    if (ctx == nullptr || ctx->NumPartitions(count) <= 1) {
      ScanDelta(v, first, count, &delta, child_snaps);
    } else {
      const size_t parts = ctx->NumPartitions(count);
      std::vector<View> partials;
      partials.reserve(parts);
      for (size_t p = 0; p < parts; ++p) partials.push_back(ops_.MakeView());
      ctx->ParallelFor(parts, [&](size_t p) {
        const std::pair<size_t, size_t> b =
            ExecContext::PartitionBounds(count, parts, p);
        ScanDelta(v, first + b.first, b.second - b.first, &partials[p],
                  child_snaps);
      });
      for (size_t p = 0; p < parts; ++p) ops_.Merge(&delta, partials[p]);
    }
    return delta;
  }

  // Second half: folds the delta into v's view and propagates it up the
  // root path. Serial; writes views on the path only. Ancestor reads (rows
  // matched through the ShadowDb indexes) honor the `visible` watermark.
  // Each fold into a maintained view is a PUBLISHED merge (payload writes
  // before the release-store of the view's version watermark) and, with a
  // gate, runs under that view's write lock — the scan producing the next
  // ancestor delta holds no lock, so concurrent snapshot readers of other
  // views overlap the expensive part of propagation.
  void ApplyDelta(int v, View delta, const size_t* visible = nullptr,
                  ViewWriteGate* gate = nullptr) {
    Propagate(v, std::move(delta), visible, gate);
  }

  // Version snapshot / publication counter of node v's view (acquire
  // loads; safe concurrently with maintenance on another thread).
  typename Ops::Snapshot SnapshotView(int v) const {
    return ops_.TakeSnapshot(views_[v]);
  }
  uint64_t ViewVersion(int v) const { return ops_.ViewVersion(views_[v]); }

  // Handle of the root payload (the maintained aggregate batch); nullptr
  // while the join is still empty.
  const double* Root() const {
    return ops_.Find(views_[db_->tree().root()], kUnitKey);
  }

  // Read access for tests.
  const View& view(int v) const { return views_[v]; }
  const Ops& ops() const { return ops_; }
  // Mutable view access for tests that drive the snapshot protocol by hand.
  View& mutable_view(int v) { return views_[v]; }

 private:
  // Computes the delta at v for rows [first, first + count) into *delta,
  // serially in row order.
  void ScanDelta(int v, size_t first, size_t count, View* delta,
                 const typename Ops::Snapshot* child_snaps) {
    const RootedTree& tree = db_->tree();
    const Relation& rel = db_->relation(v);
    const std::vector<int>& children = tree.node(v).children;
    std::vector<const double*> spans(children.size());
    typename Ops::Scratch scratch = ops_.MakeScratch();
    for (size_t row = first; row < first + count; ++row) {
      bool dangling = false;
      for (size_t ci = 0; ci < children.size(); ++ci) {
        const uint64_t key = tree.RowKeyToChild(v, children[ci], row);
        const View& child = views_[children[ci]];
        spans[ci] = child_snaps != nullptr
                        ? ops_.FindAt(child, key, child_snaps[children[ci]])
                        : ops_.Find(child, key);
        if (spans[ci] == nullptr) {
          dangling = true;
          break;
        }
      }
      if (dangling) continue;
      ops_.RowDelta(v, rel, row, db_->sign(v, row), spans.data(),
                    spans.size(), tree.RowKeyToParent(v, row), delta,
                    &scratch);
    }
  }

  void Propagate(int v, View delta, const size_t* visible,
                 ViewWriteGate* gate) {
    const RootedTree& tree = db_->tree();
    while (true) {
      if (ops_.Empty(delta)) return;
      // Fold the delta into v's own view — a published merge, under v's
      // write lock when gated. The upward scan below runs unlocked.
      if (gate != nullptr) gate->LockView(v);
      ops_.FoldPublished(&views_[v], delta);
      if (gate != nullptr) gate->UnlockView(v);
      int parent = tree.node(v).parent;
      if (parent < 0) return;
      // Delta at the parent: only its rows matching the delta keys, and
      // only those below the watermark — index entries at or above it
      // belong to epochs this maintenance pass must not see yet (the ids
      // in a per-key vector ascend, so the visible rows are a prefix).
      const size_t parent_limit =
          visible == nullptr ? SIZE_MAX : visible[parent];
      const Relation& prel = db_->relation(parent);
      const std::vector<int>& children = tree.node(parent).children;
      View parent_delta = ops_.MakeView();
      std::vector<const double*> spans(children.size());
      typename Ops::Scratch scratch = ops_.MakeScratch();
      ops_.ForEach(delta, [&](uint64_t key, const double* dp) {
        const std::vector<uint32_t>* rows =
            db_->RowsByChildKey(parent, v, key);
        if (rows == nullptr) return;
        for (uint32_t row : *rows) {
          if (row >= parent_limit) break;
          bool dangling = false;
          for (size_t ci = 0; ci < children.size(); ++ci) {
            if (children[ci] == v) {
              spans[ci] = dp;  // the delta, not the (already updated) view
            } else {
              spans[ci] =
                  ops_.Find(views_[children[ci]],
                            tree.RowKeyToChild(parent, children[ci], row));
            }
            if (spans[ci] == nullptr) {
              dangling = true;
              break;
            }
          }
          if (dangling) continue;
          ops_.RowDelta(parent, prel, row, db_->sign(parent, row),
                        spans.data(), spans.size(),
                        tree.RowKeyToParent(parent, row), &parent_delta,
                        &scratch);
        }
      });
      delta = std::move(parent_delta);
      v = parent;
    }
  }

  const ShadowDb* db_;
  Ops ops_;
  std::vector<View> views_;
};

}  // namespace relborg

#endif  // RELBORG_IVM_VIEW_TREE_H_
