#include "ivm/ivm.h"

#include <algorithm>
#include <cstdint>
#include <functional>

#include "obs/trace.h"
#include "util/check.h"

namespace relborg {
namespace {

// Multiplier attribute lists for the scalar aggregate SUM(x_i * x_j);
// index n (== fm.num_features()) denotes the constant feature 1.
std::vector<std::vector<int>> MultipliersFor(const FeatureMap& fm,
                                             int num_nodes, int i, int j) {
  const int n = fm.num_features();
  std::vector<std::vector<int>> mults(num_nodes);
  if (i < n) mults[fm.NodeOf(i)].push_back(fm.AttrOf(i));
  if (j < n) mults[fm.NodeOf(j)].push_back(fm.AttrOf(j));
  return mults;
}

}  // namespace

HigherOrderIvm::HigherOrderIvm(const ShadowDb* db, const FeatureMap* fm,
                               const ExecPolicy& policy)
    : db_(db), fm_(fm), ctx_(policy) {
  const int n = fm->num_features();
  const int num_nodes = db->tree().num_nodes();
  for (int i = 0; i <= n; ++i) {
    for (int j = i; j <= n; ++j) {
      pairs_.push_back({i, j});
      maintainers_.emplace_back(
          db, ScalarIvmOps(MultipliersFor(*fm, num_nodes, i, j)));
    }
  }
  versions_ = std::make_unique<std::atomic<uint64_t>[]>(num_nodes);
  for (int v = 0; v < num_nodes; ++v) {
    versions_[v].store(0, std::memory_order_relaxed);
  }
}

std::vector<int> HigherOrderIvm::RootPath(int v) const {
  std::vector<int> path;
  for (int u = v; u >= 0; u = db_->tree().node(u).parent) path.push_back(u);
  return path;
}

void HigherOrderIvm::BumpVersions(const std::vector<int>& path) {
  // Release: the bump publishes the folds the ParallelFor join just made
  // visible to this thread, so a compute-thread acquire load that still
  // sees the OLD version is guaranteed the old view contents too.
  for (int u : path) versions_[u].fetch_add(1, std::memory_order_release);
}

void HigherOrderIvm::ApplyBatch(int v, size_t first, size_t count,
                                const size_t* visible, ViewWriteGate* gate) {
  RELBORG_TRACE_SPAN("hoivm/fold", "ivm", -1, v);
  // The maintainers are mutually independent; each one applies the batch
  // serially, so the per-maintainer state is thread-count-invariant. The
  // root path is write-locked coarsely, once around the parallel fan-out
  // (see the RangeDelta comment in ivm.h).
  const std::vector<int> path = RootPath(v);
  if (gate != nullptr) {
    for (int u : path) gate->LockView(u);
  }
  ctx_.ParallelFor(maintainers_.size(), [&](size_t k) {
    maintainers_[k].ApplyBatch(v, first, count, /*ctx=*/nullptr, visible);
  });
  BumpVersions(path);
  if (gate != nullptr) {
    for (int u : path) gate->UnlockView(u);
  }
}

HigherOrderIvm::RangeDelta HigherOrderIvm::ComputeRangeDelta(
    const NodeRowRange& r, std::vector<std::pair<int, uint64_t>>* observed) {
  RELBORG_TRACE_SPAN("hoivm/delta", "ivm", -1, r.node);
  for (int c : db_->tree().node(r.node).children) {
    observed->push_back({c, versions_[c].load(std::memory_order_acquire)});
  }
  RangeDelta delta(maintainers_.size());
  ctx_.ParallelFor(maintainers_.size(), [&](size_t k) {
    delta[k] = maintainers_[k].ComputeDelta(r.node, r.first, r.count);
  });
  return delta;
}

bool HigherOrderIvm::RangeDeltaValid(
    const std::vector<std::pair<int, uint64_t>>& observed) const {
  for (const auto& [node, version] : observed) {
    if (versions_[node].load(std::memory_order_acquire) != version) {
      return false;
    }
  }
  return true;
}

void HigherOrderIvm::ApplyRangeDelta(const NodeRowRange& r, RangeDelta delta,
                                     const size_t* visible,
                                     ViewWriteGate* gate) {
  RELBORG_TRACE_SPAN("hoivm/propagate", "ivm", -1, r.node);
  const std::vector<int> path = RootPath(r.node);
  if (gate != nullptr) {
    for (int u : path) gate->LockView(u);
  }
  ctx_.ParallelFor(maintainers_.size(), [&](size_t k) {
    maintainers_[k].ApplyDelta(r.node, std::move(delta[k]), visible,
                               /*gate=*/nullptr);
  });
  BumpVersions(path);
  if (gate != nullptr) {
    for (int u : path) gate->UnlockView(u);
  }
}

void HigherOrderIvm::SaveCheckpoint(ByteSink* sink) const {
  const int num_nodes = db_->tree().num_nodes();
  for (const ViewTreeMaintainer<ScalarIvmOps>& m : maintainers_) {
    for (int v = 0; v < num_nodes; ++v) {
      const FlatHashMap<double>& view = m.view(v);
      sink->U64(view.size());
      view.ForEach([&](uint64_t key, const double& val) {
        sink->U64(key);
        sink->F64(val);
      });
    }
  }
  for (int v = 0; v < num_nodes; ++v) {
    sink->U64(versions_[v].load(std::memory_order_relaxed));
  }
}

Status HigherOrderIvm::LoadCheckpoint(ByteSource* src) {
  const int num_nodes = db_->tree().num_nodes();
  for (ViewTreeMaintainer<ScalarIvmOps>& m : maintainers_) {
    for (int v = 0; v < num_nodes; ++v) {
      FlatHashMap<double>& view = m.mutable_view(v);
      const uint64_t count = src->U64();
      if (!src->CountFits(count, 2 * sizeof(uint64_t))) {
        return Status::DataLoss("truncated HigherOrderIvm checkpoint");
      }
      for (uint64_t k = 0; k < count; ++k) {
        const uint64_t key = src->U64();
        view[key] = src->F64();
      }
    }
  }
  for (int v = 0; v < num_nodes; ++v) {
    versions_[v].store(src->U64(), std::memory_order_relaxed);
  }
  return src->ok() ? Status::Ok()
                   : Status::DataLoss("truncated HigherOrderIvm checkpoint");
}

CovarMatrix HigherOrderIvm::Current() const {
  const int n = fm_->num_features();
  CovarPayload payload = CovarPayload::Zero(n);
  for (size_t k = 0; k < pairs_.size(); ++k) {
    const double* value = maintainers_[k].Root();
    double v = value == nullptr ? 0.0 : *value;
    auto [i, j] = pairs_[k];
    if (i == n && j == n) {
      payload.count = v;
    } else if (j == n) {
      payload.sum[i] = v;
    } else {
      payload.quad[UpperTriIndex(n, i, j)] = v;
    }
  }
  return CovarMatrix(n, std::move(payload));
}

FirstOrderIvm::FirstOrderIvm(const ShadowDb* db, const FeatureMap* fm,
                             const ExecPolicy& policy)
    : db_(db),
      fm_(fm),
      ctx_(policy),
      parent_index_(db->tree().num_nodes()),
      indexed_rows_(db->tree().num_nodes(), 0) {
  const int n = fm->num_features();
  const int num_nodes = db->tree().num_nodes();
  for (int i = 0; i <= n; ++i) {
    for (int j = i; j <= n; ++j) {
      pairs_.push_back({i, j});
      mults_.push_back(MultipliersFor(*fm, num_nodes, i, j));
    }
  }
  values_.assign(pairs_.size(), 0.0);
}

CovarMatrix FirstOrderIvm::Current() const {
  const int n = fm_->num_features();
  CovarPayload payload = CovarPayload::Zero(n);
  for (size_t k = 0; k < pairs_.size(); ++k) {
    auto [i, j] = pairs_[k];
    if (i == n && j == n) {
      payload.count = values_[k];
    } else if (j == n) {
      payload.sum[i] = values_[k];
    } else {
      payload.quad[UpperTriIndex(n, i, j)] = values_[k];
    }
  }
  return CovarMatrix(n, std::move(payload));
}

void FirstOrderIvm::SaveCheckpoint(ByteSink* sink) const {
  sink->U64(values_.size());
  sink->F64Span(values_.data(), values_.size());
  sink->U64(indexed_rows_.size());
  for (size_t rows : indexed_rows_) sink->U64(rows);
}

Status FirstOrderIvm::LoadCheckpoint(ByteSource* src) {
  if (src->U64() != values_.size()) {
    return Status::InvalidArgument(
        "FirstOrderIvm checkpoint aggregate count mismatch");
  }
  src->F64Span(values_.data(), values_.size());
  if (src->U64() != indexed_rows_.size()) {
    return Status::InvalidArgument(
        "FirstOrderIvm checkpoint node count mismatch");
  }
  for (size_t& rows : indexed_rows_) rows = static_cast<size_t>(src->U64());
  if (!src->ok()) {
    return Status::DataLoss("truncated FirstOrderIvm checkpoint");
  }
  // Rebuild the parent-edge indexes from the restored ShadowDb rows in
  // ascending row order — exactly the order the incremental build appended
  // them, so lookups enumerate identical row sequences after restore.
  const RootedTree& tree = db_->tree();
  for (int u = 0; u < tree.num_nodes(); ++u) {
    if (u == tree.root()) continue;
    if (indexed_rows_[u] > db_->relation(u).num_rows()) {
      return Status::InvalidArgument(
          "FirstOrderIvm checkpoint indexes rows the restored database "
          "does not hold");
    }
    for (size_t row = 0; row < indexed_rows_[u]; ++row) {
      parent_index_[u][tree.RowKeyToParent(u, row)].push_back(
          static_cast<uint32_t>(row));
    }
  }
  return Status::Ok();
}

void FirstOrderIvm::ApplyBatch(int v, size_t first, size_t count,
                               const size_t* visible) {
  RELBORG_TRACE_SPAN("foivm/delta-join", "ivm", -1, v);
  const RootedTree& tree = db_->tree();
  // Bring the (base-relation) indexes up to date — a DBMS maintains these
  // incrementally; what first-order IVM lacks is intermediate VIEWS. Under
  // a watermark, only the visible prefix is indexed: the stream scheduler
  // may have committed rows of FUTURE epochs already, and indexing them
  // here would leak them into this batch's delta join. The clamp keeps
  // indexed_rows_ monotone because epoch watermarks only ever grow.
  for (int u = 0; u < tree.num_nodes(); ++u) {
    if (u == tree.root()) continue;
    const Relation& rel = db_->relation(u);
    const size_t limit = visible == nullptr
                             ? rel.num_rows()
                             : std::min(rel.num_rows(), visible[u]);
    for (size_t row = indexed_rows_[u]; row < limit; ++row) {
      parent_index_[u][tree.RowKeyToParent(u, row)].push_back(
          static_cast<uint32_t>(row));
    }
    indexed_rows_[u] = std::max(indexed_rows_[u], limit);
  }
  // One delta query per aggregate: each re-enumerates the delta join. No
  // sharing across the batch — the defining cost of this strategy. The
  // delta queries are independent (disjoint accumulators, read-only
  // indexes), so they may run in parallel without changing any result.
  ctx_.ParallelFor(pairs_.size(), [&](size_t k) {
    double acc = 0;
    for (size_t row = first; row < first + count; ++row) {
      Expand(v, row, /*from=*/-1, db_->sign(v, row), mults_[k], visible,
             &acc);
    }
    values_[k] += acc;
  });
}

void FirstOrderIvm::Expand(int v, size_t row, int from, double mult,
                           const std::vector<std::vector<int>>& mults,
                           const size_t* visible, double* acc) {
  const RootedTree& tree = db_->tree();
  const Relation& rel = db_->relation(v);
  for (int attr : mults[v]) mult *= rel.Double(row, attr);

  // Neighbors to expand (children and parent, minus where we came from).
  std::vector<int> neighbors;
  for (int c : tree.node(v).children) {
    if (c != from) neighbors.push_back(c);
  }
  int parent = tree.node(v).parent;
  if (parent >= 0 && parent != from) neighbors.push_back(parent);

  std::function<void(size_t, double)> helper = [&](size_t ni, double m) {
    if (ni == neighbors.size()) {
      *acc += m;
      return;
    }
    int u = neighbors[ni];
    const std::vector<uint32_t>* rows;
    if (u == parent) {
      rows = db_->RowsByChildKey(parent, v, tree.RowKeyToParent(v, row));
    } else {
      rows = parent_index_[u].Find(tree.RowKeyToChild(v, u, row));
    }
    if (rows == nullptr) return;
    // parent_index_ holds visible rows only (built under the same
    // watermark above); the ShadowDb child index may already hold spliced
    // future rows, which sit past the visible prefix.
    const size_t limit = visible == nullptr ? SIZE_MAX : visible[u];
    for (uint32_t urow : *rows) {
      if (urow >= limit) break;
      // Expand returns the sum over u's side of per-assignment products;
      // distributivity lets the remaining neighbors multiply against that
      // sum (delta-query plans push aggregates too — the cost this
      // baseline cannot avoid is re-running the plan once per aggregate).
      double sub = 0;
      Expand(u, urow, v, db_->sign(u, urow), mults, visible, &sub);
      if (sub != 0) helper(ni + 1, m * sub);
    }
  };
  helper(0, mult);
}

}  // namespace relborg
