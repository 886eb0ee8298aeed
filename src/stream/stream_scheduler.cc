#include "stream/stream_scheduler.h"

#include "core/exec_policy.h"

namespace relborg {

EpochAssembler::EpochAssembler(const ShadowDb* db,
                               const StreamOptions& options)
    : db_(db), options_(options) {
  const int num_nodes = db->tree().num_nodes();
  group_of_ = ViewGroupOf(db->tree());
  next_row_.resize(num_nodes);
  pending_of_.assign(num_nodes, -1);
  // Snapshot the current relation sizes once, before any pipeline thread
  // exists; from here on row ids are tracked locally so staging never
  // reads the (concurrently mutated) relations.
  for (int v = 0; v < num_nodes; ++v) {
    next_row_[v] = db->relation(v).num_rows();
  }
}

bool EpochAssembler::Add(UpdateBatch batch, StreamEpoch* out) {
  if (!batch.rows.empty()) {
    RELBORG_CHECK(batch.node >= 0 &&
                  batch.node < static_cast<int>(group_of_.size()));
    const size_t batch_rows = batch.rows.size();
    int idx = pending_of_[batch.node];
    if (idx < 0) {
      idx = static_cast<int>(pending_.size());
      pending_of_[batch.node] = idx;
      pending_.emplace_back();
      pending_[idx].node = batch.node;
    }
    Pending& pending = pending_[idx];
    for (auto& row : batch.rows) pending.rows.push_back(std::move(row));
    pending.signs.insert(pending.signs.end(), batch_rows, batch.sign);
    cur_rows_ += batch_rows;
  }
  // Empty batches contribute no range but still count toward the batch
  // bound, so a stream tail of retract-everything no-ops can seal (and the
  // scheduler apply) zero-range epochs.
  cur_batches_ += 1;
  if (cur_rows_ >= options_.epoch_rows ||
      cur_batches_ >= options_.epoch_batches) {
    Seal(out);
    return true;
  }
  return false;
}

bool EpochAssembler::Flush(StreamEpoch* out) {
  if (pending_.empty() && cur_batches_ == 0) return false;
  Seal(out);
  return true;
}

void EpochAssembler::Seal(StreamEpoch* out) {
  *out = StreamEpoch();
  out->id = next_epoch_id_++;
  out->rows = cur_rows_;
  out->batches = cur_batches_;
  out->reads.assign(group_of_.size(), 0);
  // Canonical order: deepest view group first, ascending node id within a
  // group — one range per node, so the sort key is unique.
  std::sort(pending_.begin(), pending_.end(),
            [&](const Pending& a, const Pending& b) {
              if (group_of_[a.node] != group_of_[b.node]) {
                return group_of_[a.node] < group_of_[b.node];
              }
              return a.node < b.node;
            });
  out->ranges.reserve(pending_.size());
  for (Pending& pending : pending_) {
    StreamRange range;
    range.chunk =
        db_->StageRows(pending.node, std::move(pending.rows),
                       std::move(pending.signs), next_row_[pending.node]);
    next_row_[pending.node] += range.chunk.num_rows();
    // The range's visibility horizon: per-node staged totals so far —
    // bit-for-bit the committed watermarks of the serial replay right
    // after this range's commit (epochs stage, commit and maintain
    // strictly in order, and next_row_ never includes later epochs here).
    range.visible.assign(next_row_.begin(), next_row_.end());
    // Maintenance of this range reads its node and (through upward
    // propagation) the node's ancestors.
    MarkAncestorClosure(db_->tree(), pending.node, &out->reads);
    pending_of_[pending.node] = -1;
    out->ranges.push_back(std::move(range));
  }
  pending_.clear();
  cur_rows_ = 0;
  cur_batches_ = 0;
  out->sealed_at = std::chrono::steady_clock::now();
}

}  // namespace relborg
