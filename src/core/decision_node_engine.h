// Shared evaluation of decision-tree node cost batches (Sec. 2.2).
//
// At a CART node, every candidate split (attribute, threshold/category-set)
// needs VARIANCE(Y) restricted by the node's path condition AND the split
// condition — i.e. the triple (COUNT, SUM(y), SUM(y^2)) per candidate (or
// per-class counts for classification). Evaluating each candidate as its
// own query is what the commercial systems of Fig. 4 effectively do; this
// engine instead shares work the LMFAO way.
//
// Candidates are grouped by the relation that owns them; each such relation
// is a root of the batch. Its candidates need the join collapsed toward it:
// one view per join-tree edge, directed at the root. A directed-edge view
// v -> p (a "message") is the same whichever root asks for it, so the
// engine builds each needed message at most once per batch, in both
// directions along the edges, and shares it among all roots:
//
//   * Up sweep. The tree is rooted at the largest relation (the pivot).
//     Deepest view group first, each relation whose message toward the
//     pivot is needed scans once to build it.
//   * Down sweep. Pivot first, each relation scans once for all of its
//     needed messages away from the pivot and for its own candidates. A
//     fact table that is the largest relation is thus scanned once per
//     batch, however many relations own candidates.
//
// A scan probes every incoming message a row needs. Each output multiplies
// all of them but at most one, so a row that misses two is skipped.
//
// Bit-identity with one pass per root. Message v -> p multiplies, per row
// of v, the lift and then the incoming messages of v's other neighbors in
// query.Root(p).node(v).children order. That order and the edge's join keys
// depend only on the edge, never on which root asked, and so does the row
// order of the scan. A root's candidates multiply in
// query.Root(r).node(r).children order, as a pass rooted at r does.
// Partitioned scans merge partials in ascending partition order, as
// PartitionedScan does for every other engine. Every floating-point
// operation of a per-root pass is therefore replayed in the same order,
// and the results are bit-identical to it for the legacy plan
// (ExecPolicy{}) and for every ExecPolicy{N >= 1}.
#ifndef RELBORG_CORE_DECISION_NODE_ENGINE_H_
#define RELBORG_CORE_DECISION_NODE_ENGINE_H_

#include <vector>

#include "core/exec_policy.h"
#include "core/feature_map.h"
#include "query/join_tree.h"
#include "query/predicate.h"
#include "util/flat_hash_map.h"

namespace relborg {

// One candidate split: a predicate on an attribute of the relation at
// join-tree node `node`.
struct SplitCandidate {
  int node = -1;
  Predicate pred;
};

// Sufficient statistics of a regression split.
struct SplitStats {
  double count = 0;
  double sum = 0;     // SUM(y)
  double sum_sq = 0;  // SUM(y^2)

  double Variance() const {
    if (count <= 0) return 0;
    double mean = sum / count;
    double v = sum_sq / count - mean * mean;
    return v < 0 ? 0 : v;
  }
};

// Computes, for each candidate, the (count, sum_y, sumsq_y) triple over the
// join restricted by `path_filters` AND the candidate's predicate. The
// response is identified by (response_node, response_attr) and must be
// continuous. An enabled policy scans the relations of one view group
// concurrently (outer level), each scan partitioned (inner level); results
// are bit-identical for any thread count >= 1 (see core/exec_policy.h).
std::vector<SplitStats> ComputeSplitStats(
    const JoinQuery& query, int response_node, int response_attr,
    const FilterSet& path_filters,
    const std::vector<SplitCandidate>& candidates,
    const ExecPolicy& policy = {});

// Classification variant: per-candidate counts per class of the categorical
// response. Result maps class code -> count. The policy parameter behaves
// as in ComputeSplitStats.
std::vector<FlatHashMap<double>> ComputeSplitClassCounts(
    const JoinQuery& query, int response_node, int response_attr,
    const FilterSet& path_filters,
    const std::vector<SplitCandidate>& candidates,
    const ExecPolicy& policy = {});

// Number of scalar aggregates the regression batch expands to (3 per
// candidate); used by the Fig. 5 aggregate-count table.
inline size_t DecisionNodeBatchSize(size_t num_candidates) {
  return 3 * num_candidates;
}

}  // namespace relborg

#endif  // RELBORG_CORE_DECISION_NODE_ENGINE_H_
