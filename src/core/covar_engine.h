// Factorized computation of the covariance-matrix aggregate batch
// (SUM(1), SUM(x_i), SUM(x_i * x_j) for all features) directly over the
// join tree of the feature-extraction query, without materializing the join.
//
// Four execution modes implement the optimization ladder of Figure 6 of the
// paper (each adds one optimization on top of the previous):
//
//   kPerAggregateInterpreted  one bottom-up pass per aggregate, evaluating
//                             an interpreted expression per tuple through
//                             virtual dispatch over a materialized generic
//                             row buffer. Models the unspecialized
//                             AC/DC-style baseline (1x).
//   kPerAggregate             + code specialization: static per-node
//                             multiplier lists, direct column reads. Still
//                             one pass per aggregate.
//   kShared                   + sharing: a single pass with the covariance
//                             ring computes the whole batch at once, with
//                             payloads in arena storage (ring/covar_arena.h)
//                             and the fused lift-multiply-accumulate kernel.
//                             Each view stores only its subtree's moments:
//                             view v's payloads have the width of v's
//                             feature scope S_v (1 + |S_v| + |S_v|(|S_v|+1)/2
//                             doubles per key), and only the root's is full
//                             width. Narrowing moves no bit of the result.
//                             A GROUPED node (one child's join key contains
//                             the node's parent key and the keys of at least
//                             one other child, e.g. Retailer's Inventory
//                             with Weather(locn, dateid) and Stores(locn))
//                             sums its rows per anchor key first and
//                             multiplies the children nested in that key
//                             once per key instead of once per row.
//   kSharedParallel           + parallelization: task parallelism across
//                             independent subtrees and domain parallelism
//                             over partitions of the root relation (of its
//                             key groups, when grouped).
#ifndef RELBORG_CORE_COVAR_ENGINE_H_
#define RELBORG_CORE_COVAR_ENGINE_H_

#include "core/exec_policy.h"
#include "core/feature_map.h"
#include "query/join_tree.h"
#include "query/predicate.h"
#include "ring/covariance.h"

namespace relborg {

enum class ExecMode {
  kPerAggregateInterpreted,
  kPerAggregate,
  kShared,
  kSharedParallel,
};

struct CovarEngineOptions {
  ExecMode mode = ExecMode::kShared;
  // Execution policy for kSharedParallel. The default (threads == 0) is
  // resolved through ExecPolicy::FromEnv() at evaluation time; pass an
  // explicit ExecPolicy{N} for a fixed thread count. Results are
  // bit-identical for every N >= 1 (see core/exec_policy.h).
  ExecPolicy policy;
};

// Computes the full covariance batch over the join defined by `tree`.
// `filters` may be empty (no predicates) or have one entry per node.
CovarMatrix ComputeCovarMatrix(const RootedTree& tree, const FeatureMap& fm,
                               const FilterSet& filters = {},
                               const CovarEngineOptions& options = {});

// Single scalar aggregate SUM(x_i * x_j) over the join, where index
// fm.num_features() denotes the constant 1 (so (n, n) is the count).
// Exposed for the per-aggregate baselines and tests.
double ComputeScalarMoment(const RootedTree& tree, const FeatureMap& fm,
                           int i, int j, const FilterSet& filters = {},
                           bool interpreted = false);

// Number of aggregates in the covariance batch for n features (including
// SUM(1) and the response column): (n+1)(n+2)/2.
inline size_t CovarBatchSize(int n) {
  return static_cast<size_t>(n + 1) * (n + 2) / 2;
}

}  // namespace relborg

#endif  // RELBORG_CORE_COVAR_ENGINE_H_
