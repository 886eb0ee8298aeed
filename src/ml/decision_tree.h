// CART decision trees trained over aggregates (Sec. 2.2).
//
// Each tree node that can still split needs its whole batch of
// candidate-split cost functions: VARIANCE(Y) under the path condition AND
// the split condition for regression, per-class counts (Gini) for
// classification. The root scans its batch through the decision-node
// engine (shared factorized messages) instead of a materialized data
// matrix. Below it, the aggregates live in rings with additive inverses,
// so a split scans only the smaller child's batch and derives the
// sibling's as parent minus scanned, candidate by candidate (the
// histogram-subtraction trick of gradient-boosted trees). A leaf takes its
// count and prediction from its parent's batch and scans nothing. Every
// batch of one training reads one JoinSlots index of the join keys, built
// when training starts.
#ifndef RELBORG_ML_DECISION_TREE_H_
#define RELBORG_ML_DECISION_TREE_H_

#include <string>
#include <vector>

#include "baseline/data_matrix.h"
#include "core/decision_node_engine.h"
#include "core/feature_map.h"
#include "query/join_tree.h"

namespace relborg {

// A tree feature: continuous features split on thresholds, categorical
// features split on equality with frequent categories.
struct TreeFeature {
  std::string relation;
  std::string attr;
  bool categorical = false;
};

struct DecisionTreeOptions {
  int max_depth = 4;
  double min_node_count = 50;     // do not split smaller nodes
  int thresholds_per_feature = 8; // quantile candidates per continuous attr
  int categories_per_feature = 8; // equality candidates per categorical attr
  double min_gain = 1e-9;
};

class DecisionTree {
 public:
  struct Node {
    bool is_leaf = true;
    double prediction = 0;     // mean response (regression) or class code
    int feature = -1;          // index into the training feature list
    Predicate pred;            // split condition relative to that feature
    int yes_child = -1;
    int no_child = -1;
    double count = 0;
  };

  // Trains a regression tree. `features` are the splitting attributes;
  // `response` must be continuous and is NOT part of `features`.
  static DecisionTree TrainRegression(const JoinQuery& query,
                                      const FeatureRef& response,
                                      const std::vector<TreeFeature>& features,
                                      const DecisionTreeOptions& options = {});

  // Trains a classification tree; the response must be categorical.
  static DecisionTree TrainClassification(
      const JoinQuery& query, const FeatureRef& response,
      const std::vector<TreeFeature>& features,
      const DecisionTreeOptions& options = {});

  // Predicts for a row whose column i holds the value of training feature i
  // (categorical features as their code).
  double Predict(const double* row) const;

  // Mean squared prediction error over a data matrix whose first
  // `features.size()` columns are the features (training order) and whose
  // column `response_col` is the response.
  double Mse(const DataMatrix& data, int response_col) const;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const Node& node(int i) const { return nodes_[i]; }
  int depth() const;

  // Total number of candidate-split aggregates scanned during training
  // (the "decision node" rows of Fig. 5 count one node's batch). A batch
  // is every candidate plus the always-true base candidate. A node can
  // split when its depth is below max_depth and, below the root, the exact
  // count its parent computed for it is at least min_node_count. The root
  // scans one batch (the base candidate alone when max_depth is 0). Each
  // split scans one more batch if a child can split: that child's, or,
  // when both can, the one with the smaller count, the sibling's batch
  // being derived by subtraction and not counted. Leaves scan nothing.
  // Regression counts 3 aggregates per scanned candidate
  // (DecisionNodeBatchSize); classification counts 1 (a per-class count
  // map).
  //
  // Rounding: counts and class counts are integers, so derived ones are
  // exact. A derived or parent-held regression SUM(y) / SUM(y^2) differs
  // from a direct scan of the node's rows by rounding only (predictions
  // within 1e-12 relative on Retailer).
  size_t aggregates_evaluated() const { return aggregates_evaluated_; }

 private:
  static DecisionTree Train(const JoinQuery& query, const FeatureRef& response,
                            const std::vector<TreeFeature>& features,
                            const DecisionTreeOptions& options,
                            bool classification);

  std::vector<Node> nodes_;
  size_t aggregates_evaluated_ = 0;
};

// Builds the candidate splits for one tree node: quantile thresholds for
// continuous features, frequent-category equality tests for categorical
// ones. Exposed for the Fig. 5 aggregate-count table. candidate_feature[i]
// receives the feature index of candidates[i].
std::vector<SplitCandidate> BuildSplitCandidates(
    const JoinQuery& query, const std::vector<TreeFeature>& features,
    const DecisionTreeOptions& options, std::vector<int>* candidate_feature);

}  // namespace relborg

#endif  // RELBORG_ML_DECISION_TREE_H_
