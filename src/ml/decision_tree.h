// CART decision trees trained over aggregates (Sec. 2.2).
//
// Each tree node that can still split evaluates its whole batch of
// candidate-split cost functions through the decision-node engine (shared
// factorized messages) instead of scanning a materialized data matrix:
// VARIANCE(Y) under the path condition AND the split condition for
// regression, per-class counts (Gini) for classification.
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

  // Total number of candidate-split aggregates evaluated during training
  // (the "decision node" rows of Fig. 5 count one node's batch). A node
  // that can split evaluates the whole batch: every candidate plus the
  // always-true base candidate. Any other node evaluates the base
  // candidate alone. A node can split when its depth is below max_depth
  // and, below the root, the exact count its parent computed for it is at
  // least min_node_count. Regression counts 3 aggregates per evaluated
  // candidate (DecisionNodeBatchSize): 3 x (batch size) per node that can
  // split plus 3 per node that cannot. Classification counts 1 (a
  // per-class count map) per evaluated candidate.
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
