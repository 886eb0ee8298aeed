#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"
#include "util/flat_hash_map.h"

namespace relborg {
namespace {

Predicate Negate(const Predicate& p) {
  Predicate n = p;
  switch (p.op) {
    case Predicate::Op::kGe:
      n.op = Predicate::Op::kLt;
      break;
    case Predicate::Op::kLt:
      n.op = Predicate::Op::kGe;
      break;
    case Predicate::Op::kEq:
      n.op = Predicate::Op::kNe;
      break;
    case Predicate::Op::kNe:
      n.op = Predicate::Op::kEq;
      break;
    case Predicate::Op::kInSet:
      n.op = Predicate::Op::kNotInSet;
      break;
    case Predicate::Op::kNotInSet:
      n.op = Predicate::Op::kInSet;
      break;
  }
  return n;
}

// Evaluates a split predicate against a plain feature value (prediction
// path; no relation involved).
bool MatchesValue(const Predicate& p, double v) {
  switch (p.op) {
    case Predicate::Op::kGe:
      return v >= p.threshold;
    case Predicate::Op::kLt:
      return v < p.threshold;
    case Predicate::Op::kEq:
      return static_cast<int32_t>(v) == p.category;
    case Predicate::Op::kNe:
      return static_cast<int32_t>(v) != p.category;
    case Predicate::Op::kInSet:
      return std::binary_search(p.set.begin(), p.set.end(),
                                static_cast<int32_t>(v));
    case Predicate::Op::kNotInSet:
      return !std::binary_search(p.set.begin(), p.set.end(),
                                 static_cast<int32_t>(v));
  }
  return false;
}

double SseOf(const SplitStats& s) {
  if (s.count <= 0) return 0;
  double sse = s.sum_sq - s.sum * s.sum / s.count;
  return sse < 0 ? 0 : sse;
}

struct ClassStats {
  double count = 0;
  FlatHashMap<double> per_class;
};

double GiniImpurity(const ClassStats& s) {
  if (s.count <= 0) return 0;
  double sum_sq = 0;
  s.per_class.ForEach([&](uint64_t, double c) { sum_sq += c * c; });
  return s.count * (1.0 - sum_sq / (s.count * s.count));
}

double MajorityClass(const ClassStats& s) {
  double best_count = -1;
  uint64_t best_class = 0;
  s.per_class.ForEach([&](uint64_t cls, double c) {
    if (c > best_count) {
      best_count = c;
      best_class = cls;
    }
  });
  return static_cast<double>(UnpackLow(best_class));
}

}  // namespace

std::vector<SplitCandidate> BuildSplitCandidates(
    const JoinQuery& query, const std::vector<TreeFeature>& features,
    const DecisionTreeOptions& options, std::vector<int>* candidate_feature) {
  std::vector<SplitCandidate> candidates;
  for (size_t f = 0; f < features.size(); ++f) {
    const TreeFeature& tf = features[f];
    int node = query.IndexOf(tf.relation);
    const Relation& rel = *query.relation(node);
    int attr = rel.schema().MustIndexOf(tf.attr);
    if (!tf.categorical) {
      RELBORG_CHECK(rel.schema().attr(attr).type == AttrType::kDouble);
      // Quantile thresholds from (a sample of) the relation's own column.
      std::vector<double> values;
      size_t stride = std::max<size_t>(1, rel.num_rows() / 20000);
      for (size_t row = 0; row < rel.num_rows(); row += stride) {
        values.push_back(rel.Double(row, attr));
      }
      if (values.empty()) continue;
      std::sort(values.begin(), values.end());
      double last = std::numeric_limits<double>::quiet_NaN();
      for (int t = 1; t <= options.thresholds_per_feature; ++t) {
        size_t idx = values.size() * t / (options.thresholds_per_feature + 1);
        if (idx >= values.size()) idx = values.size() - 1;
        double thr = values[idx];
        if (thr == last) continue;  // dedupe equal quantiles
        last = thr;
        candidates.push_back(
            {node, Predicate::Ge(static_cast<int>(attr), thr)});
        if (candidate_feature != nullptr) {
          candidate_feature->push_back(static_cast<int>(f));
        }
      }
    } else {
      RELBORG_CHECK(rel.schema().attr(attr).type == AttrType::kCategorical);
      // Most frequent categories.
      FlatHashMap<double> freq;
      for (size_t row = 0; row < rel.num_rows(); ++row) {
        freq[PackKey1(rel.Cat(row, attr))] += 1;
      }
      std::vector<std::pair<double, int32_t>> ranked;
      freq.ForEach([&](uint64_t key, double c) {
        ranked.push_back({c, UnpackLow(key)});
      });
      std::sort(ranked.rbegin(), ranked.rend());
      int take = std::min<int>(options.categories_per_feature,
                               static_cast<int>(ranked.size()));
      for (int t = 0; t < take; ++t) {
        candidates.push_back(
            {node, Predicate::Eq(static_cast<int>(attr), ranked[t].second)});
        if (candidate_feature != nullptr) {
          candidate_feature->push_back(static_cast<int>(f));
        }
      }
    }
  }
  return candidates;
}

DecisionTree DecisionTree::Train(const JoinQuery& query,
                                 const FeatureRef& response,
                                 const std::vector<TreeFeature>& features,
                                 const DecisionTreeOptions& options,
                                 bool classification) {
  DecisionTree tree;
  const int response_node = query.IndexOf(response.relation);
  const int response_attr =
      query.relation(response_node)->schema().MustIndexOf(response.attr);

  std::vector<int> candidate_feature;
  std::vector<SplitCandidate> candidates =
      BuildSplitCandidates(query, features, options, &candidate_feature);

  // A trivially-true candidate computes the node's own statistics within
  // the same batch.
  SplitCandidate base;
  base.node = response_node;
  base.pred = classification
                  ? Predicate::Ne(response_attr, -1)
                  : Predicate::Ge(response_attr,
                                  -std::numeric_limits<double>::infinity());
  std::vector<SplitCandidate> batch = candidates;
  batch.push_back(base);
  // A node that cannot split evaluates the base candidate alone: the
  // engine computes each candidate independently of the others in the
  // batch, so its count and prediction stay bit-identical.
  const std::vector<SplitCandidate> base_only{base};

  // A node can split below max_depth once the exact count its parent
  // computed for it reaches min_node_count (the root's count is unknown
  // until its own batch runs).
  auto can_split = [&](int depth, double count) {
    return depth < options.max_depth && count >= options.min_node_count;
  };
  struct WorkItem {
    int node_index;
    FilterSet filters;
    int depth;
    bool can_split;
  };
  tree.nodes_.push_back(Node{});
  std::vector<WorkItem> work{{0, FilterSet(query.num_relations()), 0,
                              options.max_depth > 0}};

  while (!work.empty()) {
    WorkItem item = std::move(work.back());
    work.pop_back();
    Node& node = tree.nodes_[item.node_index];
    const std::vector<SplitCandidate>& node_batch =
        item.can_split ? batch : base_only;
    const size_t base_idx = node_batch.size() - 1;

    int best = -1;
    double best_gain = options.min_gain;
    Node yes_node;
    Node no_node;

    if (!classification) {
      std::vector<SplitStats> stats = ComputeSplitStats(
          query, response_node, response_attr, item.filters, node_batch);
      tree.aggregates_evaluated_ += DecisionNodeBatchSize(node_batch.size());
      const SplitStats& parent = stats[base_idx];
      node.count = parent.count;
      node.prediction = parent.count > 0 ? parent.sum / parent.count : 0;
      if (!item.can_split || parent.count < options.min_node_count) {
        continue;  // leaf
      }
      double parent_sse = SseOf(parent);
      for (size_t i = 0; i < candidates.size(); ++i) {
        SplitStats no_stats{parent.count - stats[i].count,
                            parent.sum - stats[i].sum,
                            parent.sum_sq - stats[i].sum_sq};
        if (stats[i].count < 1 || no_stats.count < 1) continue;
        double gain = parent_sse - SseOf(stats[i]) - SseOf(no_stats);
        if (gain > best_gain) {
          best_gain = gain;
          best = static_cast<int>(i);
          yes_node.count = stats[i].count;
          yes_node.prediction = stats[i].sum / stats[i].count;
          no_node.count = no_stats.count;
          no_node.prediction = no_stats.sum / no_stats.count;
        }
      }
    } else {
      std::vector<FlatHashMap<double>> counts = ComputeSplitClassCounts(
          query, response_node, response_attr, item.filters, node_batch);
      tree.aggregates_evaluated_ += node_batch.size();
      ClassStats parent;
      counts[base_idx].ForEach([&](uint64_t cls, double c) {
        parent.per_class[cls] += c;
        parent.count += c;
      });
      node.count = parent.count;
      node.prediction = MajorityClass(parent);
      if (!item.can_split || parent.count < options.min_node_count) {
        continue;
      }
      double parent_gini = GiniImpurity(parent);
      for (size_t i = 0; i < candidates.size(); ++i) {
        ClassStats yes;
        counts[i].ForEach([&](uint64_t cls, double c) {
          yes.per_class[cls] += c;
          yes.count += c;
        });
        ClassStats no;
        parent.per_class.ForEach([&](uint64_t cls, double c) {
          const double* y = yes.per_class.Find(cls);
          double rest = c - (y == nullptr ? 0.0 : *y);
          if (rest > 0) {
            no.per_class[cls] += rest;
            no.count += rest;
          }
        });
        if (yes.count < 1 || no.count < 1) continue;
        double gain = parent_gini - GiniImpurity(yes) - GiniImpurity(no);
        if (gain > best_gain) {
          best_gain = gain;
          best = static_cast<int>(i);
          yes_node.count = yes.count;
          yes_node.prediction = MajorityClass(yes);
          no_node.count = no.count;
          no_node.prediction = MajorityClass(no);
        }
      }
    }

    if (best < 0) continue;  // no useful split: leaf
    node.is_leaf = false;
    node.feature = candidate_feature[best];
    node.pred = candidates[best].pred;
    node.yes_child = static_cast<int>(tree.nodes_.size());
    node.no_child = node.yes_child + 1;
    tree.nodes_.push_back(yes_node);
    tree.nodes_.push_back(no_node);

    FilterSet yes_filters = item.filters;
    yes_filters[candidates[best].node].push_back(candidates[best].pred);
    FilterSet no_filters = std::move(item.filters);
    no_filters[candidates[best].node].push_back(Negate(candidates[best].pred));
    work.push_back({tree.nodes_[item.node_index].yes_child,
                    std::move(yes_filters), item.depth + 1,
                    can_split(item.depth + 1, yes_node.count)});
    work.push_back({tree.nodes_[item.node_index].no_child,
                    std::move(no_filters), item.depth + 1,
                    can_split(item.depth + 1, no_node.count)});
  }
  return tree;
}

DecisionTree DecisionTree::TrainRegression(
    const JoinQuery& query, const FeatureRef& response,
    const std::vector<TreeFeature>& features,
    const DecisionTreeOptions& options) {
  return Train(query, response, features, options, /*classification=*/false);
}

DecisionTree DecisionTree::TrainClassification(
    const JoinQuery& query, const FeatureRef& response,
    const std::vector<TreeFeature>& features,
    const DecisionTreeOptions& options) {
  return Train(query, response, features, options, /*classification=*/true);
}

double DecisionTree::Predict(const double* row) const {
  int i = 0;
  while (!nodes_[i].is_leaf) {
    const Node& n = nodes_[i];
    i = MatchesValue(n.pred, row[n.feature]) ? n.yes_child : n.no_child;
  }
  return nodes_[i].prediction;
}

double DecisionTree::Mse(const DataMatrix& data, int response_col) const {
  if (data.num_rows() == 0) return 0;
  double sse = 0;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    double err = Predict(data.Row(r)) - data.At(r, response_col);
    sse += err * err;
  }
  return sse / static_cast<double>(data.num_rows());
}

int DecisionTree::depth() const {
  // Iterative depth computation over the implicit tree.
  std::vector<int> depth(nodes_.size(), 0);
  int max_depth = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].is_leaf) {
      depth[nodes_[i].yes_child] = depth[i] + 1;
      depth[nodes_[i].no_child] = depth[i] + 1;
    }
    max_depth = std::max(max_depth, depth[i]);
  }
  return max_depth;
}

}  // namespace relborg
