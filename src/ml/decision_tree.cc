#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/trace.h"
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
// path; no relation involved). Matches Predicate::Matches: kLt is the
// exact complement of kGe, so a NaN value takes the no-branch.
bool MatchesValue(const Predicate& p, double v) {
  switch (p.op) {
    case Predicate::Op::kGe:
      return v >= p.threshold;
    case Predicate::Op::kLt:
      return !(v >= p.threshold);
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

// Regression statistics of one candidate: (COUNT, SUM(y), SUM(y^2)), with
// the sum of squared errors as the impurity.
struct RegressionStats {
  using Stats = SplitStats;

  static std::vector<SplitStats> Scan(
      const JoinSlots& slots, int response_node, int response_attr,
      const FilterSet& filters, const std::vector<SplitCandidate>& batch) {
    return ComputeSplitStats(slots, response_node, response_attr, filters,
                             batch);
  }
  static size_t Aggregates(size_t batch_size) {
    return DecisionNodeBatchSize(batch_size);
  }
  static double Prediction(const SplitStats& s) {
    return s.count > 0 ? s.sum / s.count : 0;
  }
  static double Impurity(const SplitStats& s) {
    if (s.count <= 0) return 0;
    double sse = s.sum_sq - s.sum * s.sum / s.count;
    return sse < 0 ? 0 : sse;
  }
  static SplitStats Minus(const SplitStats& a, const SplitStats& b) {
    return {a.count - b.count, a.sum - b.sum, a.sum_sq - b.sum_sq};
  }
};

struct ClassStats {
  double count = 0;
  FlatHashMap<double> per_class;
};

// Classification statistics of one candidate: its per-class counts, with
// the Gini impurity scaled by the count.
struct ClassificationStats {
  using Stats = ClassStats;

  static std::vector<ClassStats> Scan(
      const JoinSlots& slots, int response_node, int response_attr,
      const FilterSet& filters, const std::vector<SplitCandidate>& batch) {
    std::vector<FlatHashMap<double>> counts = ComputeSplitClassCounts(
        slots, response_node, response_attr, filters, batch);
    std::vector<ClassStats> stats(counts.size());
    for (size_t i = 0; i < counts.size(); ++i) {
      counts[i].ForEach([&](uint64_t, double c) { stats[i].count += c; });
      stats[i].per_class = std::move(counts[i]);
    }
    return stats;
  }
  // One aggregate (a per-class count map) per candidate.
  static size_t Aggregates(size_t batch_size) { return batch_size; }
  // The most frequent class; ties go to the smallest class code, so the
  // result does not depend on the map's insertion history.
  static double Prediction(const ClassStats& s) {
    double best_count = -1;
    int32_t best_class = 0;
    s.per_class.ForEach([&](uint64_t key, double c) {
      const int32_t cls = UnpackLow(key);
      if (c > best_count || (c == best_count && cls < best_class)) {
        best_count = c;
        best_class = cls;
      }
    });
    return static_cast<double>(best_class);
  }
  static double Impurity(const ClassStats& s) {
    if (s.count <= 0) return 0;
    double sum_sq = 0;
    s.per_class.ForEach([&](uint64_t, double c) { sum_sq += c * c; });
    return s.count * (1.0 - sum_sq / (s.count * s.count));
  }
  // Counts are integers, so the difference is exact; classes left with no
  // rows are dropped.
  static ClassStats Minus(const ClassStats& a, const ClassStats& b) {
    ClassStats d;
    a.per_class.ForEach([&](uint64_t cls, double c) {
      const double* sub = b.per_class.Find(cls);
      double rest = c - (sub == nullptr ? 0.0 : *sub);
      if (rest > 0) {
        d.per_class[cls] += rest;
        d.count += rest;
      }
    });
    return d;
  }
};

// Grows the tree into *nodes and returns the number of aggregates scanned.
//
// A node that can split needs its full candidate statistics: the batch of
// every candidate plus the always-true base candidate, evaluated under the
// node's path condition. Every batch reads the same index of the join
// keys; path filters never change it. The root scans its batch. At a
// split, both children's counts are known exactly from the parent's batch,
// so each child's ability to split is too. If both can split, the child with the
// smaller count scans its batch and the sibling's is derived candidate by
// candidate: stats(no AND c) = stats(parent AND c) - stats(yes AND c). If
// one can split, it scans. A child that cannot split is a leaf whose count
// and prediction the parent's batch already holds; it scans nothing.
template <typename Task>
size_t GrowTree(const JoinSlots& slots, int response_node, int response_attr,
                const std::vector<SplitCandidate>& candidates,
                const SplitCandidate& base,
                const std::vector<int>& candidate_feature,
                const DecisionTreeOptions& options,
                std::vector<DecisionTree::Node>* nodes) {
  using Stats = typename Task::Stats;
  std::vector<SplitCandidate> batch = candidates;
  batch.push_back(base);
  const size_t base_idx = candidates.size();

  size_t aggregates = 0;
  auto scan = [&](const FilterSet& filters,
                  const std::vector<SplitCandidate>& scanned) {
    aggregates += Task::Aggregates(scanned.size());
    return Task::Scan(slots, response_node, response_attr, filters, scanned);
  };
  auto set_stats = [&](int index, const Stats& s) {
    (*nodes)[index].count = s.count;
    (*nodes)[index].prediction = Task::Prediction(s);
  };
  auto can_split = [&](int depth, const Stats& s) {
    return depth < options.max_depth && s.count >= options.min_node_count;
  };

  nodes->push_back(DecisionTree::Node{});
  FilterSet root_filters(slots.tree().num_nodes());
  if (options.max_depth <= 0) {
    set_stats(0, scan(root_filters, {base})[0]);
    return aggregates;
  }

  // At most one pending sibling per level, so about max_depth stats
  // vectors are live at once.
  struct WorkItem {
    int node_index;
    FilterSet filters;
    int depth;
    std::vector<Stats> stats;  // the full batch, scanned or derived
  };
  std::vector<WorkItem> work;
  std::vector<Stats> root_stats = scan(root_filters, batch);
  work.push_back({0, std::move(root_filters), 0, std::move(root_stats)});

  while (!work.empty()) {
    WorkItem item = std::move(work.back());
    work.pop_back();
    const std::vector<Stats>& stats = item.stats;
    const Stats& parent = stats[base_idx];
    // A node that holds a batch takes its count and prediction from the
    // base candidate: a scanned one is bit-equal to a base-only scan.
    set_stats(item.node_index, parent);
    // Only the root's count is unknown until its own batch runs.
    if (parent.count < options.min_node_count) continue;

    int best = -1;
    double best_gain = options.min_gain;
    const double parent_impurity = Task::Impurity(parent);
    for (size_t i = 0; i < candidates.size(); ++i) {
      const Stats no = Task::Minus(parent, stats[i]);
      if (stats[i].count < 1 || no.count < 1) continue;
      double gain =
          parent_impurity - Task::Impurity(stats[i]) - Task::Impurity(no);
      if (gain > best_gain) {
        best_gain = gain;
        best = static_cast<int>(i);
      }
    }
    if (best < 0) continue;  // no useful split: leaf

    const Stats& yes = stats[best];
    const Stats no = Task::Minus(parent, yes);
    const int yes_child = static_cast<int>(nodes->size());
    const int no_child = yes_child + 1;
    DecisionTree::Node& node = (*nodes)[item.node_index];
    node.is_leaf = false;
    node.feature = candidate_feature[best];
    node.pred = candidates[best].pred;
    node.yes_child = yes_child;
    node.no_child = no_child;
    nodes->resize(nodes->size() + 2);
    set_stats(yes_child, yes);
    set_stats(no_child, no);

    const int depth = item.depth + 1;
    const bool yes_splits = can_split(depth, yes);
    const bool no_splits = can_split(depth, no);
    FilterSet yes_filters = item.filters;
    yes_filters[candidates[best].node].push_back(candidates[best].pred);
    FilterSet no_filters = std::move(item.filters);
    no_filters[candidates[best].node].push_back(Negate(candidates[best].pred));

    std::vector<Stats> yes_stats;
    std::vector<Stats> no_stats;
    auto derive = [&](const std::vector<Stats>& scanned) {
      std::vector<Stats> sibling;
      sibling.reserve(stats.size());
      for (size_t i = 0; i < stats.size(); ++i) {
        sibling.push_back(Task::Minus(stats[i], scanned[i]));
      }
      return sibling;
    };
    if (yes_splits && no_splits) {
      if (yes.count <= no.count) {
        yes_stats = scan(yes_filters, batch);
        no_stats = derive(yes_stats);
      } else {
        no_stats = scan(no_filters, batch);
        yes_stats = derive(no_stats);
      }
    } else if (yes_splits) {
      yes_stats = scan(yes_filters, batch);
    } else if (no_splits) {
      no_stats = scan(no_filters, batch);
    }
    // Yes before no: the no child pops first, which fixes the depth-first
    // node numbering.
    if (yes_splits) {
      work.push_back(
          {yes_child, std::move(yes_filters), depth, std::move(yes_stats)});
    }
    if (no_splits) {
      work.push_back(
          {no_child, std::move(no_filters), depth, std::move(no_stats)});
    }
  }
  return aggregates;
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
      // Non-finite values are left out: NaN would break the sort's strict
      // weak ordering, and an infinite threshold splits nothing useful.
      std::vector<double> values;
      size_t stride = std::max<size_t>(1, rel.num_rows() / 20000);
      for (size_t row = 0; row < rel.num_rows(); row += stride) {
        const double v = rel.Double(row, attr);
        if (std::isfinite(v)) values.push_back(v);
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
  // One index of the join keys serves every batch of this training.
  const JoinSlots slots = [&] {
    RELBORG_TRACE_SPAN("query/join-slots", "query", -1, -1);
    return JoinSlots(DecisionNodeRooting(query));
  }();
  tree.aggregates_evaluated_ =
      classification
          ? GrowTree<ClassificationStats>(slots, response_node, response_attr,
                                          candidates, base, candidate_feature,
                                          options, &tree.nodes_)
          : GrowTree<RegressionStats>(slots, response_node, response_attr,
                                      candidates, base, candidate_feature,
                                      options, &tree.nodes_);
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
