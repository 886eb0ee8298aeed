// Tests for decision trees, PCA, mutual information / Chow-Liu, FD
// reparameterization, and model selection.
#include <cmath>
#include <cstring>
#include <limits>

#include "baseline/materializer.h"
#include "core/covar_engine.h"
#include "data/dataset.h"
#include "gtest/gtest.h"
#include "ml/decision_tree.h"
#include "ml/fd_reparam.h"
#include "ml/model_selection.h"
#include "ml/mutual_information.h"
#include "ml/pca.h"
#include "tests/test_util.h"

namespace relborg {
namespace {

using testing::MakeRandomDb;
using testing::RandomDb;
using testing::Topology;

// --- Decision trees ---

// A two-relation database with an obvious split structure.
struct TreeFixture {
  Catalog catalog;
  JoinQuery query;
};

// With nan_x_every > 0, every nan_x_every-th F.x (from row 0) is NaN; the
// response is drawn as if it were not. With nan_y_every > 0, every
// nan_y_every-th F.y (from row 0) is NaN.
void BuildTreeDb(TreeFixture* fx, int rows = 2000, int nan_x_every = 0,
                 int nan_y_every = 0) {
  Schema fact({{"k", AttrType::kCategorical},
               {"x", AttrType::kDouble},
               {"y", AttrType::kDouble}});
  Schema dim({{"k", AttrType::kCategorical},
              {"g", AttrType::kCategorical},
              {"z", AttrType::kDouble}});
  Relation* f = fx->catalog.AddRelation("F", fact);
  Relation* d = fx->catalog.AddRelation("D", dim);
  Rng rng(17);
  const int kDomain = 20;
  std::vector<double> zs(kDomain);
  for (int k = 0; k < kDomain; ++k) {
    zs[k] = rng.Uniform(-1, 1);
    d->AppendRow({static_cast<double>(k), static_cast<double>(k % 3), zs[k]});
  }
  for (int i = 0; i < rows; ++i) {
    int k = static_cast<int>(rng.Below(kDomain));
    double x = rng.Uniform(-2, 2);
    // Piecewise response: step on x at 0.5, step on z at 0.
    double y = (x >= 0.5 ? 5.0 : 0.0) + (zs[k] >= 0 ? 2.0 : 0.0) +
               rng.Gaussian(0, 0.1);
    if (nan_x_every > 0 && i % nan_x_every == 0) {
      x = std::numeric_limits<double>::quiet_NaN();
    }
    if (nan_y_every > 0 && i % nan_y_every == 0) {
      y = std::numeric_limits<double>::quiet_NaN();
    }
    f->AppendRow({static_cast<double>(k), x, y});
  }
  fx->query.AddRelation(f);
  fx->query.AddRelation(d);
  fx->query.AddJoin("F", "D", {"k"});
}

TEST(DecisionTreeTest, FindsPlantedSplits) {
  TreeFixture fx;
  BuildTreeDb(&fx);
  std::vector<TreeFeature> features{{"F", "x", false}, {"D", "z", false}};
  DecisionTreeOptions opts;
  opts.max_depth = 3;
  opts.thresholds_per_feature = 16;
  DecisionTree tree = DecisionTree::TrainRegression(
      fx.query, FeatureRef{"F", "y"}, features, opts);
  EXPECT_GT(tree.num_nodes(), 3);
  EXPECT_GT(tree.aggregates_evaluated(), 0u);

  // MSE over the materialized join must be far below the response variance.
  RootedTree rt = fx.query.Root("F");
  DataMatrix data = MaterializeJoin(
      rt, std::vector<ColumnRef>{{"F", "x"}, {"D", "z"}, {"F", "y"}});
  double mse = tree.Mse(data, 2);
  double mean = 0, var = 0;
  for (size_t r = 0; r < data.num_rows(); ++r) mean += data.At(r, 2);
  mean /= static_cast<double>(data.num_rows());
  for (size_t r = 0; r < data.num_rows(); ++r) {
    var += (data.At(r, 2) - mean) * (data.At(r, 2) - mean);
  }
  var /= static_cast<double>(data.num_rows());
  EXPECT_LT(mse, 0.1 * var);
  EXPECT_LE(tree.depth(), opts.max_depth);
}

TEST(DecisionTreeTest, CategoricalSplits) {
  TreeFixture fx;
  BuildTreeDb(&fx);
  // Response depends on g only through z's sign; a categorical-only tree
  // still must beat the mean predictor using g as proxy where informative.
  std::vector<TreeFeature> features{{"F", "x", false}, {"D", "g", true}};
  DecisionTree tree = DecisionTree::TrainRegression(
      fx.query, FeatureRef{"F", "y"}, features, {});
  EXPECT_GT(tree.num_nodes(), 1);
  RootedTree rt = fx.query.Root("F");
  DataMatrix data = MaterializeJoin(
      rt, std::vector<ColumnRef>{{"F", "x"}, {"D", "g"}, {"F", "y"}});
  double mse = tree.Mse(data, 2);
  EXPECT_LT(mse, 4.0);  // x-splits alone capture the big step
}

TEST(DecisionTreeTest, ClassificationOnSeparableData) {
  Catalog catalog;
  Schema fact({{"k", AttrType::kCategorical},
               {"x", AttrType::kDouble},
               {"label", AttrType::kCategorical}});
  Schema dim({{"k", AttrType::kCategorical}});
  Relation* f = catalog.AddRelation("F", fact);
  Relation* d = catalog.AddRelation("D", dim);
  d->AppendRow({0});
  Rng rng(23);
  for (int i = 0; i < 1500; ++i) {
    double x = rng.Uniform(-1, 1);
    int label = x >= 0.2 ? 1 : 0;
    // 5% label noise.
    if (rng.Uniform() < 0.05) label = 1 - label;
    f->AppendRow({0, x, static_cast<double>(label)});
  }
  JoinQuery q;
  q.AddRelation(f);
  q.AddRelation(d);
  q.AddJoin("F", "D", {"k"});
  DecisionTreeOptions opts;
  opts.max_depth = 2;
  opts.thresholds_per_feature = 20;
  DecisionTree tree = DecisionTree::TrainClassification(
      q, FeatureRef{"F", "label"}, {{"F", "x", false}}, opts);
  // Accuracy on the training data should be ~95%.
  int correct = 0;
  for (size_t r = 0; r < f->num_rows(); ++r) {
    double row[1] = {f->Double(r, 1)};
    if (static_cast<int>(tree.Predict(row)) == f->Cat(r, 2)) ++correct;
  }
  EXPECT_GT(correct, 1350);
}

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

// The no-branch condition DecisionTree::Train adds for a split predicate.
Predicate Negated(const Predicate& p) {
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

// A node of a trained tree with the path filters that select its rows.
struct PathNode {
  int index;
  FilterSet filters;
  int depth;
};

// Calls fn(PathNode) for every node of `tree`.
template <typename Fn>
void ForEachPath(const DecisionTree& tree, const JoinQuery& query,
                 const std::vector<TreeFeature>& features, Fn&& fn) {
  std::vector<PathNode> stack{{0, FilterSet(query.num_relations()), 0}};
  while (!stack.empty()) {
    PathNode item = std::move(stack.back());
    stack.pop_back();
    fn(item);
    const DecisionTree::Node& n = tree.node(item.index);
    if (n.is_leaf) continue;
    const int rel = query.IndexOf(features[n.feature].relation);
    FilterSet yes = item.filters;
    yes[rel].push_back(n.pred);
    FilterSet no = item.filters;
    no[rel].push_back(Negated(n.pred));
    stack.push_back({n.yes_child, std::move(yes), item.depth + 1});
    stack.push_back({n.no_child, std::move(no), item.depth + 1});
  }
}

// |a - b| relative to the larger magnitude; 0 when both are 0.
double RelDiff(double a, double b) {
  const double scale = std::max(std::abs(a), std::abs(b));
  return scale == 0 ? 0 : std::abs(a - b) / scale;
}

// The batches DecisionTree::Train scans, recomputed from the tree's shape.
// A node can split below max_depth once its count reaches min_node_count.
// The root scans its batch (a base-only one at max_depth 0). A split with
// one child that can split scans that child's batch; a split with two
// scans the smaller child's and derives its sibling's (counted in
// `derived`). Nothing else scans.
struct ScannedBatches {
  size_t full = 0;
  size_t base_only = 0;
  int derived = 0;
};

ScannedBatches ExpectedScans(const DecisionTree& tree, const JoinQuery& query,
                             const std::vector<TreeFeature>& features,
                             const DecisionTreeOptions& opts) {
  ScannedBatches scans;
  if (opts.max_depth <= 0) {
    scans.base_only = 1;
    return scans;
  }
  scans.full = 1;
  ForEachPath(tree, query, features, [&](const PathNode& p) {
    const DecisionTree::Node& n = tree.node(p.index);
    if (n.is_leaf) return;
    auto splits = [&](int child) {
      return p.depth + 1 < opts.max_depth &&
             tree.node(child).count >= opts.min_node_count;
    };
    const bool yes = splits(n.yes_child);
    const bool no = splits(n.no_child);
    if (yes || no) ++scans.full;
    if (yes && no) ++scans.derived;
  });
  return scans;
}

TEST(DecisionTreeTest, NodeStatsMatchBaseCandidateAlone) {
  TreeFixture fx;
  BuildTreeDb(&fx);
  std::vector<TreeFeature> features{
      {"F", "x", false}, {"D", "z", false}, {"D", "g", true}};
  DecisionTreeOptions opts;
  opts.max_depth = 4;
  opts.min_node_count = 300;
  DecisionTree tree = DecisionTree::TrainRegression(
      fx.query, FeatureRef{"F", "y"}, features, opts);

  const int response_node = fx.query.IndexOf("F");
  const int response_attr =
      fx.query.relation(response_node)->schema().MustIndexOf("y");
  const SplitCandidate base{
      response_node,
      Predicate::Ge(response_attr, -std::numeric_limits<double>::infinity())};
  const size_t batch =
      BuildSplitCandidates(fx.query, features, opts, nullptr).size() + 1;

  int stopped_by_depth = 0;
  int stopped_by_count = 0;
  ForEachPath(tree, fx.query, features, [&](const PathNode& p) {
    const DecisionTree::Node& n = tree.node(p.index);
    const SplitStats s = ComputeSplitStats(fx.query, response_node,
                                           response_attr, p.filters, {base})[0];
    // Counts are exact whether scanned or derived; sums of a derived or
    // parent-held node differ from a direct scan by rounding only.
    EXPECT_EQ(Bits(n.count), Bits(s.count)) << "node " << p.index;
    EXPECT_LE(RelDiff(n.prediction, s.count > 0 ? s.sum / s.count : 0), 1e-9)
        << "node " << p.index;
    if (p.depth >= opts.max_depth) {
      ++stopped_by_depth;
    } else if (p.index != 0 && n.count < opts.min_node_count) {
      ++stopped_by_count;
    }
  });
  const ScannedBatches scans = ExpectedScans(tree, fx.query, features, opts);
  EXPECT_EQ(tree.aggregates_evaluated(),
            DecisionNodeBatchSize(scans.full * batch + scans.base_only));
  // Both reasons a node cannot split occur, and some sibling is derived.
  EXPECT_GT(stopped_by_depth, 0);
  EXPECT_GT(stopped_by_count, 0);
  EXPECT_GT(scans.derived, 0);
}

TEST(DecisionTreeTest, ClassificationNodeCountsMatchBaseCandidateAlone) {
  TreeFixture fx;
  BuildTreeDb(&fx);
  std::vector<TreeFeature> features{{"F", "x", false}, {"F", "y", false}};
  DecisionTreeOptions opts;
  opts.max_depth = 3;
  opts.min_node_count = 300;
  DecisionTree tree = DecisionTree::TrainClassification(
      fx.query, FeatureRef{"D", "g"}, features, opts);

  const int response_node = fx.query.IndexOf("D");
  const int response_attr =
      fx.query.relation(response_node)->schema().MustIndexOf("g");
  const SplitCandidate base{response_node, Predicate::Ne(response_attr, -1)};
  const size_t batch =
      BuildSplitCandidates(fx.query, features, opts, nullptr).size() + 1;

  int leaves = 0;
  ForEachPath(tree, fx.query, features, [&](const PathNode& p) {
    const DecisionTree::Node& n = tree.node(p.index);
    const FlatHashMap<double> counts = ComputeSplitClassCounts(
        fx.query, response_node, response_attr, p.filters, {base})[0];
    double total = 0;
    double majority = -1;
    int32_t majority_class = 0;
    counts.ForEach([&](uint64_t key, double c) {
      total += c;
      const int32_t cls = UnpackLow(key);
      if (c > majority || (c == majority && cls < majority_class)) {
        majority = c;
        majority_class = cls;
      }
    });
    // Class counts are integers, so subtraction is exact: counts and the
    // majority (smallest class code on a tie) match a direct scan.
    EXPECT_EQ(Bits(n.count), Bits(total)) << "node " << p.index;
    EXPECT_EQ(n.prediction, static_cast<double>(majority_class))
        << "node " << p.index;
    if (n.is_leaf) ++leaves;
  });
  const ScannedBatches scans = ExpectedScans(tree, fx.query, features, opts);
  // One aggregate (a per-class count map) per candidate.
  EXPECT_EQ(tree.aggregates_evaluated(), scans.full * batch + scans.base_only);
  EXPECT_GT(scans.derived, 0);
  EXPECT_GT(leaves, 0);
}

TEST(DecisionTreeTest, MajorityTiesGoToTheSmallestClassCode) {
  Catalog catalog;
  Schema fact({{"k", AttrType::kCategorical},
               {"x", AttrType::kDouble},
               {"label", AttrType::kCategorical}});
  Schema dim({{"k", AttrType::kCategorical}});
  Relation* f = catalog.AddRelation("F", fact);
  Relation* d = catalog.AddRelation("D", dim);
  d->AppendRow({0});
  // x < 1: labels 8 and 1 tie at 100 rows (8 seen first), 0 has 20.
  // x >= 1: labels 5 and 3 tie at 100 rows (5 seen first).
  for (int i = 0; i < 100; ++i) {
    f->AppendRow({0, -1.0, 8});
    f->AppendRow({0, -1.0, 1});
    f->AppendRow({0, 1.0, 5});
    f->AppendRow({0, 1.0, 3});
    if (i < 20) f->AppendRow({0, -1.0, 0});
  }
  JoinQuery q;
  q.AddRelation(f);
  q.AddRelation(d);
  q.AddJoin("F", "D", {"k"});
  DecisionTreeOptions opts;
  opts.max_depth = 1;
  DecisionTree tree = DecisionTree::TrainClassification(
      q, FeatureRef{"F", "label"}, {{"F", "x", false}}, opts);
  ASSERT_EQ(tree.num_nodes(), 3);
  const DecisionTree::Node& root = tree.node(0);
  ASSERT_EQ(root.pred.op, Predicate::Op::kGe);
  EXPECT_EQ(root.pred.threshold, 1.0);
  // The yes leaf holds a scanned count map, the no leaf a derived one.
  EXPECT_EQ(tree.node(root.yes_child).prediction, 3.0);
  EXPECT_EQ(tree.node(root.no_child).prediction, 1.0);
  double row[1] = {-1.0};
  EXPECT_EQ(tree.Predict(row), 1.0);

  // A four-way tie at the root between 8, 1, 5 and 3: 1 wins.
  opts.max_depth = 0;
  DecisionTree stump = DecisionTree::TrainClassification(
      q, FeatureRef{"F", "label"}, {{"F", "x", false}}, opts);
  ASSERT_EQ(stump.num_nodes(), 1);
  EXPECT_EQ(stump.node(0).count, 420.0);
  EXPECT_EQ(stump.node(0).prediction, 1.0);
  EXPECT_EQ(stump.aggregates_evaluated(), 1u);  // the base candidate alone
}

// Whether Predict sends feature value v to the yes child of a split on p.
bool TakesYes(const Predicate& p, double v) {
  switch (p.op) {
    case Predicate::Op::kGe:
      return v >= p.threshold;
    case Predicate::Op::kEq:
      return static_cast<int32_t>(v) == p.category;
    default:
      ADD_FAILURE() << "trees split on kGe and kEq only";
      return false;
  }
}

// Routes every row of `data` through `tree` as Predict does. At every node
// the rows visited must number exactly node.count, and their mean response
// (column response_col) must match node.prediction within 1e-9 relative.
void ExpectNodesMatchRoutedRows(const DecisionTree& tree,
                                const DataMatrix& data, int response_col) {
  std::vector<double> rows(tree.num_nodes(), 0.0);
  std::vector<double> sums(tree.num_nodes(), 0.0);
  for (size_t r = 0; r < data.num_rows(); ++r) {
    const double* row = data.Row(r);
    int i = 0;
    while (true) {
      rows[i] += 1;
      sums[i] += row[response_col];
      const DecisionTree::Node& n = tree.node(i);
      if (n.is_leaf) break;
      i = TakesYes(n.pred, row[n.feature]) ? n.yes_child : n.no_child;
    }
    ASSERT_EQ(tree.Predict(row), tree.node(i).prediction) << "row " << r;
  }
  for (int i = 0; i < tree.num_nodes(); ++i) {
    const DecisionTree::Node& n = tree.node(i);
    EXPECT_EQ(n.count, rows[i]) << "node " << i;
    if (rows[i] > 0) {
      EXPECT_LE(RelDiff(n.prediction, sums[i] / rows[i]), 1e-9)
          << "node " << i;
    }
    if (!n.is_leaf) {
      EXPECT_EQ(tree.node(n.yes_child).count + tree.node(n.no_child).count,
                n.count)
          << "node " << i;
    }
  }
}

double Sse(const SplitStats& s) {
  if (s.count <= 0) return 0;
  const double sse = s.sum_sq - s.sum * s.sum / s.count;
  return sse < 0 ? 0 : sse;
}

// At every split node, the chosen split's gain recomputed from direct
// base-only batches over each child's path must be within 1e-9 relative of
// the best gain over a direct batch at the node.
void ExpectChosenSplitsAreBest(const DecisionTree& tree,
                               const JoinQuery& query,
                               const FeatureRef& response,
                               const std::vector<TreeFeature>& features,
                               const DecisionTreeOptions& opts) {
  const int response_node = query.IndexOf(response.relation);
  const int response_attr =
      query.relation(response_node)->schema().MustIndexOf(response.attr);
  const SplitCandidate base{
      response_node,
      Predicate::Ge(response_attr, -std::numeric_limits<double>::infinity())};
  std::vector<SplitCandidate> batch =
      BuildSplitCandidates(query, features, opts, nullptr);
  batch.push_back(base);
  int splits = 0;
  ForEachPath(tree, query, features, [&](const PathNode& p) {
    const DecisionTree::Node& n = tree.node(p.index);
    if (n.is_leaf) return;
    ++splits;
    const std::vector<SplitStats> direct =
        ComputeSplitStats(query, response_node, response_attr, p.filters,
                          batch);
    const SplitStats& parent = direct.back();
    double best_gain = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i + 1 < direct.size(); ++i) {
      const SplitStats no{parent.count - direct[i].count,
                          parent.sum - direct[i].sum,
                          parent.sum_sq - direct[i].sum_sq};
      if (direct[i].count < 1 || no.count < 1) continue;
      best_gain =
          std::max(best_gain, Sse(parent) - Sse(direct[i]) - Sse(no));
    }
    const int rel = query.IndexOf(features[n.feature].relation);
    FilterSet yes_filters = p.filters;
    yes_filters[rel].push_back(n.pred);
    FilterSet no_filters = p.filters;
    no_filters[rel].push_back(Negated(n.pred));
    const SplitStats yes = ComputeSplitStats(query, response_node,
                                             response_attr, yes_filters,
                                             {base})[0];
    const SplitStats no = ComputeSplitStats(query, response_node,
                                            response_attr, no_filters,
                                            {base})[0];
    EXPECT_EQ(yes.count + no.count, parent.count) << "node " << p.index;
    const double chosen = Sse(parent) - Sse(yes) - Sse(no);
    EXPECT_LE(RelDiff(chosen, best_gain), 1e-9) << "node " << p.index;
  });
  EXPECT_GT(splits, 0);
}

TEST(DecisionTreeTest, NanFeatureValuesTakeTheNoBranch) {
  TreeFixture fx;
  BuildTreeDb(&fx, 2000, /*nan_x_every=*/5);
  std::vector<TreeFeature> features{
      {"F", "x", false}, {"D", "z", false}, {"D", "g", true}};
  DecisionTreeOptions opts;
  opts.max_depth = 3;

  std::vector<int> candidate_feature;
  const std::vector<SplitCandidate> candidates =
      BuildSplitCandidates(fx.query, features, opts, &candidate_feature);
  std::vector<double> last(features.size(),
                           -std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < candidates.size(); ++i) {
    const Predicate& p = candidates[i].pred;
    if (p.op != Predicate::Op::kGe) continue;
    EXPECT_TRUE(std::isfinite(p.threshold)) << "candidate " << i;
    EXPECT_GT(p.threshold, last[candidate_feature[i]]) << "candidate " << i;
    last[candidate_feature[i]] = p.threshold;
  }

  const FeatureRef response{"F", "y"};
  DecisionTree tree =
      DecisionTree::TrainRegression(fx.query, response, features, opts);
  ASSERT_GT(tree.num_nodes(), 1);
  EXPECT_EQ(tree.node(0).count, 2000.0);  // every F row joins D
  bool splits_on_x = false;
  for (int i = 0; i < tree.num_nodes(); ++i) {
    splits_on_x |= !tree.node(i).is_leaf && tree.node(i).feature == 0;
  }
  EXPECT_TRUE(splits_on_x);
  const DataMatrix data = MaterializeJoin(
      fx.query.Root("F"),
      std::vector<ColumnRef>{{"F", "x"}, {"D", "z"}, {"D", "g"}, {"F", "y"}});
  ExpectNodesMatchRoutedRows(tree, data, 3);
  ExpectChosenSplitsAreBest(tree, fx.query, response, features, opts);
}

// Rows whose response is NaN are left out of every candidate of a
// regression batch alike, so the gains stay finite and the tree splits on
// the other rows. The oracle is the materialized join without those rows.
TEST(DecisionTreeTest, NanResponseRowsAreLeftOut) {
  TreeFixture fx;
  BuildTreeDb(&fx, 2000, /*nan_x_every=*/0, /*nan_y_every=*/5);
  std::vector<TreeFeature> features{
      {"F", "x", false}, {"D", "z", false}, {"D", "g", true}};
  DecisionTreeOptions opts;
  opts.max_depth = 3;
  const FeatureRef response{"F", "y"};
  const int f = fx.query.IndexOf("F");
  const int y = fx.query.relation(f)->schema().MustIndexOf("y");

  std::vector<SplitCandidate> batch =
      BuildSplitCandidates(fx.query, features, opts, nullptr);
  batch.push_back(
      {f, Predicate::Ge(y, -std::numeric_limits<double>::infinity())});
  const std::vector<SplitStats> root = ComputeSplitStats(
      fx.query, f, y, FilterSet(fx.query.num_relations()), batch);
  const SplitStats& all = root.back();
  EXPECT_EQ(all.count, 1600.0);
  for (size_t i = 0; i + 1 < root.size(); ++i) {
    const SplitStats no{all.count - root[i].count, all.sum - root[i].sum,
                        all.sum_sq - root[i].sum_sq};
    EXPECT_TRUE(std::isfinite(Sse(all) - Sse(root[i]) - Sse(no)))
        << "candidate " << i;
  }

  DecisionTree tree =
      DecisionTree::TrainRegression(fx.query, response, features, opts);
  ASSERT_GT(tree.num_nodes(), 1);
  EXPECT_EQ(tree.node(0).count, 1600.0);
  FilterSet finite_y(fx.query.num_relations());
  finite_y[f].push_back(batch.back().pred);
  const DataMatrix data = MaterializeJoin(
      fx.query.Root("F"),
      std::vector<ColumnRef>{{"F", "x"}, {"D", "z"}, {"D", "g"}, {"F", "y"}},
      finite_y);
  ASSERT_EQ(data.num_rows(), 1600u);
  ExpectNodesMatchRoutedRows(tree, data, 3);
  ExpectChosenSplitsAreBest(tree, fx.query, response, features, opts);
}

TEST(DecisionTreeTest, NodesMatchTheMaterializedJoinOnSyntheticData) {
  TreeFixture fx;
  BuildTreeDb(&fx);
  std::vector<TreeFeature> features{
      {"F", "x", false}, {"D", "z", false}, {"D", "g", true}};
  DecisionTreeOptions opts;
  opts.min_node_count = 100;
  const FeatureRef response{"F", "y"};
  DecisionTree tree =
      DecisionTree::TrainRegression(fx.query, response, features, opts);
  ASSERT_GT(tree.num_nodes(), 7);
  const DataMatrix data = MaterializeJoin(
      fx.query.Root("F"),
      std::vector<ColumnRef>{{"F", "x"}, {"D", "z"}, {"D", "g"}, {"F", "y"}});
  ExpectNodesMatchRoutedRows(tree, data, 3);
  ExpectChosenSplitsAreBest(tree, fx.query, response, features, opts);
}

TEST(DecisionTreeTest, NodesMatchTheMaterializedJoinOnRetailer) {
  GenOptions gen;
  gen.scale = 0.01;
  Dataset ds = MakeRetailer(gen);
  // The continuous features but the response, which comes last.
  std::vector<TreeFeature> features;
  for (size_t f = 0; f + 1 < ds.features.size(); ++f) {
    features.push_back({ds.features[f].relation, ds.features[f].attr, false});
  }
  const DecisionTreeOptions opts;
  DecisionTree tree =
      DecisionTree::TrainRegression(ds.query, ds.response, features, opts);
  ASSERT_GT(tree.num_nodes(), 7);
  const FeatureMap fm(ds.query, ds.features);
  const DataMatrix data = MaterializeJoin(ds.RootAtFact(), fm);
  ExpectNodesMatchRoutedRows(tree, data, fm.num_features() - 1);
  ExpectChosenSplitsAreBest(tree, ds.query, ds.response, features, opts);
}

// --- PCA ---

TEST(PcaTest, RecoversDominantDirection) {
  // Data concentrated along (1,1)/sqrt(2) in features 0,1; feature 2 noise.
  Catalog catalog;
  Schema s({{"k", AttrType::kCategorical},
            {"a", AttrType::kDouble},
            {"b", AttrType::kDouble},
            {"c", AttrType::kDouble}});
  Relation* r = catalog.AddRelation("R", s);
  Schema dim_schema({{"k", AttrType::kCategorical}});
  Relation* dim = catalog.AddRelation("D", dim_schema);
  dim->AppendRow({0});
  Rng rng(4);
  for (int i = 0; i < 4000; ++i) {
    double t = rng.Gaussian(0, 3);
    r->AppendRow({0, t + rng.Gaussian(0, 0.1), t + rng.Gaussian(0, 0.1),
                  rng.Gaussian(0, 0.1)});
  }
  JoinQuery q;
  q.AddRelation(r);
  q.AddRelation(dim);
  q.AddJoin("R", "D", {"k"});
  FeatureMap fm(q, {{"R", "a"}, {"R", "b"}, {"R", "c"}});
  CovarMatrix m = ComputeCovarMatrix(q.Root("R"), fm);
  PcaResult pca = ComputePca(m, 2);
  ASSERT_GE(pca.components.size(), 1u);
  const auto& v = pca.components[0];
  double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(v[0]), inv_sqrt2, 0.02);
  EXPECT_NEAR(std::abs(v[1]), inv_sqrt2, 0.02);
  EXPECT_NEAR(v[2], 0.0, 0.05);
  EXPECT_GT(pca.explained_ratio[0], 0.95);
  ASSERT_EQ(pca.eigenvalues.size(), 2u);
  EXPECT_GE(pca.eigenvalues[0], pca.eigenvalues[1]);
}

// --- Mutual information / Chow-Liu ---

TEST(MutualInformationTest, DependentPairBeatsIndependentPair) {
  Catalog catalog;
  Schema s({{"k", AttrType::kCategorical},
            {"a", AttrType::kCategorical},
            {"b", AttrType::kCategorical},
            {"c", AttrType::kCategorical}});
  Relation* r = catalog.AddRelation("R", s);
  Schema dim_schema({{"k", AttrType::kCategorical}});
  Relation* dim = catalog.AddRelation("D", dim_schema);
  dim->AppendRow({0});
  Rng rng(6);
  for (int i = 0; i < 5000; ++i) {
    int a = static_cast<int>(rng.Below(4));
    int b = rng.Uniform() < 0.9 ? a : static_cast<int>(rng.Below(4));
    int c = static_cast<int>(rng.Below(4));  // independent
    r->AppendRow({0, static_cast<double>(a), static_cast<double>(b),
                  static_cast<double>(c)});
  }
  JoinQuery q;
  q.AddRelation(r);
  q.AddRelation(dim);
  q.AddJoin("R", "D", {"k"});
  MutualInformationResult mi = ComputeMutualInformation(
      q.Root("R"), {{"R", "a"}, {"R", "b"}, {"R", "c"}});
  EXPECT_GT(mi.At(0, 1), 0.5);       // strongly dependent
  EXPECT_LT(mi.At(0, 2), 0.01);      // independent
  EXPECT_LT(mi.At(1, 2), 0.01);
  EXPECT_EQ(mi.aggregates, 3u + 3u);  // 3 marginals + 3 pairs

  std::vector<ChowLiuEdge> tree = BuildChowLiuTree(mi);
  ASSERT_EQ(tree.size(), 2u);
  // The strongest edge must be (a, b).
  EXPECT_TRUE((tree[0].a == 0 && tree[0].b == 1) ||
              (tree[0].a == 1 && tree[0].b == 0));
}

// --- FD reparameterization ---

TEST(FdReparamTest, SplitIsExactAndMinimumNorm) {
  Rng rng(31);
  const int kCities = 40;
  const int kCountries = 5;
  std::vector<int32_t> country_of(kCities);
  std::vector<double> merged(kCities);
  for (int c = 0; c < kCities; ++c) {
    country_of[c] = static_cast<int32_t>(rng.Below(kCountries));
    merged[c] = rng.Uniform(-3, 3);
  }
  FdReparamResult split =
      SplitMergedParameters(merged, country_of, kCountries);
  // Exact reconstruction: theta_city + theta_country == merged.
  for (int c = 0; c < kCities; ++c) {
    EXPECT_NEAR(split.theta_city[c] + split.theta_country[country_of[c]],
                merged[c], 1e-12);
  }
  // Minimum norm: beats the naive split (everything on the city).
  FdReparamResult naive;
  naive.theta_city = merged;
  naive.theta_country.assign(kCountries, 0.0);
  EXPECT_LE(SplitPenalty(split), SplitPenalty(naive) + 1e-12);
  // And beats random perturbations that preserve the sums.
  for (int trial = 0; trial < 20; ++trial) {
    FdReparamResult other = split;
    int k = static_cast<int>(rng.Below(kCountries));
    double eps = rng.Uniform(-0.5, 0.5);
    other.theta_country[k] += eps;
    for (int c = 0; c < kCities; ++c) {
      if (country_of[c] == k) other.theta_city[c] -= eps;
    }
    EXPECT_LE(SplitPenalty(split), SplitPenalty(other) + 1e-12);
  }
}

// --- Model selection ---

TEST(ModelSelectionTest, PicksInformativeFeaturesFirst) {
  // y depends on features 0 and 2; 1 and 3 are noise.
  Catalog catalog;
  Schema s({{"k", AttrType::kCategorical},
            {"f0", AttrType::kDouble},
            {"f1", AttrType::kDouble},
            {"f2", AttrType::kDouble},
            {"f3", AttrType::kDouble},
            {"y", AttrType::kDouble}});
  Relation* r = catalog.AddRelation("R", s);
  Schema dim_schema({{"k", AttrType::kCategorical}});
  Relation* dim = catalog.AddRelation("D", dim_schema);
  dim->AppendRow({0});
  Rng rng(12);
  for (int i = 0; i < 3000; ++i) {
    double f0 = rng.Gaussian();
    double f1 = rng.Gaussian();
    double f2 = rng.Gaussian();
    double f3 = rng.Gaussian();
    r->AppendRow({0, f0, f1, f2, f3,
                  3 * f0 - 2 * f2 + rng.Gaussian(0, 0.05)});
  }
  JoinQuery q;
  q.AddRelation(r);
  q.AddRelation(dim);
  q.AddJoin("R", "D", {"k"});
  FeatureMap fm(q, {{"R", "f0"}, {"R", "f1"}, {"R", "f2"}, {"R", "f3"},
                    {"R", "y"}});
  CovarMatrix m = ComputeCovarMatrix(q.Root("R"), fm);
  ModelSelectionOptions opts;
  opts.min_mse_gain = 0.01;
  ModelSelectionResult sel = ForwardSelect(m, 4, opts);
  ASSERT_GE(sel.steps.size(), 2u);
  // The first two selections must be the informative features {0, 2}.
  std::vector<int> first_two{sel.steps[0].added_feature,
                             sel.steps[1].added_feature};
  std::sort(first_two.begin(), first_two.end());
  EXPECT_EQ(first_two, (std::vector<int>{0, 2}));
  // MSE decreases monotonically along the path.
  for (size_t i = 1; i < sel.steps.size(); ++i) {
    EXPECT_LE(sel.steps[i].mse, sel.steps[i - 1].mse + 1e-9);
  }
  EXPECT_GT(sel.models_evaluated, 4u);
}

}  // namespace
}  // namespace relborg
