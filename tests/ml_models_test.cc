// Tests for decision trees, PCA, mutual information / Chow-Liu, FD
// reparameterization, and model selection.
#include <cmath>
#include <cstring>
#include <limits>

#include "baseline/materializer.h"
#include "core/covar_engine.h"
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

void BuildTreeDb(TreeFixture* fx, int rows = 2000) {
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

// Whether DecisionTree::Train evaluates the full candidate batch at a node:
// below max_depth, the root always, any other node once its count reaches
// min_node_count.
bool EvaluatesFullBatch(const PathNode& p, double count,
                        const DecisionTreeOptions& opts) {
  return p.depth < opts.max_depth &&
         (p.index == 0 || count >= opts.min_node_count);
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

  size_t expected_aggregates = 0;
  int stopped_by_depth = 0;
  int stopped_by_count = 0;
  ForEachPath(tree, fx.query, features, [&](const PathNode& p) {
    const DecisionTree::Node& n = tree.node(p.index);
    const SplitStats s = ComputeSplitStats(fx.query, response_node,
                                           response_attr, p.filters, {base})[0];
    EXPECT_EQ(Bits(n.count), Bits(s.count)) << "node " << p.index;
    EXPECT_EQ(Bits(n.prediction), Bits(s.count > 0 ? s.sum / s.count : 0))
        << "node " << p.index;
    const bool full = EvaluatesFullBatch(p, n.count, opts);
    expected_aggregates += DecisionNodeBatchSize(full ? batch : 1);
    if (!full) ++(p.depth >= opts.max_depth ? stopped_by_depth
                                            : stopped_by_count);
  });
  EXPECT_EQ(tree.aggregates_evaluated(), expected_aggregates);
  // Both reasons a node cannot split occur.
  EXPECT_GT(stopped_by_depth, 0);
  EXPECT_GT(stopped_by_count, 0);
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

  size_t expected_aggregates = 0;
  int base_only = 0;
  ForEachPath(tree, fx.query, features, [&](const PathNode& p) {
    const DecisionTree::Node& n = tree.node(p.index);
    const FlatHashMap<double> counts = ComputeSplitClassCounts(
        fx.query, response_node, response_attr, p.filters, {base})[0];
    double total = 0;
    double majority = -1;
    counts.ForEach([&](uint64_t, double c) {
      total += c;
      majority = std::max(majority, c);
    });
    EXPECT_EQ(Bits(n.count), Bits(total)) << "node " << p.index;
    const double* predicted =
        counts.Find(PackKey1(static_cast<int32_t>(n.prediction)));
    ASSERT_NE(predicted, nullptr) << "node " << p.index;
    EXPECT_EQ(*predicted, majority) << "node " << p.index;
    const bool full = EvaluatesFullBatch(p, n.count, opts);
    // One aggregate (a per-class count map) per candidate.
    expected_aggregates += full ? batch : 1;
    if (!full) ++base_only;
  });
  EXPECT_EQ(tree.aggregates_evaluated(), expected_aggregates);
  EXPECT_GT(base_only, 0);
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
