// End-to-end integration tests: miniature versions of the paper's
// experiments over the synthetic datasets, asserting the qualitative claims
// each figure makes (the bench/ harnesses print the full tables).
#include <cmath>

#include "baseline/materializer.h"
#include "baseline/query_at_a_time.h"
#include "baseline/sgd_learner.h"
#include "core/covar_engine.h"
#include "data/dataset.h"
#include "gtest/gtest.h"
#include "ivm/ivm.h"
#include "ivm/update_stream.h"
#include "ml/decision_tree.h"
#include "ml/kmeans.h"
#include "ml/linear_regression.h"
#include "ml/model_selection.h"
#include "ml/mutual_information.h"
#include "ml/naive_bayes.h"
#include "ml/pca.h"

namespace relborg {
namespace {

GenOptions Tiny() {
  GenOptions o;
  o.scale = 0.003;
  return o;
}

class DatasetIntegration : public ::testing::TestWithParam<std::string> {};

// Fig. 3 claim: factorized training reaches at least the accuracy of
// 1-epoch SGD over the materialized matrix, and the sufficient statistics
// are orders of magnitude smaller than the data matrix.
TEST_P(DatasetIntegration, FactorizedTrainingMatchesOrBeatsSgd) {
  Dataset ds = MakeDataset(GetParam(), Tiny());
  FeatureMap fm(ds.query, ds.features);
  RootedTree tree = ds.RootAtFact();
  const int response = fm.num_features() - 1;

  CovarMatrix covar = ComputeCovarMatrix(tree, fm);
  ASSERT_GT(covar.count(), 100);
  LinearModel aware = TrainRidgeGd(covar, response);

  DataMatrix matrix = MaterializeJoin(tree, fm);
  SgdOptions sgd;
  sgd.batch_size = 5000;
  LinearModel agnostic = TrainSgd(matrix, response, sgd);

  double rmse_aware = Rmse(aware, matrix, response);
  double rmse_agnostic = Rmse(agnostic, matrix, response);
  EXPECT_LE(rmse_aware, rmse_agnostic * 1.02);

  size_t stats_bytes =
      (1 + covar.payload().sum.size() + covar.payload().quad.size()) *
      sizeof(double);
  EXPECT_LT(stats_bytes * 50, matrix.ByteSize());
}

// Fig. 4 left claim: shared evaluation and query-at-a-time agree exactly.
TEST_P(DatasetIntegration, SharedAndQueryAtATimeAgree) {
  Dataset ds = MakeDataset(GetParam(), Tiny());
  FeatureMap fm(ds.query, ds.features);
  RootedTree tree = ds.RootAtFact();
  CovarMatrix shared = ComputeCovarMatrix(tree, fm);
  DataMatrix matrix = MaterializeJoin(tree, fm);
  CovarMatrix baseline = CovarByQueryAtATime(matrix);
  const int n = fm.num_features();
  for (int i = 0; i <= n; ++i) {
    for (int j = i; j <= n; ++j) {
      double want = baseline.Moment(i, j);
      EXPECT_NEAR(shared.Moment(i, j), want, 1e-6 * (1 + std::abs(want)));
    }
  }
}

// Fig. 4 right claim: all three IVM strategies converge to the same state
// as recomputation after streaming the whole dataset.
TEST_P(DatasetIntegration, IvmStrategiesConvergeOnRealSchemas) {
  Dataset ds = MakeDataset(GetParam(), Tiny());
  // Few features keep higher-order's quadratic fan-out quick in this test.
  std::vector<FeatureRef> feats(ds.features.end() - 3, ds.features.end());
  ShadowDb shadow(ds.query, ds.query.IndexOf(ds.fact));
  FeatureMap fm(shadow.query(), feats);
  CovarFivm fivm(&shadow, &fm);
  HigherOrderIvm higher(&shadow, &fm);
  FirstOrderIvm first(&shadow, &fm);

  UpdateStreamOptions opts;
  opts.batch_size = 500;
  std::vector<UpdateBatch> stream = BuildInsertStream(ds.query, opts);
  for (const UpdateBatch& batch : stream) {
    size_t from = shadow.AppendRows(batch.node, batch.rows);
    fivm.ApplyBatch(batch.node, from, batch.rows.size());
    higher.ApplyBatch(batch.node, from, batch.rows.size());
    first.ApplyBatch(batch.node, from, batch.rows.size());
  }
  CovarMatrix want = ComputeCovarMatrix(shadow.tree(), fm);
  const int n = fm.num_features();
  for (int i = 0; i <= n; ++i) {
    for (int j = i; j <= n; ++j) {
      double w = want.Moment(i, j);
      EXPECT_NEAR(fivm.Current().Moment(i, j), w, 1e-6 * (1 + std::abs(w)));
      EXPECT_NEAR(higher.Current().Moment(i, j), w,
                  1e-6 * (1 + std::abs(w)));
      EXPECT_NEAR(first.Current().Moment(i, j), w, 1e-6 * (1 + std::abs(w)));
    }
  }
}

// Sec. 1.5 claim: model selection works off one covariance matrix and
// improves monotonically.
TEST_P(DatasetIntegration, ModelSelectionRunsOffOneMatrix) {
  Dataset ds = MakeDataset(GetParam(), Tiny());
  FeatureMap fm(ds.query, ds.features);
  CovarMatrix covar = ComputeCovarMatrix(ds.RootAtFact(), fm);
  ModelSelectionOptions opts;
  opts.max_features = 4;
  ModelSelectionResult sel =
      ForwardSelect(covar, fm.num_features() - 1, opts);
  ASSERT_GE(sel.steps.size(), 1u);
  for (size_t i = 1; i < sel.steps.size(); ++i) {
    EXPECT_LE(sel.steps[i].mse, sel.steps[i - 1].mse + 1e-9);
  }
}

// The wider ML layer runs end-to-end on every dataset.
TEST_P(DatasetIntegration, MlLayerSmoke) {
  Dataset ds = MakeDataset(GetParam(), Tiny());
  FeatureMap fm(ds.query, ds.features);
  RootedTree tree = ds.RootAtFact();

  PcaResult pca = ComputePca(ComputeCovarMatrix(tree, fm), 2);
  EXPECT_GE(pca.components.size(), 1u);

  MutualInformationResult mi =
      ComputeMutualInformation(tree, ds.categoricals);
  EXPECT_GE(mi.aggregates, ds.categoricals.size());
  std::vector<ChowLiuEdge> cl = BuildChowLiuTree(mi);
  EXPECT_EQ(cl.size(), ds.categoricals.size() - 1);

  KMeansOptions km;
  km.k = 3;
  km.per_relation_k = 4;
  KMeansResult clusters = RelationalKMeans(tree, fm, km);
  EXPECT_EQ(clusters.centroids.size(), 3u);

  // Decision tree on two continuous features, shallow.
  std::vector<TreeFeature> tf{
      {ds.features[0].relation, ds.features[0].attr, false},
      {ds.features[1].relation, ds.features[1].attr, false}};
  DecisionTreeOptions topts;
  topts.max_depth = 2;
  topts.thresholds_per_feature = 4;
  DecisionTree tree_model =
      DecisionTree::TrainRegression(ds.query, ds.response, tf, topts);
  EXPECT_GE(tree_model.num_nodes(), 1);

  // Naive Bayes on the first categorical as class, second as predictor.
  if (ds.categoricals.size() >= 2) {
    NaiveBayesModel nb = NaiveBayesModel::Train(
        tree, ds.categoricals[0], {ds.categoricals[1]});
    EXPECT_GE(nb.num_classes(), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetIntegration,
                         ::testing::ValuesIn(DatasetNames()));

}  // namespace
}  // namespace relborg
