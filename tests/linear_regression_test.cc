// Tests for ridge regression over the covariance matrix: gradient descent
// vs Cholesky closed form vs normal equations over the materialized join.
#include <cmath>

#include "baseline/materializer.h"
#include "baseline/sgd_learner.h"
#include "core/covar_engine.h"
#include "gtest/gtest.h"
#include "ml/linear_regression.h"
#include "tests/test_util.h"

namespace relborg {
namespace {

using testing::MakeRandomDb;
using testing::RandomDb;
using testing::Topology;

class LinRegProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LinRegProperty, GdMatchesClosedForm) {
  RandomDb db = MakeRandomDb(GetParam(), Topology::kStar, /*fact_rows=*/200);
  FeatureMap fm(db.query, db.features);
  CovarMatrix m = ComputeCovarMatrix(db.query.Root(0), fm);
  int response = fm.num_features() - 1;

  RidgeOptions opts;
  opts.lambda = 1e-2;
  TrainInfo info;
  LinearModel gd = TrainRidgeGd(m, response, opts, {}, &info);
  LinearModel cf = SolveRidgeClosedForm(m, response, opts.lambda);
  ASSERT_EQ(gd.weights.size(), cf.weights.size());
  for (size_t a = 0; a < gd.weights.size(); ++a) {
    EXPECT_NEAR(gd.weights[a], cf.weights[a],
                1e-5 * (1 + std::abs(cf.weights[a])));
  }
  EXPECT_NEAR(gd.bias, cf.bias, 1e-5 * (1 + std::abs(cf.bias)));
  EXPECT_LT(info.final_gradient_norm, 1e-8);
}

TEST_P(LinRegProperty, MseFromCovarMatchesDirectMse) {
  RandomDb db = MakeRandomDb(GetParam() + 100, Topology::kChain,
                             /*fact_rows=*/150);
  FeatureMap fm(db.query, db.features);
  RootedTree tree = db.query.Root(0);
  CovarMatrix m = ComputeCovarMatrix(tree, fm);
  if (m.count() < 1) GTEST_SKIP() << "empty join";
  int response = fm.num_features() - 1;
  LinearModel model = SolveRidgeClosedForm(m, response, 1e-2);

  DataMatrix data = MaterializeJoin(tree, fm);
  double direct = 0;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    double err = model.Predict(data.Row(r)) - data.At(r, response);
    direct += err * err;
  }
  direct /= static_cast<double>(data.num_rows());
  EXPECT_NEAR(MseFromCovar(m, response, model), direct,
              1e-6 * (1 + direct));
  EXPECT_NEAR(Rmse(model, data, response), std::sqrt(direct),
              1e-6 * (1 + std::sqrt(direct)));
}

TEST_P(LinRegProperty, FactorizedMatchesMaterializedTraining) {
  // Train the closed form on the factorized covariance and on a covariance
  // computed from the materialized matrix: identical models.
  RandomDb db = MakeRandomDb(GetParam() + 7, Topology::kBushy,
                             /*fact_rows=*/120);
  FeatureMap fm(db.query, db.features);
  RootedTree tree = db.query.Root(0);
  CovarMatrix fact = ComputeCovarMatrix(tree, fm);
  if (fact.count() < 1) GTEST_SKIP();
  DataMatrix data = MaterializeJoin(tree, fm);
  CovarMatrix mat(fm.num_features(), testing::ReferenceCovar(data));
  int response = fm.num_features() - 1;
  LinearModel a = SolveRidgeClosedForm(fact, response, 1e-3);
  LinearModel b = SolveRidgeClosedForm(mat, response, 1e-3);
  for (size_t i = 0; i < a.weights.size(); ++i) {
    EXPECT_NEAR(a.weights[i], b.weights[i],
                1e-6 * (1 + std::abs(b.weights[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinRegProperty,
                         ::testing::ValuesIn(relborg::testing::kPropertySeeds));

TEST(LinRegTest, RecoversPlantedModel) {
  // y = 2 x0 - 3 x1 + 1 + noise over a single-relation "join".
  Catalog catalog;
  Schema s({{"k", AttrType::kCategorical},
            {"x0", AttrType::kDouble},
            {"x1", AttrType::kDouble},
            {"y", AttrType::kDouble}});
  Relation* r = catalog.AddRelation("R", s);
  Schema dim_schema({{"k", AttrType::kCategorical}});
  Relation* dim = catalog.AddRelation("D", dim_schema);
  dim->AppendRow({0});
  Rng rng(3);
  for (int i = 0; i < 3000; ++i) {
    double x0 = rng.Gaussian();
    double x1 = rng.Gaussian(0, 2);
    double y = 2 * x0 - 3 * x1 + 1 + rng.Gaussian(0, 0.01);
    r->AppendRow({0, x0, x1, y});
  }
  JoinQuery q;
  q.AddRelation(r);
  q.AddRelation(dim);
  q.AddJoin("R", "D", {"k"});
  FeatureMap fm(q, {{"R", "x0"}, {"R", "x1"}, {"R", "y"}});
  CovarMatrix m = ComputeCovarMatrix(q.Root("R"), fm);
  LinearModel model = SolveRidgeClosedForm(m, 2, 1e-6);
  EXPECT_NEAR(model.weights[0], 2.0, 0.01);
  EXPECT_NEAR(model.weights[1], -3.0, 0.01);
  EXPECT_NEAR(model.bias, 1.0, 0.01);
}

TEST(LinRegTest, SubsetTraining) {
  RandomDb db = MakeRandomDb(77, Topology::kStar, 150);
  FeatureMap fm(db.query, db.features);
  CovarMatrix m = ComputeCovarMatrix(db.query.Root(0), fm);
  int response = fm.num_features() - 1;
  LinearModel model = SolveRidgeClosedForm(m, response, 1e-2, {0, 2});
  EXPECT_EQ(model.feature_indices, (std::vector<int>{0, 2}));
  EXPECT_EQ(model.weights.size(), 2u);
  // Full model fits at least as well (more capacity, same penalty space).
  LinearModel full = SolveRidgeClosedForm(m, response, 1e-2);
  EXPECT_LE(MseFromCovar(m, response, full),
            MseFromCovar(m, response, model) + 1e-9);
}

TEST(LinRegTest, WarmStartConvergesFaster) {
  RandomDb db = MakeRandomDb(11, Topology::kStar, 300);
  FeatureMap fm(db.query, db.features);
  CovarMatrix m = ComputeCovarMatrix(db.query.Root(0), fm);
  int response = fm.num_features() - 1;
  RidgeOptions opts;
  TrainInfo cold_info;
  LinearModel cold = TrainRidgeGd(m, response, opts, {}, &cold_info);
  RidgeOptions warm_opts = opts;
  warm_opts.warm_start = cold.weights;
  TrainInfo warm_info;
  TrainRidgeGd(m, response, warm_opts, {}, &warm_info);
  EXPECT_LT(warm_info.iterations, std::max(cold_info.iterations, 2));
}

// A response or regressor index outside the matrix would read past the
// payload's sum and quad vectors; every entry point rejects it instead.
TEST(LinRegDeathTest, RejectsBadFeatureIndices) {
  RandomDb db = MakeRandomDb(5, Topology::kStar, 80);
  FeatureMap fm(db.query, db.features);
  CovarMatrix m = ComputeCovarMatrix(db.query.Root(0), fm);
  const int n = fm.num_features();
  const int response = n - 1;

  EXPECT_DEATH(TrainRidgeGd(m, n), "response is not a feature index");
  EXPECT_DEATH(TrainRidgeGd(m, -1), "response is not a feature index");
  EXPECT_DEATH(SolveRidgeClosedForm(m, n), "response is not a feature index");
  EXPECT_DEATH(TrainRidgeGd(m, response, {}, {0, n}),
               "regressor is not a feature index");
  EXPECT_DEATH(SolveRidgeClosedForm(m, response, 1e-3, {-1}),
               "regressor is not a feature index");
  EXPECT_DEATH(TrainRidgeGd(m, response, {}, {0, response}),
               "regressor is the response");
  EXPECT_DEATH(SolveRidgeClosedForm(m, response, 1e-3, {1, 0, 1}),
               "regressor listed twice");

  LinearModel model = SolveRidgeClosedForm(m, response);
  EXPECT_DEATH(MseFromCovar(m, n, model), "response is not a feature index");
  LinearModel bad = model;
  bad.feature_indices[0] = n;
  EXPECT_DEATH(MseFromCovar(m, response, bad),
               "regressor is not a feature index");
  bad.feature_indices[0] = response;
  EXPECT_DEATH(MseFromCovar(m, response, bad), "regressor is the response");
  bad.weights.pop_back();
  EXPECT_DEATH(MseFromCovar(m, response, bad), "CHECK failed");
}

TEST(SgdLearnerTest, BeatsMeanPredictorOnPlantedData) {
  DataMatrix data({"x0", "x1", "y"});
  Rng rng(8);
  for (int i = 0; i < 20000; ++i) {
    double x0 = rng.Gaussian();
    double x1 = rng.Uniform(-1, 1);
    double row[3] = {x0, x1, 1.5 * x0 - 2.0 * x1 + rng.Gaussian(0, 0.1)};
    data.AppendRow(row);
  }
  SgdOptions opts;
  opts.batch_size = 1000;
  opts.epochs = 5;
  LinearModel model = TrainSgd(data, 2, opts);
  double mse = 0, var = 0, mean = 0;
  for (size_t r = 0; r < data.num_rows(); ++r) mean += data.At(r, 2);
  mean /= static_cast<double>(data.num_rows());
  for (size_t r = 0; r < data.num_rows(); ++r) {
    double err = model.Predict(data.Row(r)) - data.At(r, 2);
    mse += err * err;
    var += (data.At(r, 2) - mean) * (data.At(r, 2) - mean);
  }
  EXPECT_LT(mse, 0.2 * var);  // much better than predicting the mean
}

TEST(SgdLearnerTest, OneEpochIsLessAccurateThanClosedForm) {
  // The Fig. 3 accuracy note: one SGD epoch is close but slightly worse
  // than the covariance-matrix solution.
  RandomDb db = MakeRandomDb(21, Topology::kStar, 400);
  FeatureMap fm(db.query, db.features);
  RootedTree tree = db.query.Root(0);
  CovarMatrix m = ComputeCovarMatrix(tree, fm);
  if (m.count() < 10) GTEST_SKIP();
  DataMatrix data = MaterializeJoin(tree, fm);
  int response = fm.num_features() - 1;
  LinearModel exact = SolveRidgeClosedForm(m, response, 1e-3);
  SgdOptions opts;
  opts.batch_size = 200;
  opts.epochs = 1;
  LinearModel sgd = TrainSgd(data, response, opts);
  EXPECT_LE(Rmse(exact, data, response),
            Rmse(sgd, data, response) + 1e-9);
}

}  // namespace
}  // namespace relborg
