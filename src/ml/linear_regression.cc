#include "ml/linear_regression.h"

#include <cmath>
#include <vector>

#include "ml/linalg.h"
#include "util/check.h"

namespace relborg {
namespace {

// Standardized ridge system extracted from the covariance matrix:
// correlation matrix C (p x p) of the selected regressors, correlation
// vector r with the response, and the statistics needed to map solutions
// back to the original space. Standardizing makes gradient descent's step
// size a simple function of p and keeps Cholesky well conditioned; both
// solvers use the same system so they agree exactly on the model.
struct StandardizedSystem {
  std::vector<int> subset;
  std::vector<double> mean;   // per regressor
  std::vector<double> scale;  // per regressor (1 for constant columns)
  double mean_y = 0;
  std::vector<double> corr;     // p x p
  std::vector<double> corr_y;   // p
  double count = 0;
};

// Aborts unless `response` and every regressor name a feature of an
// n-feature matrix, no regressor is the response, and none repeats.
void CheckRegressors(int n, int response, const std::vector<int>& regressors) {
  RELBORG_CHECK_MSG(response >= 0 && response < n,
                    "response is not a feature index");
  std::vector<char> seen(n, 0);
  for (int f : regressors) {
    RELBORG_CHECK_MSG(f >= 0 && f < n, "regressor is not a feature index");
    RELBORG_CHECK_MSG(f != response, "regressor is the response");
    RELBORG_CHECK_MSG(!seen[f], "regressor listed twice");
    seen[f] = 1;
  }
}

StandardizedSystem BuildSystem(const CovarMatrix& m, int response,
                               const std::vector<int>& feature_subset) {
  StandardizedSystem sys;
  if (feature_subset.empty()) {
    for (int f = 0; f < m.num_features(); ++f) {
      if (f != response) sys.subset.push_back(f);
    }
  } else {
    sys.subset = feature_subset;
  }
  CheckRegressors(m.num_features(), response, sys.subset);
  const int p = static_cast<int>(sys.subset.size());
  const double c = m.count();
  sys.count = c;
  RELBORG_CHECK_MSG(c > 0, "cannot train on an empty join");
  sys.mean.resize(p);
  sys.scale.resize(p);
  for (int a = 0; a < p; ++a) {
    int f = sys.subset[a];
    sys.mean[a] = m.Sum(f) / c;
    double var = m.Moment(f, f) / c - sys.mean[a] * sys.mean[a];
    sys.scale[a] = var > 1e-12 ? std::sqrt(var) : 1.0;
  }
  sys.mean_y = m.Sum(response) / c;
  sys.corr.assign(p * p, 0.0);
  sys.corr_y.assign(p, 0.0);
  for (int a = 0; a < p; ++a) {
    for (int b = 0; b < p; ++b) {
      double cov = m.Moment(sys.subset[a], sys.subset[b]) / c -
                   sys.mean[a] * sys.mean[b];
      sys.corr[a * p + b] = cov / (sys.scale[a] * sys.scale[b]);
    }
    double cov_y =
        m.Moment(sys.subset[a], response) / c - sys.mean[a] * sys.mean_y;
    sys.corr_y[a] = cov_y / sys.scale[a];
  }
  return sys;
}

LinearModel ModelFromStandardized(const StandardizedSystem& sys,
                                  const std::vector<double>& theta_std) {
  const int p = static_cast<int>(sys.subset.size());
  LinearModel model;
  model.feature_indices = sys.subset;
  model.weights.resize(p);
  double bias = sys.mean_y;
  for (int a = 0; a < p; ++a) {
    model.weights[a] = theta_std[a] / sys.scale[a];
    bias -= model.weights[a] * sys.mean[a];
  }
  model.bias = bias;
  return model;
}

}  // namespace

double LinearModel::Predict(const double* row) const {
  double y = bias;
  for (size_t a = 0; a < weights.size(); ++a) {
    y += weights[a] * row[feature_indices[a]];
  }
  return y;
}

LinearModel TrainRidgeGd(const CovarMatrix& m, int response,
                         const RidgeOptions& options,
                         const std::vector<int>& feature_subset,
                         TrainInfo* info) {
  StandardizedSystem sys = BuildSystem(m, response, feature_subset);
  const int p = static_cast<int>(sys.subset.size());
  std::vector<double> theta(p, 0.0);
  if (!options.warm_start.empty()) {
    RELBORG_CHECK(static_cast<int>(options.warm_start.size()) == p);
    for (int a = 0; a < p; ++a) {
      theta[a] = options.warm_start[a] * sys.scale[a];
    }
  }
  // Step size from the largest eigenvalue of the correlation matrix.
  std::vector<double> v;
  double lmax = PowerIteration(sys.corr, p, &v, 60);
  double step = 1.0 / (std::max(lmax, 1e-6) + options.lambda);

  std::vector<double> grad(p);
  int it = 0;
  double gnorm = 0;
  for (; it < options.max_iters; ++it) {
    // grad = C theta - r + lambda theta  (all in standardized space).
    MatVec(sys.corr, theta, p, &grad);
    gnorm = 0;
    for (int a = 0; a < p; ++a) {
      grad[a] += options.lambda * theta[a] - sys.corr_y[a];
      gnorm += grad[a] * grad[a];
    }
    gnorm = std::sqrt(gnorm);
    if (gnorm < options.tolerance) break;
    for (int a = 0; a < p; ++a) theta[a] -= step * grad[a];
  }
  if (info != nullptr) {
    info->iterations = it;
    info->final_gradient_norm = gnorm;
  }
  return ModelFromStandardized(sys, theta);
}

LinearModel SolveRidgeClosedForm(const CovarMatrix& m, int response,
                                 double lambda,
                                 const std::vector<int>& feature_subset) {
  StandardizedSystem sys = BuildSystem(m, response, feature_subset);
  const int p = static_cast<int>(sys.subset.size());
  std::vector<double> a = sys.corr;
  for (int i = 0; i < p; ++i) a[i * p + i] += lambda + 1e-12;
  std::vector<double> theta;
  RELBORG_CHECK_MSG(CholeskySolve(a, sys.corr_y, p, &theta),
                    "ridge system not positive definite");
  return ModelFromStandardized(sys, theta);
}

double MseFromCovar(const CovarMatrix& m, int response,
                    const LinearModel& model) {
  RELBORG_CHECK(model.weights.size() == model.feature_indices.size());
  CheckRegressors(m.num_features(), response, model.feature_indices);
  const double c = m.count();
  if (c <= 0) return 0;
  const int n = m.num_features();  // index n = constant feature
  // Extended coefficient vector over (features..., constant) with the
  // response entering with coefficient -1:
  //   residual = sum_a w_a x_a + bias * 1 - y.
  std::vector<std::pair<int, double>> coef;
  for (size_t a = 0; a < model.weights.size(); ++a) {
    coef.push_back({model.feature_indices[a], model.weights[a]});
  }
  coef.push_back({n, model.bias});
  coef.push_back({response, -1.0});
  double sse = 0;
  for (const auto& [fa, wa] : coef) {
    for (const auto& [fb, wb] : coef) {
      sse += wa * wb * m.Moment(fa, fb);
    }
  }
  return sse / c;
}

double Rmse(const LinearModel& model, const DataMatrix& data,
            int response_col) {
  if (data.num_rows() == 0) return 0;
  double sse = 0;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    double err = model.Predict(data.Row(r)) - data.At(r, response_col);
    sse += err * err;
  }
  return std::sqrt(sse / static_cast<double>(data.num_rows()));
}

}  // namespace relborg
