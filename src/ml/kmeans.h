// K-means over relational data (Sec. 3.3).
//
// Two paths:
//  * LloydKMeans: weighted Lloyd iterations over explicit points — the
//    structure-agnostic baseline when run over the materialized join.
//  * RelationalKMeans (after Rk-means [Curtin et al., AISTATS 2020]):
//    clusters each feature-bearing relation separately with join-
//    multiplicity weights, then runs weighted k-means over the small cross
//    product of per-relation centroids ("grid coreset"), whose weights are
//    computed EXACTLY with one factorized counting pass over the join tree
//    (each relation's centroid assignment rides in one byte of the packed
//    coreset key). Objective is a constant-factor approximation of k-means
//    over the full join at a tiny fraction of the cost.
//
// RelationalKMeans resolves the join keys once per call: it builds one
// JoinSlots index (query/join_slots.h) of the tree, and the multiplicity
// pass and the counting pass both run over slot-indexed arrays through
// it. The index lives for the call only, since relations are mutable.
// The counting pass folds a row whose child payloads each hold one key
// straight into one (key, count) entry.
//
// Lloyd runs on flat kernels unrolled for 1 to 4 dims. k-means++ seeding
// keeps each point's distance to its nearest centroid so far and measures
// only the newest centroid per round. All of it gives, bit for bit, the
// results of the straightforward per-point loops in a given build.
#ifndef RELBORG_ML_KMEANS_H_
#define RELBORG_ML_KMEANS_H_

#include <vector>

#include "baseline/data_matrix.h"
#include "core/feature_map.h"
#include "query/join_tree.h"

namespace relborg {

// LloydKMeans and RelationalKMeans abort (RELBORG_CHECK) unless k >= 1 and
// max_iters >= 0.
struct KMeansOptions {
  int k = 5;  // clamped to the number of points
  int max_iters = 30;
  uint64_t seed = 13;
  // Per-relation centroid count for the relational coreset, 1 to 200.
  int per_relation_k = 8;
};

struct KMeansResult {
  // centroids[c] has one entry per dimension.
  std::vector<std::vector<double>> centroids;
  double objective = 0;  // weighted sum of squared distances
  int iterations = 0;
  size_t coreset_size = 0;  // 0 for the baseline path
};

// Weighted points: row-major coordinates plus one weight per point.
struct WeightedPoints {
  int dims = 0;
  std::vector<double> coords;   // num_points * dims
  std::vector<double> weights;  // num_points (empty = all 1)

  size_t num_points() const {
    return dims == 0 ? 0 : coords.size() / dims;
  }
  const double* Point(size_t i) const { return coords.data() + i * dims; }
};

// Weighted Lloyd's algorithm with k-means++ style seeding. A cluster left
// without mass is reseeded at a uniformly drawn point. Stops after
// max_iters iterations, or early at an iteration past the first that
// changes no assignment. A point with a NaN coordinate is left out (the
// result is that of a run without it), so all-NaN input gives no
// centroids.
KMeansResult LloydKMeans(const WeightedPoints& points,
                         const KMeansOptions& options);

// Convenience: unweighted k-means over the columns of a data matrix.
KMeansResult LloydKMeans(const DataMatrix& data, const KMeansOptions& options);

// Rk-means over the join: features (continuous attributes across the
// relations of `tree`) define the dimensions, in FeatureMap order. A row
// with a NaN feature is left out as a filtered row is: it has no point in
// its relation's problem and joins nothing in the counting pass.
KMeansResult RelationalKMeans(const RootedTree& tree, const FeatureMap& fm,
                              const KMeansOptions& options);

// Evaluates the k-means objective of `centroids` over explicit points
// (used to compare coreset centroids against the baseline's on equal
// footing). Points with a NaN coordinate are left out, as in LloydKMeans.
double KMeansObjective(const WeightedPoints& points,
                       const std::vector<std::vector<double>>& centroids);

}  // namespace relborg

#endif  // RELBORG_ML_KMEANS_H_
