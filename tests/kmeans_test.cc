// Tests for k-means: weighted Lloyd's and the relational (Rk-means style)
// grid coreset whose weights come from one factorized counting pass.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "baseline/materializer.h"
#include "data/dataset.h"
#include "gtest/gtest.h"
#include "ml/kmeans.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace relborg {
namespace {

using testing::MakeRandomDb;
using testing::RandomDb;
using testing::Topology;

// Reference Lloyd: the straightforward implementation over per-centroid
// vectors, one point at a time. The library's flat, dimension-specialised
// kernel must reproduce it bit for bit.
namespace oracle {

double Sq(double x) { return x * x; }

double Dist2(const double* a, const double* b, int dims) {
  double d = 0;
  for (int i = 0; i < dims; ++i) d += Sq(a[i] - b[i]);
  return d;
}

int Nearest(const double* p, const std::vector<std::vector<double>>& centroids,
            int dims, double* dist2_out) {
  int best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < centroids.size(); ++c) {
    double d = Dist2(p, centroids[c].data(), dims);
    if (d < best_d) {
      best_d = d;
      best = static_cast<int>(c);
    }
  }
  if (dist2_out != nullptr) *dist2_out = best_d;
  return best;
}

std::vector<std::vector<double>> Seed(const WeightedPoints& pts, int k,
                                      Rng* rng) {
  const size_t n = pts.num_points();
  const int dims = pts.dims;
  std::vector<std::vector<double>> centroids;
  auto weight = [&](size_t i) {
    return pts.weights.empty() ? 1.0 : pts.weights[i];
  };
  double total = 0;
  for (size_t i = 0; i < n; ++i) total += weight(i);
  double target = rng->Uniform() * total;
  size_t first = 0;
  for (size_t i = 0; i < n; ++i) {
    target -= weight(i);
    if (target <= 0) {
      first = i;
      break;
    }
  }
  centroids.emplace_back(pts.Point(first), pts.Point(first) + dims);
  std::vector<double> d2(n);
  while (static_cast<int>(centroids.size()) < k) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      double d;
      Nearest(pts.Point(i), centroids, dims, &d);
      d2[i] = d * weight(i);
      sum += d2[i];
    }
    if (sum <= 0) {
      centroids.push_back(centroids.back());
      continue;
    }
    double t = rng->Uniform() * sum;
    size_t pick = n - 1;
    for (size_t i = 0; i < n; ++i) {
      t -= d2[i];
      if (t <= 0) {
        pick = i;
        break;
      }
    }
    centroids.emplace_back(pts.Point(pick), pts.Point(pick) + dims);
  }
  return centroids;
}

KMeansResult LloydKMeans(const WeightedPoints& pts,
                         const KMeansOptions& options) {
  KMeansResult result;
  const size_t n = pts.num_points();
  const int dims = pts.dims;
  if (n == 0) return result;
  const int k = std::min<int>(options.k, static_cast<int>(n));
  Rng rng(options.seed);
  std::vector<std::vector<double>> centroids = Seed(pts, k, &rng);
  auto weight = [&](size_t i) {
    return pts.weights.empty() ? 1.0 : pts.weights[i];
  };
  std::vector<int> assign(n, -1);
  int it = 0;
  for (; it < options.max_iters; ++it) {
    bool changed = false;
    for (size_t i = 0; i < n; ++i) {
      int c = Nearest(pts.Point(i), centroids, dims, nullptr);
      if (c != assign[i]) {
        assign[i] = c;
        changed = true;
      }
    }
    if (!changed && it > 0) break;
    std::vector<std::vector<double>> sums(k, std::vector<double>(dims, 0.0));
    std::vector<double> mass(k, 0.0);
    for (size_t i = 0; i < n; ++i) {
      double w = weight(i);
      mass[assign[i]] += w;
      for (int d = 0; d < dims; ++d) {
        sums[assign[i]][d] += w * pts.Point(i)[d];
      }
    }
    for (int c = 0; c < k; ++c) {
      if (mass[c] <= 0) {
        size_t far = rng.Below(n);
        centroids[c].assign(pts.Point(far), pts.Point(far) + dims);
        continue;
      }
      for (int d = 0; d < dims; ++d) centroids[c][d] = sums[c][d] / mass[c];
    }
  }
  result.centroids = std::move(centroids);
  result.iterations = it;
  double obj = 0;
  for (size_t i = 0; i < n; ++i) {
    double d;
    Nearest(pts.Point(i), result.centroids, dims, &d);
    obj += d * weight(i);
  }
  result.objective = obj;
  return result;
}

}  // namespace oracle

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void ExpectSameBits(const KMeansResult& want, const KMeansResult& got) {
  EXPECT_EQ(want.iterations, got.iterations);
  EXPECT_TRUE(SameBits(want.objective, got.objective))
      << std::hexfloat << want.objective << " vs " << got.objective;
  ASSERT_EQ(want.centroids.size(), got.centroids.size());
  for (size_t c = 0; c < want.centroids.size(); ++c) {
    ASSERT_EQ(want.centroids[c].size(), got.centroids[c].size());
    for (size_t d = 0; d < want.centroids[c].size(); ++d) {
      EXPECT_TRUE(SameBits(want.centroids[c][d], got.centroids[c][d]))
          << "centroid " << c << " dim " << d << ": " << std::hexfloat
          << want.centroids[c][d] << " vs " << got.centroids[c][d];
    }
  }
}

WeightedPoints ThreeBlobs(int per_blob, uint64_t seed) {
  Rng rng(seed);
  WeightedPoints pts;
  pts.dims = 2;
  const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  for (int b = 0; b < 3; ++b) {
    for (int i = 0; i < per_blob; ++i) {
      pts.coords.push_back(centers[b][0] + rng.Gaussian(0, 0.3));
      pts.coords.push_back(centers[b][1] + rng.Gaussian(0, 0.3));
    }
  }
  return pts;
}

TEST(LloydKMeansTest, SeparatesBlobs) {
  WeightedPoints pts = ThreeBlobs(200, 1);
  KMeansOptions opts;
  opts.k = 3;
  KMeansResult result = LloydKMeans(pts, opts);
  ASSERT_EQ(result.centroids.size(), 3u);
  // Each centroid is near one blob center; objective is tiny relative to
  // the blob separation.
  EXPECT_LT(result.objective / (3 * 200), 0.5);
  for (const auto& c : result.centroids) {
    double best = 1e18;
    const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
    for (auto& center : centers) {
      double d = (c[0] - center[0]) * (c[0] - center[0]) +
                 (c[1] - center[1]) * (c[1] - center[1]);
      best = std::min(best, d);
    }
    EXPECT_LT(best, 1.0);
  }
}

TEST(LloydKMeansTest, WeightsShiftCentroids) {
  // Two points; weight one 9x: the 1-means centroid is the weighted mean.
  WeightedPoints pts;
  pts.dims = 1;
  pts.coords = {0.0, 10.0};
  pts.weights = {9.0, 1.0};
  KMeansOptions opts;
  opts.k = 1;
  KMeansResult r = LloydKMeans(pts, opts);
  ASSERT_EQ(r.centroids.size(), 1u);
  EXPECT_NEAR(r.centroids[0][0], 1.0, 1e-9);
}

TEST(LloydKMeansTest, ObjectiveDecreasesWithK) {
  WeightedPoints pts = ThreeBlobs(100, 2);
  double prev = 1e300;
  for (int k = 1; k <= 4; ++k) {
    KMeansOptions opts;
    opts.k = k;
    double obj = LloydKMeans(pts, opts).objective;
    EXPECT_LE(obj, prev * 1.0001);
    prev = obj;
  }
}

TEST(LloydKMeansTest, EmptyInput) {
  WeightedPoints pts;
  pts.dims = 2;
  KMeansOptions opts;
  KMeansResult r = LloydKMeans(pts, opts);
  EXPECT_TRUE(r.centroids.empty());
  EXPECT_EQ(r.objective, 0.0);
}

// A point with a NaN coordinate is left out: the result is bit-equal to a
// run over the other points, weighted or not, and KMeansObjective skips it
// too. With every point NaN there is nothing to cluster.
TEST(LloydKMeansTest, NanPointsAreLeftOut) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (bool weighted : {false, true}) {
    SCOPED_TRACE(weighted ? "weighted" : "unweighted");
    WeightedPoints with_nan = ThreeBlobs(20, 3);
    if (weighted) {
      for (size_t i = 0; i < with_nan.num_points(); ++i) {
        with_nan.weights.push_back(0.5 + static_cast<double>(i % 3));
      }
    }
    WeightedPoints without;
    without.dims = with_nan.dims;
    for (size_t i = 0; i < with_nan.num_points(); ++i) {
      if (i % 7 == 0) {
        // One or both coordinates NaN, the first point included.
        with_nan.coords[i * 2 + (i % 2)] = nan;
        if (i % 3 == 0) with_nan.coords[i * 2 + 1 - (i % 2)] = nan;
        continue;
      }
      without.coords.insert(without.coords.end(), with_nan.Point(i),
                            with_nan.Point(i) + 2);
      if (weighted) without.weights.push_back(with_nan.weights[i]);
    }
    KMeansOptions opts;
    opts.k = 3;
    const KMeansResult want = LloydKMeans(without, opts);
    const KMeansResult got = LloydKMeans(with_nan, opts);
    EXPECT_TRUE(std::isfinite(got.objective));
    ExpectSameBits(want, got);
    EXPECT_TRUE(SameBits(KMeansObjective(without, want.centroids),
                         KMeansObjective(with_nan, want.centroids)));
    if (!weighted) {
      DataMatrix data({"x", "y"});
      for (size_t i = 0; i < with_nan.num_points(); ++i) {
        data.AppendRow(with_nan.Point(i));
      }
      ExpectSameBits(want, LloydKMeans(data, opts));
    }
  }
  WeightedPoints all_nan;
  all_nan.dims = 2;
  all_nan.coords.assign(10, nan);
  const KMeansResult r = LloydKMeans(all_nan, {});
  EXPECT_TRUE(r.centroids.empty());
  EXPECT_EQ(r.objective, 0.0);
  EXPECT_EQ(r.iterations, 0);
}

// The point sets of the kernel-vs-oracle grid. Each reaches a different
// branch of seeding or the update step.
enum class Shape {
  kUniform,     // unweighted random points
  kWeighted,    // random points, random weights including zeros
  kDuplicates,  // every point equal: seeding's sum <= 0 branch
  kZeroMass,    // two weighted points plus far zero-weight ones: clusters
                // holding only zero-weight points reseed
};

WeightedPoints MakeShape(Shape shape, int dims, uint64_t seed) {
  Rng rng(seed);
  WeightedPoints pts;
  pts.dims = dims;
  const int n = shape == Shape::kZeroMass ? 12 : 157;
  for (int i = 0; i < n; ++i) {
    for (int d = 0; d < dims; ++d) {
      double x = rng.Uniform(-5, 5);
      if (shape == Shape::kDuplicates) x = 1.25;
      if (shape == Shape::kZeroMass) x = i < 2 ? i : 100 + rng.Uniform(0, 5);
      pts.coords.push_back(x);
    }
    if (shape == Shape::kWeighted) {
      pts.weights.push_back(static_cast<double>(rng.Below(4)) * 0.75);
    } else if (shape == Shape::kZeroMass) {
      pts.weights.push_back(i < 2 ? 1.0 : 0.0);
    }
  }
  return pts;
}

class LloydKernelVsOracle
    : public ::testing::TestWithParam<std::tuple<int, Shape>> {};

TEST_P(LloydKernelVsOracle, BitIdentical) {
  auto [dims, shape] = GetParam();
  const WeightedPoints pts = MakeShape(shape, dims, 17 + dims);
  // k = 12 runs eleven seeding rounds.
  for (int k : {1, 3, 8, 12}) {
    for (int max_iters : {0, 1, 30}) {
      SCOPED_TRACE(::testing::Message() << "k=" << k
                                        << " max_iters=" << max_iters);
      KMeansOptions opts;
      opts.k = k;
      opts.max_iters = max_iters;
      ExpectSameBits(oracle::LloydKMeans(pts, opts), LloydKMeans(pts, opts));
      if (k == 1) continue;
      // KMeansObjective runs the same kernel on caller-supplied centroids.
      const KMeansResult ref = oracle::LloydKMeans(pts, opts);
      EXPECT_TRUE(SameBits(ref.objective,
                           KMeansObjective(pts, ref.centroids)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndShapes, LloydKernelVsOracle,
    ::testing::Combine(::testing::Range(1, 13),
                       ::testing::Values(Shape::kUniform, Shape::kWeighted,
                                         Shape::kDuplicates,
                                         Shape::kZeroMass)));

TEST(LloydKMeansDeathTest, RejectsBadOptions) {
  WeightedPoints pts;
  pts.dims = 1;
  pts.coords = {0.0, 1.0, 2.0, 3.0};
  KMeansOptions zero_k;
  zero_k.k = 0;
  EXPECT_DEATH(LloydKMeans(pts, zero_k), "CHECK failed");
  KMeansOptions negative_iters;
  negative_iters.max_iters = -1;
  EXPECT_DEATH(LloydKMeans(pts, negative_iters), "CHECK failed");
}

TEST(RelationalKMeansDeathTest, RejectsBadOptions) {
  RandomDb db = MakeRandomDb(3, Topology::kStar, /*fact_rows=*/80);
  FeatureMap fm(db.query, db.features);
  RootedTree tree = db.query.Root(0);
  KMeansOptions zero_k;
  zero_k.k = 0;
  EXPECT_DEATH(RelationalKMeans(tree, fm, zero_k), "CHECK failed");
  KMeansOptions negative_iters;
  negative_iters.max_iters = -1;
  EXPECT_DEATH(RelationalKMeans(tree, fm, negative_iters), "CHECK failed");
}

// Rk-means on Retailer with default options, as hex floats: any change to
// the arithmetic order of seeding, Lloyd or the counting pass shows here. GCC
// contracts a*b+c into a fused multiply-add wherever the target has FMA
// (-march=native on most hosts), which moves the last bits of the data
// generator and of k-means alike, so there is one table per case.
struct RetailerGolden {
  uint64_t seed;
  int iterations;
  size_t coreset_size;
  double objective;
  std::vector<std::vector<double>> centroids;
};

// Rk-means with default options on Retailer at scale 0.01, rooted at the
// relation named `root`, against `g`.
void ExpectRetailerGolden(const char* root, const RetailerGolden& g) {
  SCOPED_TRACE(::testing::Message() << "root=" << root << " seed=" << g.seed);
  GenOptions gen;
  gen.scale = 0.01;
  gen.seed = g.seed;
  const Dataset ds = MakeRetailer(gen);
  const FeatureMap fm(ds.query, ds.features);
  const KMeansResult r =
      RelationalKMeans(ds.query.Root(ds.query.IndexOf(root)), fm, {});
  EXPECT_EQ(r.coreset_size, g.coreset_size);
  KMeansResult want;
  want.iterations = g.iterations;
  want.objective = g.objective;
  want.centroids = g.centroids;
  ExpectSameBits(want, r);
}

TEST(RelationalKMeansGolden, RetailerBitIdentical) {
  const RetailerGolden goldens[] = {
#if defined(__FMA__)
      {1, 7, 4872, 0x1.af7ff4d0952d2p+24,
       {
        {0x1.e2aebbc748348p+4, 0x1.13ca90c0008fbp+6, 0x1.a13c0df86ad92p+5,
         0x1.0b7b2f64ad5ccp+4, 0x1.18e0b30f69dbdp+6, 0x1.4b060ada0493fp+5,
         0x1.798663a365872p+4, 0x1.c0f7fd124db69p+5, 0x1.660805c2fa8adp+5,
         0x1.9477c31b2ed87p+3, 0x1.03d35b56a687dp-2, 0x1.23f54a414cdcfp+3},
        {0x1.d7eb8825fd8a6p+4, 0x1.41c8ccbc0ffbp+7, 0x1.bd118ff421ab5p+6,
         0x1.de16dde718efcp+3, 0x1.72888ab64fb6cp+4, 0x1.35aeae08bb8bcp+5,
         0x1.02ba5feab981ap+3, 0x1.e4333a735298ap+5, 0x1.8a72bf4b2c3b6p+5,
         0x1.86b9ac8b851cep+3, 0x1.0c2169d7e09e9p-2, 0x1.44ff5367c5e5fp+3},
        {0x1.e2a32afeee781p+4, 0x1.b8a6ab120cbddp+6, 0x1.04828802be0f1p+5,
         0x1.ecc179e83979ap+3, 0x1.d0764297bdc9bp+4, 0x1.3046be5daaab1p+5,
         0x1.43049898e93c2p+3, 0x1.dcfd73f8ef5bep+5, 0x1.8254a29cc2988p+5,
         0x1.7318e0bc4a91bp+3, 0x1.02a521f94b5b8p-2, 0x1.4db9631c84b03p+3},
        {0x1.e548f48263feep+4, 0x1.7c6bc232ffb1dp+7, 0x1.ec34e97056ffp+5,
         0x1.7e094d90114a7p+3, 0x1.37beab1f0215ap+5, 0x1.4677ef7e3ce63p+5,
         0x1.9fa7ed77233c6p+3, 0x1.a85c7f451c758p+5, 0x1.4d349464f95dcp+5,
         0x1.8a8aad1f317cbp+3, 0x1.053a35c0e44d4p-2, 0x1.53e91b965f0efp+3},
        {0x1.ded34919e0a73p+4, 0x1.5d239d4001c21p+5, 0x1.ec4be2572958cp+5,
         0x1.f9eacdd18efb7p+3, 0x1.9662527f22ad8p+4, 0x1.44f63fcd939fdp+5,
         0x1.1fccb1015f1fp+3, 0x1.8e9c2611dd718p+5, 0x1.32534ec1eb81bp+5,
         0x1.8abf1efe37a74p+3, 0x1.f9c401f73e166p-3, 0x1.07471576f3561p+3}}},
      {2, 5, 4334, 0x1.8a8c31a5bec49p+24,
       {
        {0x1.f2177b2ac703dp+4, 0x1.814e2deed1223p+7, 0x1.83c2187229d7ap+6,
         0x1.b3a99fca21539p+3, 0x1.53e2fa49dee94p+5, 0x1.24c45f133a734p+5,
         0x1.f978d38c43e59p+3, 0x1.67a522d12e5ffp+5, 0x1.0a27801293a78p+5,
         0x1.839ec5c8eb4a1p+3, 0x1.0dc81c7d9daddp-2, 0x1.80adf764498a8p+3},
        {0x1.e3adcdaea62c1p+4, 0x1.4e41aa85a1b7cp+4, 0x1.af3124436b18cp+6,
         0x1.77b3046b523eap+4, 0x1.06c4bd7a460dfp+6, 0x1.d96cc554b1b9ep+4,
         0x1.559e6055fd2b7p+4, 0x1.73d295dc80e5p+5, 0x1.16c698154b6f1p+5,
         0x1.72e925b7b9701p+3, 0x1.071dc9ba9952dp-2, 0x1.d8ad05f63ccf4p+2},
        {0x1.f11905ebd9ba3p+4, 0x1.debdfaf0290d4p+6, 0x1.f7c9c7598dbcep+6,
         0x1.063e2238f1cfap+4, 0x1.8e24a979ebb1fp+5, 0x1.0d03ca03da818p+5,
         0x1.0f7a0cfe60389p+4, 0x1.7cd8b5d51f286p+5, 0x1.1f9be47a5ef2p+5,
         0x1.90f021e40addcp+3, 0x1.08c79faddb30dp-2, 0x1.34ef5124a3138p+3},
        {0x1.ec07727d3261fp+4, 0x1.1e4cf7df525afp+7, 0x1.9524eba8ccb5fp+5,
         0x1.f643c315d24e4p+3, 0x1.6d44ab17ba7f5p+5, 0x1.2766b4a5419a1p+5,
         0x1.dfe6995889164p+3, 0x1.be1698bd59295p+5, 0x1.63ecfe82806b9p+5,
         0x1.89c0063e3511p+3, 0x1.e0d759b6ad40ap-3, 0x1.4cba2f5c78b8ep+3},
        {0x1.f08a147fcafc3p+4, 0x1.39d86380d7e4ap+6, 0x1.e2d751fbb29a6p+5,
         0x1.3aa379fce99aap+4, 0x1.aacc3b78f0138p+5, 0x1.dfce2caecc972p+4,
         0x1.43c51fc7e80dcp+4, 0x1.a2c21c9b618aap+5, 0x1.47853216b98fep+5,
         0x1.704eddc09a39bp+3, 0x1.f43eebb43c6bbp-3, 0x1.0f657f4ddc584p+3}}},
#else
      {1, 7, 4872, 0x1.af7ff4d0952cdp+24,
       {
        {0x1.e2aebbc74834ap+4, 0x1.13ca90c0008fbp+6, 0x1.a13c0df86ad92p+5,
         0x1.0b7b2f64ad5ccp+4, 0x1.18e0b30f69dbdp+6, 0x1.4b060ada0493fp+5,
         0x1.798663a365872p+4, 0x1.c0f7fd124db69p+5, 0x1.660805c2fa8acp+5,
         0x1.9477c31b2ed87p+3, 0x1.03d35b56a687dp-2, 0x1.23f54a414cdcfp+3},
        {0x1.d7eb8825fd8a7p+4, 0x1.41c8ccbc0ffbp+7, 0x1.bd118ff421ab5p+6,
         0x1.de16dde718efcp+3, 0x1.72888ab64fb6cp+4, 0x1.35aeae08bb8bcp+5,
         0x1.02ba5feab981ap+3, 0x1.e4333a735298ap+5, 0x1.8a72bf4b2c3b6p+5,
         0x1.86b9ac8b851dp+3, 0x1.0c2169d7e09e9p-2, 0x1.44ff5367c5e5fp+3},
        {0x1.e2a32afeee781p+4, 0x1.b8a6ab120cbdep+6, 0x1.04828802be0f2p+5,
         0x1.ecc179e83979ap+3, 0x1.d0764297bdc9bp+4, 0x1.3046be5daaab1p+5,
         0x1.43049898e93c2p+3, 0x1.dcfd73f8ef5bcp+5, 0x1.8254a29cc2988p+5,
         0x1.7318e0bc4a91bp+3, 0x1.02a521f94b5b7p-2, 0x1.4db9631c84b03p+3},
        {0x1.e548f48263feep+4, 0x1.7c6bc232ffb1dp+7, 0x1.ec34e97056ffp+5,
         0x1.7e094d90114a7p+3, 0x1.37beab1f0215ap+5, 0x1.4677ef7e3ce63p+5,
         0x1.9fa7ed77233c6p+3, 0x1.a85c7f451c758p+5, 0x1.4d349464f95dcp+5,
         0x1.8a8aad1f317cbp+3, 0x1.053a35c0e44d4p-2, 0x1.53e91b965f0efp+3},
        {0x1.ded34919e0a73p+4, 0x1.5d239d4001c21p+5, 0x1.ec4be2572958cp+5,
         0x1.f9eacdd18efb7p+3, 0x1.9662527f22ad8p+4, 0x1.44f63fcd939fdp+5,
         0x1.1fccb1015f1fp+3, 0x1.8e9c2611dd718p+5, 0x1.32534ec1eb81bp+5,
         0x1.8abf1efe37a74p+3, 0x1.f9c401f73e164p-3, 0x1.07471576f3561p+3}}},
      {2, 5, 4334, 0x1.8a8c31a5bec48p+24,
       {
        {0x1.f2177b2ac703dp+4, 0x1.814e2deed1222p+7, 0x1.83c2187229d7ap+6,
         0x1.b3a99fca21539p+3, 0x1.53e2fa49dee94p+5, 0x1.24c45f133a734p+5,
         0x1.f978d38c43e59p+3, 0x1.67a522d12e6p+5, 0x1.0a27801293a79p+5,
         0x1.839ec5c8eb4ap+3, 0x1.0dc81c7d9daddp-2, 0x1.80adf764498a8p+3},
        {0x1.e3adcdaea62c1p+4, 0x1.4e41aa85a1b7cp+4, 0x1.af3124436b18cp+6,
         0x1.77b3046b523ecp+4, 0x1.06c4bd7a460dfp+6, 0x1.d96cc554b1b9ep+4,
         0x1.559e6055fd2b7p+4, 0x1.73d295dc80e5p+5, 0x1.16c698154b6f1p+5,
         0x1.72e925b7b9701p+3, 0x1.071dc9ba9952cp-2, 0x1.d8ad05f63ccf4p+2},
        {0x1.f11905ebd9ba3p+4, 0x1.debdfaf0290d4p+6, 0x1.f7c9c7598dbcep+6,
         0x1.063e2238f1cfap+4, 0x1.8e24a979ebb1fp+5, 0x1.0d03ca03da819p+5,
         0x1.0f7a0cfe60389p+4, 0x1.7cd8b5d51f287p+5, 0x1.1f9be47a5ef1ep+5,
         0x1.90f021e40addbp+3, 0x1.08c79faddb30dp-2, 0x1.34ef5124a3138p+3},
        {0x1.ec07727d3261fp+4, 0x1.1e4cf7df525afp+7, 0x1.9524eba8ccb5fp+5,
         0x1.f643c315d24e4p+3, 0x1.6d44ab17ba7f5p+5, 0x1.2766b4a5419a1p+5,
         0x1.dfe6995889164p+3, 0x1.be1698bd59296p+5, 0x1.63ecfe82806b9p+5,
         0x1.89c0063e3510fp+3, 0x1.e0d759b6ad40ap-3, 0x1.4cba2f5c78b8ep+3},
        {0x1.f08a147fcafc2p+4, 0x1.39d86380d7e49p+6, 0x1.e2d751fbb29a6p+5,
         0x1.3aa379fce99aap+4, 0x1.aacc3b78f0138p+5, 0x1.dfce2caecc972p+4,
         0x1.43c51fc7e80dbp+4, 0x1.a2c21c9b618abp+5, 0x1.47853216b98fep+5,
         0x1.704eddc09a39bp+3, 0x1.f43eebb43c6bbp-3, 0x1.0f657f4ddc584p+3}}},
#endif
  };
  for (const RetailerGolden& g : goldens) ExpectRetailerGolden("Inventory", g);
}

// Rooted at Weather or at Stores, Inventory lies below the root and its
// payloads hold many coreset keys per join key, so the counting pass runs
// its general product; rooted at Inventory every payload holds one key.
struct RootedGolden {
  const char* root;
  RetailerGolden golden;
};

TEST(RelationalKMeansGolden, RetailerOtherRootsBitIdentical) {
  const RootedGolden goldens[] = {
#if defined(__FMA__)
      {"Weather",
       {1, 8, 4872, 0x1.cbcd06e8cf626p+24,
        {
         {0x1.e2a6253160e1ep+4, 0x1.44050a1a2abcp+6, 0x1.73922c5b4209cp+5,
          0x1.056f70c76b03p+4, 0x1.007a5527e997dp+6, 0x1.53108eb471bf5p+5,
          0x1.5a5f367fb9b2ap+4, 0x1.cdfd9b662f7bcp+5, 0x1.7393bd5c3e7c8p+5,
          0x1.8f30860939f2cp+3, 0x1.06019c95aab61p-2, 0x1.3527bab4dab27p+3},
         {0x1.dea6763cd9cd9p+4, 0x1.32befcc2aebfap+7, 0x1.55a6ce57f519ap+6,
          0x1.1c7fba53cf43cp+4, 0x1.546011ccba1e2p+4, 0x1.2f7cdeff56898p+5,
          0x1.d0427bb713aap+2, 0x1.ad576e93ceb69p+5, 0x1.518f9f540e347p+5,
          0x1.7d2eee85a68b3p+3, 0x1.fa62c0b1431acp-3, 0x1.448d08c232a22p+3},
         {0x1.d2ac63d51c03bp+4, 0x1.7515b1e1df79fp+7, 0x1.e4777eb1fda4fp+6,
          0x1.0c1fafeb2018p+3, 0x1.8a62c9c7f3f16p+3, 0x1.1c265cf107242p+5,
          0x1.27f50d323ab5p+2, 0x1.f4fd14f31ad2fp+5, 0x1.9b4c01ceb97a1p+5,
          0x1.a0f998e781d4ep+3, 0x1.1b98cff4ae98dp-2, 0x1.40dc82f6339b1p+3},
         {0x1.dfa17b9ea472ap+4, 0x1.b2a754401dd5p+5, 0x1.b4f252ef6f703p+5,
          0x1.e0a3b478b02b9p+3, 0x1.5320b061d7111p+4, 0x1.329fed10c4742p+5,
          0x1.e33be93411f2fp+2, 0x1.94574062dbeap+5, 0x1.37a1878d7c12fp+5,
          0x1.82b41520ef39ep+3, 0x1.edc293e7304d9p-3, 0x1.1d8a5499810eep+3},
         {0x1.e1a76a42e5dccp+4, 0x1.79f90998db54dp+7, 0x1.45a58aa6a749bp+6,
          0x1.5805e5ba30203p+3, 0x1.0f05116ad3d76p+6, 0x1.7ab67eafce00ep+5,
          0x1.6d428719143aap+4, 0x1.16e6c8fba00e7p+6, 0x1.d8a2ae74e3cc9p+5,
          0x1.7adb13e1b78c4p+3, 0x1.1fd2bffeb3a7ap-2, 0x1.54d3267fc20afp+3}}}},
      {"Stores",
       {2, 3, 4334, 0x1.b0f52e5154548p+24,
        {
         {0x1.ebec13df59517p+4, 0x1.50800f25bd603p+7, 0x1.14a93cb43de1bp+6,
          0x1.260de486d5177p+4, 0x1.671c04616a992p+3, 0x1.47f345e0d3f1dp+5,
          0x1.dffe69a540aa1p+1, 0x1.6290f6cf8f68dp+5, 0x1.04343c5f6cf34p+5,
          0x1.7ff50e35a95ep+3, 0x1.118c9489912fep-2, 0x1.595a7cc82fdaap+3},
         {0x1.e3adcdaea62c1p+4, 0x1.4e41aa85a1b7cp+4, 0x1.af3124436b18cp+6,
          0x1.77b3046b523eap+4, 0x1.06c4bd7a460dfp+6, 0x1.d96cc554b1b9ep+4,
          0x1.559e6055fd2b7p+4, 0x1.73d295dc80e5p+5, 0x1.16c698154b6f1p+5,
          0x1.72e925b7b9701p+3, 0x1.071dc9ba9952dp-2, 0x1.d8ad05f63ccf4p+2},
         {0x1.f11905ebd9ba5p+4, 0x1.debdfaf0290d4p+6, 0x1.f7c9c7598dbcep+6,
          0x1.063e2238f1cfap+4, 0x1.8e24a979ebb1fp+5, 0x1.0d03ca03da818p+5,
          0x1.0f7a0cfe60389p+4, 0x1.7cd8b5d51f286p+5, 0x1.1f9be47a5ef2p+5,
          0x1.90f021e40addcp+3, 0x1.08c79faddb30dp-2, 0x1.34ef5124a3138p+3},
         {0x1.f003b0032823cp+4, 0x1.6a861a93a2c0ap+6, 0x1.d24951829ed02p+5,
          0x1.36e4bf907cdfp+4, 0x1.c85bc10e9a69ep+5, 0x1.e2cda4a695109p+4,
          0x1.50a054f513552p+4, 0x1.a9a1a7b5c7c65p+5, 0x1.4edd93866a68ap+5,
          0x1.7bf6feaea08c4p+3, 0x1.ed1e2508d78bbp-3, 0x1.16b2567ae40fcp+3},
         {0x1.f2e11fe97babcp+4, 0x1.6bc7490c437fap+7, 0x1.69a8af2499971p+6,
          0x1.2dd22ae292829p+3, 0x1.01443358fed1dp+6, 0x1.1816d334ae8a8p+5,
          0x1.713c5edf4c07ep+4, 0x1.a81624f1a4816p+5, 0x1.4d52255b9e386p+5,
          0x1.7e79eacac8eeep+3, 0x1.f06faf9544567p-3, 0x1.8ad1b3ed183d4p+3}}}},
#else
      {"Weather",
       {1, 8, 4872, 0x1.cbcd06e8cf627p+24,
        {
         {0x1.e2a6253160e1ep+4, 0x1.44050a1a2abcp+6, 0x1.73922c5b4209cp+5,
          0x1.056f70c76b03p+4, 0x1.007a5527e997dp+6, 0x1.53108eb471bf5p+5,
          0x1.5a5f367fb9b2ap+4, 0x1.cdfd9b662f7bbp+5, 0x1.7393bd5c3e7c8p+5,
          0x1.8f30860939f2cp+3, 0x1.06019c95aab61p-2, 0x1.3527bab4dab27p+3},
         {0x1.dea6763cd9cd9p+4, 0x1.32befcc2aebfap+7, 0x1.55a6ce57f519ap+6,
          0x1.1c7fba53cf43cp+4, 0x1.546011ccba1e2p+4, 0x1.2f7cdeff56898p+5,
          0x1.d0427bb713aap+2, 0x1.ad576e93ceb69p+5, 0x1.518f9f540e347p+5,
          0x1.7d2eee85a68b5p+3, 0x1.fa62c0b1431acp-3, 0x1.448d08c232a22p+3},
         {0x1.d2ac63d51c03bp+4, 0x1.7515b1e1df79ep+7, 0x1.e4777eb1fda4fp+6,
          0x1.0c1fafeb2018p+3, 0x1.8a62c9c7f3f16p+3, 0x1.1c265cf107242p+5,
          0x1.27f50d323ab5p+2, 0x1.f4fd14f31ad2fp+5, 0x1.9b4c01ceb97a1p+5,
          0x1.a0f998e781d4ep+3, 0x1.1b98cff4ae98dp-2, 0x1.40dc82f6339b1p+3},
         {0x1.dfa17b9ea472ap+4, 0x1.b2a754401dd5p+5, 0x1.b4f252ef6f705p+5,
          0x1.e0a3b478b02b9p+3, 0x1.5320b061d7111p+4, 0x1.329fed10c4742p+5,
          0x1.e33be93411f2fp+2, 0x1.94574062dbeap+5, 0x1.37a1878d7c12fp+5,
          0x1.82b41520ef39ep+3, 0x1.edc293e7304d7p-3, 0x1.1d8a5499810edp+3},
         {0x1.e1a76a42e5dcdp+4, 0x1.79f90998db54dp+7, 0x1.45a58aa6a749bp+6,
          0x1.5805e5ba30203p+3, 0x1.0f05116ad3d76p+6, 0x1.7ab67eafce00ep+5,
          0x1.6d428719143aap+4, 0x1.16e6c8fba00e6p+6, 0x1.d8a2ae74e3cc9p+5,
          0x1.7adb13e1b78c4p+3, 0x1.1fd2bffeb3a7ap-2, 0x1.54d3267fc20afp+3}}}},
      {"Stores",
       {2, 3, 4334, 0x1.b0f52e5154548p+24,
        {
         {0x1.ebec13df59517p+4, 0x1.50800f25bd603p+7, 0x1.14a93cb43de1bp+6,
          0x1.260de486d5177p+4, 0x1.671c04616a992p+3, 0x1.47f345e0d3f1cp+5,
          0x1.dffe69a540aa1p+1, 0x1.6290f6cf8f68cp+5, 0x1.04343c5f6cf34p+5,
          0x1.7ff50e35a95ep+3, 0x1.118c9489912fep-2, 0x1.595a7cc82fdaap+3},
         {0x1.e3adcdaea62c1p+4, 0x1.4e41aa85a1b7cp+4, 0x1.af3124436b18cp+6,
          0x1.77b3046b523ecp+4, 0x1.06c4bd7a460dfp+6, 0x1.d96cc554b1b9ep+4,
          0x1.559e6055fd2b7p+4, 0x1.73d295dc80e5p+5, 0x1.16c698154b6f1p+5,
          0x1.72e925b7b9701p+3, 0x1.071dc9ba9952cp-2, 0x1.d8ad05f63ccf4p+2},
         {0x1.f11905ebd9ba5p+4, 0x1.debdfaf0290d4p+6, 0x1.f7c9c7598dbcep+6,
          0x1.063e2238f1cfap+4, 0x1.8e24a979ebb1fp+5, 0x1.0d03ca03da819p+5,
          0x1.0f7a0cfe60389p+4, 0x1.7cd8b5d51f287p+5, 0x1.1f9be47a5ef1ep+5,
          0x1.90f021e40addbp+3, 0x1.08c79faddb30dp-2, 0x1.34ef5124a3138p+3},
         {0x1.f003b0032823cp+4, 0x1.6a861a93a2c0ap+6, 0x1.d24951829ed02p+5,
          0x1.36e4bf907cdfp+4, 0x1.c85bc10e9a69ep+5, 0x1.e2cda4a695109p+4,
          0x1.50a054f513551p+4, 0x1.a9a1a7b5c7c65p+5, 0x1.4edd93866a68ap+5,
          0x1.7bf6feaea08c1p+3, 0x1.ed1e2508d78bbp-3, 0x1.16b2567ae40fcp+3},
         {0x1.f2e11fe97babdp+4, 0x1.6bc7490c437f9p+7, 0x1.69a8af2499971p+6,
          0x1.2dd22ae292829p+3, 0x1.01443358fed1dp+6, 0x1.1816d334ae8a8p+5,
          0x1.713c5edf4c07ep+4, 0x1.a81624f1a4816p+5, 0x1.4d52255b9e387p+5,
          0x1.7e79eacac8eeep+3, 0x1.f06faf9544567p-3, 0x1.8ad1b3ed183d4p+3}}}},
#endif
  };
  for (const RootedGolden& g : goldens) ExpectRetailerGolden(g.root, g.golden);
}

// F(k, x) with 200 rows joins D(k, y) with 20. A NaN lands in the rows
// listed in nan_f (F.x) and nan_d (D.y); with `drop` those rows are not
// added at all.
struct NanDb {
  Catalog catalog;
  JoinQuery query;
  std::vector<FeatureRef> features{{"F", "x"}, {"D", "y"}};
};

void BuildNanDb(NanDb* db, const std::vector<int>& nan_f,
                const std::vector<int>& nan_d, bool drop) {
  Relation* f = db->catalog.AddRelation(
      "F", Schema({{"k", AttrType::kCategorical}, {"x", AttrType::kDouble}}));
  Relation* d = db->catalog.AddRelation(
      "D", Schema({{"k", AttrType::kCategorical}, {"y", AttrType::kDouble}}));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto listed = [](const std::vector<int>& rows, int i) {
    return std::find(rows.begin(), rows.end(), i) != rows.end();
  };
  Rng rng(29);
  for (int i = 0; i < 20; ++i) {
    const double y = rng.Uniform(-3, 3);
    if (listed(nan_d, i)) {
      if (!drop) d->AppendRow({static_cast<double>(i), nan});
      continue;
    }
    d->AppendRow({static_cast<double>(i), y});
  }
  for (int i = 0; i < 200; ++i) {
    const double k = static_cast<double>(rng.Below(20));
    const double x = rng.Uniform(-5, 5);
    if (listed(nan_f, i)) {
      if (!drop) f->AppendRow({k, nan});
      continue;
    }
    f->AppendRow({k, x});
  }
  db->query.AddRelation(f);
  db->query.AddRelation(d);
  db->query.AddJoin("F", "D", {"k"});
}

// A row with a NaN feature is left out of Rk-means as a filtered row is:
// out of its relation's points and out of the counting pass. The result
// is bit-identical to Rk-means over the relations without those rows.
TEST(RelationalKMeansTest, NanFeatureRowsAreLeftOut) {
  const std::vector<std::pair<std::vector<int>, std::vector<int>>> cases = {
      {{}, {3}}, {{0, 17, 199}, {}}, {{5}, {0, 19}}};
  for (const auto& [nan_f, nan_d] : cases) {
    NanDb with_nan;
    BuildNanDb(&with_nan, nan_f, nan_d, /*drop=*/false);
    NanDb without;
    BuildNanDb(&without, nan_f, nan_d, /*drop=*/true);
    for (int root = 0; root < 2; ++root) {
      SCOPED_TRACE(::testing::Message()
                   << "nan_f " << nan_f.size() << " nan_d " << nan_d.size()
                   << " root " << root);
      const FeatureMap fm(with_nan.query, with_nan.features);
      const KMeansResult got =
          RelationalKMeans(with_nan.query.Root(root), fm, {});
      EXPECT_TRUE(std::isfinite(got.objective));
      for (const std::vector<double>& c : got.centroids) {
        for (double x : c) EXPECT_TRUE(std::isfinite(x));
      }
      const FeatureMap fm_without(without.query, without.features);
      const KMeansResult want =
          RelationalKMeans(without.query.Root(root), fm_without, {});
      EXPECT_EQ(got.coreset_size, want.coreset_size);
      ExpectSameBits(want, got);
    }
  }
}

// R(a, b, x) joins A(a, y) and B(b, z), A before B among R's children.
// A's two rows with a = 1 are equal, so they share a centroid and A's
// payload for a = 1 holds one key counted twice; B's rows with b = 1
// differ, so B's payload for b = 1 holds two keys. The R rows with b = 1
// meet a single-key payload first and a multi-key one second. Every local
// centroid is a row's exact value, so one centroid over the coreset is
// the mean of the join's 9 tuples.
TEST(RelationalKMeansTest, MixedPayloadsCountEveryTuple) {
  Catalog catalog;
  Relation* r = catalog.AddRelation(
      "R", Schema({{"a", AttrType::kCategorical},
                   {"b", AttrType::kCategorical},
                   {"x", AttrType::kDouble}}));
  Relation* a = catalog.AddRelation(
      "A", Schema({{"a", AttrType::kCategorical}, {"y", AttrType::kDouble}}));
  Relation* b = catalog.AddRelation(
      "B", Schema({{"b", AttrType::kCategorical}, {"z", AttrType::kDouble}}));
  for (const std::vector<double>& row :
       {std::vector<double>{1, 1, 0}, {2, 1, 1}, {1, 2, 2}, {2, 2, 3}}) {
    r->AppendRow(row);
  }
  a->AppendRow({1, 5});
  a->AppendRow({1, 5});
  a->AppendRow({2, 7});
  b->AppendRow({1, 0});
  b->AppendRow({1, 10});
  b->AppendRow({2, 3});
  JoinQuery query;
  query.AddRelation(r);
  query.AddRelation(a);
  query.AddRelation(b);
  query.AddJoin("R", "A", {"a"});
  query.AddJoin("R", "B", {"b"});
  const FeatureMap fm(query, {{"R", "x"}, {"A", "y"}, {"B", "z"}});
  KMeansOptions opts;
  opts.k = 1;
  for (int root = 0; root < 3; ++root) {
    SCOPED_TRACE(::testing::Message() << "root " << root);
    const RootedTree tree = query.Root(root);
    const KMeansResult got = RelationalKMeans(tree, fm, opts);
    const DataMatrix data = MaterializeJoin(tree, fm);
    ASSERT_EQ(data.num_rows(), 9u);
    EXPECT_EQ(got.coreset_size, 6u);  // distinct join tuples
    ASSERT_EQ(got.centroids.size(), 1u);
    for (int d = 0; d < data.num_cols(); ++d) {
      double mean = 0;
      for (size_t i = 0; i < data.num_rows(); ++i) mean += data.At(i, d);
      mean /= static_cast<double>(data.num_rows());
      EXPECT_NEAR(got.centroids[0][d], mean, 1e-12) << "dim " << d;
    }
  }
}

class RelationalKMeansProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, Topology>> {};

TEST_P(RelationalKMeansProperty, CoresetWeightsSumToJoinSize) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology, /*fact_rows=*/80);
  FeatureMap fm(db.query, db.features);
  RootedTree tree = db.query.Root(0);
  // As many local centroids as the largest relation has rows: every row
  // keeps its own centroid, so the coreset is the join itself, and one
  // centroid over it is the join's column means.
  KMeansOptions opts;
  opts.k = 1;
  for (int v = 0; v < tree.num_nodes(); ++v) {
    opts.per_relation_k = std::max<int>(
        opts.per_relation_k, static_cast<int>(tree.relation(v).num_rows()));
  }
  KMeansResult r = RelationalKMeans(tree, fm, opts);
  DataMatrix data = MaterializeJoin(tree, fm);
  EXPECT_EQ(r.coreset_size, data.num_rows());
  if (data.num_rows() == 0) {
    EXPECT_TRUE(r.centroids.empty());
    return;
  }
  ASSERT_EQ(r.centroids.size(), 1u);
  ASSERT_EQ(static_cast<int>(r.centroids[0].size()), data.num_cols());
  for (int d = 0; d < data.num_cols(); ++d) {
    double mean = 0;
    for (size_t i = 0; i < data.num_rows(); ++i) mean += data.At(i, d);
    mean /= static_cast<double>(data.num_rows());
    EXPECT_NEAR(r.centroids[0][d], mean, 1e-9 * std::max(1.0, std::abs(mean)))
        << "dim " << d;
  }
}

TEST_P(RelationalKMeansProperty, CoresetObjectiveNearFullLloyd) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology, /*fact_rows=*/80);
  FeatureMap fm(db.query, db.features);
  RootedTree tree = db.query.Root(0);
  DataMatrix data = MaterializeJoin(tree, fm);
  if (data.num_rows() < 20) GTEST_SKIP() << "join too small";

  WeightedPoints full;
  full.dims = data.num_cols();
  full.coords.assign(data.Row(0), data.Row(0) + data.num_rows() * full.dims);

  KMeansOptions opts;
  opts.k = 4;
  opts.per_relation_k = 6;
  KMeansResult base = LloydKMeans(full, opts);
  KMeansResult rel = RelationalKMeans(tree, fm, opts);
  ASSERT_FALSE(rel.centroids.empty());

  // Evaluate the coreset centroids on the FULL join: constant-factor
  // approximation (we allow 3x; the theory gives a constant too).
  double rel_obj_on_full = KMeansObjective(full, rel.centroids);
  EXPECT_LE(rel_obj_on_full, 3.0 * base.objective + 1e-6);
  // The coreset is much smaller than the join.
  EXPECT_LT(rel.coreset_size, data.num_rows());
}

INSTANTIATE_TEST_SUITE_P(
    RandomDbs, RelationalKMeansProperty,
    ::testing::Combine(::testing::ValuesIn(relborg::testing::kPropertySeedsSmall),
                       ::testing::Values(Topology::kStar, Topology::kChain,
                                         Topology::kBushy)));

}  // namespace
}  // namespace relborg
