// Tests for the shared decision-node batch engine against per-candidate
// computation over the materialized join.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "baseline/materializer.h"
#include "core/decision_node_engine.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace relborg {
namespace {

using testing::MakeRandomDb;
using testing::RandomDb;
using testing::Topology;

class DecisionNodeProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, Topology>> {};

TEST_P(DecisionNodeProperty, StatsMatchMaterialized) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology);
  FeatureMap fm(db.query, db.features);
  // Response: the last feature.
  int y = fm.num_features() - 1;
  int response_node = fm.NodeOf(y);
  int response_attr = fm.AttrOf(y);

  // Candidates: thresholds on every feature (one per feature), plus a
  // categorical candidate on the fact key.
  std::vector<SplitCandidate> candidates;
  for (int f = 0; f + 1 < fm.num_features(); ++f) {
    candidates.push_back(
        {fm.NodeOf(f), Predicate::Ge(fm.AttrOf(f), 0.25)});
    candidates.push_back(
        {fm.NodeOf(f), Predicate::Lt(fm.AttrOf(f), -0.5)});
  }
  candidates.push_back({0, Predicate::InSet(0, {0, 2, 4})});

  // Path filter restricting the first feature's relation.
  FilterSet path(db.query.num_relations());
  path[fm.NodeOf(0)].push_back(Predicate::Lt(fm.AttrOf(0), 1.5));

  std::vector<SplitStats> got = ComputeSplitStats(
      db.query, response_node, response_attr, path, candidates);

  // Reference: materialized join with all features plus the fact key.
  RootedTree tree = db.query.Root(0);
  std::vector<ColumnRef> cols;
  for (const auto& fr : db.features) cols.push_back({fr.relation, fr.attr});
  cols.push_back({db.query.relation(0)->name(), "k1"});
  DataMatrix m = MaterializeJoin(tree, cols, path);
  const int key_col = m.num_cols() - 1;

  for (size_t i = 0; i < candidates.size(); ++i) {
    double count = 0, sum = 0, sum_sq = 0;
    for (size_t r = 0; r < m.num_rows(); ++r) {
      bool pass;
      if (i + 1 == candidates.size()) {
        int32_t k = static_cast<int32_t>(m.At(r, key_col));
        pass = (k == 0 || k == 2 || k == 4);
      } else {
        int f = static_cast<int>(i / 2);
        double v = m.At(r, f);
        pass = (i % 2 == 0) ? v >= 0.25 : v < -0.5;
      }
      if (!pass) continue;
      double yv = m.At(r, y);
      count += 1;
      sum += yv;
      sum_sq += yv * yv;
    }
    EXPECT_NEAR(got[i].count, count, 1e-7) << i;
    EXPECT_NEAR(got[i].sum, sum, 1e-6 * (1 + std::abs(sum))) << i;
    EXPECT_NEAR(got[i].sum_sq, sum_sq, 1e-6 * (1 + std::abs(sum_sq))) << i;
  }
}

TEST_P(DecisionNodeProperty, ClassCountsMatchMaterialized) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology);
  // Response: the fact's categorical key k1 (acts as a class label).
  int response_node = 0;
  int response_attr = 0;
  FeatureMap fm(db.query, db.features);

  std::vector<SplitCandidate> candidates;
  candidates.push_back({fm.NodeOf(0), Predicate::Ge(fm.AttrOf(0), 0.0)});
  candidates.push_back({fm.NodeOf(1), Predicate::Lt(fm.AttrOf(1), 0.3)});

  std::vector<FlatHashMap<double>> got = ComputeSplitClassCounts(
      db.query, response_node, response_attr, {}, candidates);

  RootedTree tree = db.query.Root(0);
  std::vector<ColumnRef> cols{{db.query.relation(0)->name(), "k1"}};
  for (const auto& fr : db.features) cols.push_back({fr.relation, fr.attr});
  DataMatrix m = MaterializeJoin(tree, cols);
  for (size_t i = 0; i < candidates.size(); ++i) {
    std::map<int32_t, double> want;
    for (size_t r = 0; r < m.num_rows(); ++r) {
      double v = m.At(r, static_cast<int>(i) + 1);
      bool pass = i == 0 ? v >= 0.0 : m.At(r, 2) < 0.3;
      if (pass) want[static_cast<int32_t>(m.At(r, 0))] += 1;
    }
    double got_total = 0;
    got[i].ForEach([&](uint64_t, double c) { got_total += c; });
    double want_total = 0;
    for (const auto& [cls, c] : want) {
      const double* g = got[i].Find(PackKey1(cls));
      ASSERT_NE(g, nullptr) << "class " << cls;
      EXPECT_NEAR(*g, c, 1e-9);
      want_total += c;
    }
    EXPECT_NEAR(got_total, want_total, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomDbs, DecisionNodeProperty,
    ::testing::Combine(::testing::ValuesIn(relborg::testing::kPropertySeedsSmall),
                       ::testing::Values(Topology::kStar, Topology::kChain,
                                         Topology::kBushy)));

// --- Shared messages vs one batch per root --------------------------------
//
// The engine builds each join-tree edge's message once per batch and shares
// it among every root that needs it. Splitting a batch into one sub-batch
// per candidate-owning relation must give the same statistics, bit for bit.

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

std::vector<std::pair<uint64_t, uint64_t>> SortedBits(
    const FlatHashMap<double>& counts) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  counts.ForEach([&](uint64_t cls, double c) { out.push_back({cls, Bits(c)}); });
  std::sort(out.begin(), out.end());
  return out;
}

// (node, attr) of db.features[f].
std::pair<int, int> FeatureAt(const RandomDb& db, size_t f) {
  const int node = db.query.IndexOf(db.features[f].relation);
  return {node, db.query.relation(node)->schema().MustIndexOf(
                    db.features[f].attr)};
}

enum class PathCase { kNone, kTwoRelations, kEmptyRelation };

// Path filters on the relations of features 0 and 1. kEmptyRelation keeps
// no row of feature 1's relation: every message it sends is empty, every
// row probing one dangles, and the candidates it owns see no rows.
FilterSet MakePath(const RandomDb& db, PathCase which) {
  if (which == PathCase::kNone) return {};
  FilterSet path(db.query.num_relations());
  const auto [n0, a0] = FeatureAt(db, 0);
  const auto [n1, a1] = FeatureAt(db, 1);
  path[n0].push_back(Predicate::Lt(a0, 1.5));
  if (which == PathCase::kTwoRelations) {
    path[n1].push_back(Predicate::Ge(a1, -1.0));
  } else {
    path[n1].push_back(Predicate::Eq(0, 1 << 20));  // no such key
  }
  return path;
}

class DecisionNodeDifferential
    : public ::testing::TestWithParam<std::tuple<uint64_t, Topology>> {};

TEST_P(DecisionNodeDifferential, SharedMessagesMatchOneBatchPerRoot) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology);
  const auto [response_node, response_attr] =
      FeatureAt(db, db.features.size() - 1);

  // Candidates on every relation (each owns one feature), plus the
  // always-true base candidate a tree node adds.
  std::vector<SplitCandidate> mixed;
  for (size_t f = 0; f < db.features.size(); ++f) {
    const auto [node, attr] = FeatureAt(db, f);
    mixed.push_back({node, Predicate::Ge(attr, -0.5)});
    mixed.push_back({node, Predicate::Lt(attr, 0.5)});
    mixed.push_back({node, Predicate::Ne(0, 1)});
  }
  mixed.push_back({response_node,
                   Predicate::Ge(response_attr,
                                 -std::numeric_limits<double>::infinity())});
  std::map<int, std::vector<size_t>> by_root;
  for (size_t i = 0; i < mixed.size(); ++i) {
    by_root[mixed[i].node].push_back(i);
  }
  ASSERT_EQ(static_cast<int>(by_root.size()), db.query.num_relations());

  ExecPolicy partitioned;
  partitioned.threads = 2;
  partitioned.partition_grain = 16;
  for (PathCase which : {PathCase::kNone, PathCase::kTwoRelations,
                         PathCase::kEmptyRelation}) {
    const FilterSet path = MakePath(db, which);
    for (const ExecPolicy& policy : {ExecPolicy{}, partitioned}) {
      SCOPED_TRACE(::testing::Message()
                   << "path case " << static_cast<int>(which) << " threads "
                   << policy.threads);
      std::vector<SplitStats> stats = ComputeSplitStats(
          db.query, response_node, response_attr, path, mixed, policy);
      std::vector<FlatHashMap<double>> counts =
          ComputeSplitClassCounts(db.query, 0, 0, path, mixed, policy);
      for (const auto& [root, owned] : by_root) {
        std::vector<SplitCandidate> sub;
        for (size_t i : owned) sub.push_back(mixed[i]);
        std::vector<SplitStats> sub_stats = ComputeSplitStats(
            db.query, response_node, response_attr, path, sub, policy);
        std::vector<FlatHashMap<double>> sub_counts =
            ComputeSplitClassCounts(db.query, 0, 0, path, sub, policy);
        for (size_t k = 0; k < owned.size(); ++k) {
          const SplitStats& want = sub_stats[k];
          const SplitStats& got = stats[owned[k]];
          EXPECT_EQ(Bits(got.count), Bits(want.count)) << "root " << root;
          EXPECT_EQ(Bits(got.sum), Bits(want.sum)) << "root " << root;
          EXPECT_EQ(Bits(got.sum_sq), Bits(want.sum_sq)) << "root " << root;
          EXPECT_EQ(SortedBits(counts[owned[k]]), SortedBits(sub_counts[k]))
              << "root " << root;
        }
      }
      if (which == PathCase::kEmptyRelation) {
        // One relation without rows empties the whole join.
        for (size_t i = 0; i < mixed.size(); ++i) {
          EXPECT_EQ(Bits(stats[i].count), Bits(0.0)) << i;
          EXPECT_EQ(Bits(stats[i].sum), Bits(0.0)) << i;
          EXPECT_EQ(counts[i].size(), 0u) << i;
        }
      } else {
        // Non-vacuous: the base candidate sees rows.
        EXPECT_GT(stats.back().count, 0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomDbs, DecisionNodeDifferential,
    ::testing::Combine(::testing::ValuesIn(relborg::testing::kPropertySeeds),
                       ::testing::Values(Topology::kStar, Topology::kChain,
                                         Topology::kBushy)));

TEST(DecisionNodeBatchSizeTest, ThreePerCandidate) {
  EXPECT_EQ(DecisionNodeBatchSize(10), 30u);
}

}  // namespace
}  // namespace relborg
