// Tests for the factorized covariance engine: the dinner example of the
// paper (Figures 7-9) with hand-computed aggregates, property tests
// cross-checking all four execution modes against the materialized
// reference on random acyclic databases, the grouped scan's plan and error
// bound on the datasets, and the scope-width views at every root
// (interleaved local indices, featureless subtrees and roots).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "baseline/materializer.h"
#include "baseline/query_at_a_time.h"
#include "core/covar_engine.h"
#include "core/feature_map.h"
#include "data/dataset.h"
#include "gtest/gtest.h"
#include "ivm/ivm.h"
#include "ivm/update_stream.h"
#include "obs/trace.h"
#include "query/join_tree.h"
#include "ring/covar_arena.h"
#include "tests/test_util.h"

namespace relborg {
namespace {

using testing::MakeDinnerDb;
using testing::MakeDinnerQuery;
using testing::MakeRandomDb;
using testing::RandomDb;
using testing::ReferenceCovar;
using testing::Topology;

TEST(CovarEngineDinnerTest, CountAndSumMatchFigure9) {
  Catalog catalog;
  MakeDinnerDb(&catalog);
  JoinQuery query = MakeDinnerQuery(catalog);
  RootedTree tree = query.Root("Orders");
  FeatureMap fm(query, {{"Items", "price"}});

  CovarMatrix m = ComputeCovarMatrix(tree, fm);
  // Figure 9 left: SUM(1) over the join is 12.
  EXPECT_DOUBLE_EQ(m.count(), 12.0);
  // Figure 9 right with f == 1: 20 * f(burger) + 16 * f(hotdog) = 36.
  EXPECT_DOUBLE_EQ(m.Sum(0), 36.0);
  // SUM(price^2): burger items 36+4+4=44 (x2 orders), hotdog 4+4+16=24 (x2).
  EXPECT_DOUBLE_EQ(m.Moment(0, 0), 2 * 44.0 + 2 * 24.0);
}

TEST(CovarEngineDinnerTest, AllModesAndRootsAgree) {
  Catalog catalog;
  MakeDinnerDb(&catalog);
  JoinQuery query = MakeDinnerQuery(catalog);
  FeatureMap fm(query, {{"Items", "price"}});
  for (int root = 0; root < query.num_relations(); ++root) {
    RootedTree tree = query.Root(root);
    for (ExecMode mode :
         {ExecMode::kPerAggregateInterpreted, ExecMode::kPerAggregate,
          ExecMode::kShared, ExecMode::kSharedParallel}) {
      CovarEngineOptions options;
      options.mode = mode;
      CovarMatrix m = ComputeCovarMatrix(tree, fm, {}, options);
      EXPECT_DOUBLE_EQ(m.count(), 12.0) << root;
      EXPECT_DOUBLE_EQ(m.Sum(0), 36.0) << root;
    }
  }
}

TEST(CovarEngineDinnerTest, EmptyJoinGivesZero) {
  Catalog catalog;
  MakeDinnerDb(&catalog);
  // An Items relation that matches no Dish rows.
  Schema items_schema({{"item", AttrType::kCategorical},
                       {"price", AttrType::kDouble}});
  Relation* lonely = catalog.AddRelation("LonelyItems", items_schema);
  lonely->AppendRow({99, 1.0});
  JoinQuery q;
  q.AddRelation(catalog.Get("Orders"));
  q.AddRelation(catalog.Get("Dish"));
  q.AddRelation(catalog.Get("LonelyItems"));
  q.AddJoin("Orders", "Dish", {"dish"});
  q.AddJoin("Dish", "LonelyItems", {"item"});
  FeatureMap fm(q, {{"LonelyItems", "price"}});
  CovarMatrix m = ComputeCovarMatrix(q.Root("Orders"), fm);
  EXPECT_DOUBLE_EQ(m.count(), 0.0);
  EXPECT_DOUBLE_EQ(m.Sum(0), 0.0);
}

// --- Property tests: factorized == materialized on random databases. ---

class CovarEngineProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, Topology>> {};

TEST_P(CovarEngineProperty, MatchesMaterializedReference) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology);
  FeatureMap fm(db.query, db.features);
  RootedTree tree = db.query.Root(0);

  DataMatrix matrix = MaterializeJoin(tree, fm);
  CovarPayload ref = ReferenceCovar(matrix);

  for (ExecMode mode :
       {ExecMode::kPerAggregateInterpreted, ExecMode::kPerAggregate,
        ExecMode::kShared, ExecMode::kSharedParallel}) {
    CovarEngineOptions options;
    options.mode = mode;
    CovarMatrix m = ComputeCovarMatrix(tree, fm, {}, options);
    ASSERT_NEAR(m.count(), ref.count, 1e-6 * (1 + std::abs(ref.count)));
    const int n = fm.num_features();
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(m.Sum(i), ref.sum[i], 1e-6 * (1 + std::abs(ref.sum[i])));
      for (int j = i; j < n; ++j) {
        double want = ref.quad[UpperTriIndex(n, i, j)];
        EXPECT_NEAR(m.Moment(i, j), want, 1e-6 * (1 + std::abs(want)))
            << "mode=" << static_cast<int>(mode) << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST_P(CovarEngineProperty, RootChoiceIsIrrelevant) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology);
  FeatureMap fm(db.query, db.features);
  CovarMatrix base = ComputeCovarMatrix(db.query.Root(0), fm);
  for (int root = 1; root < db.query.num_relations(); ++root) {
    CovarMatrix other = ComputeCovarMatrix(db.query.Root(root), fm);
    EXPECT_NEAR(base.count(), other.count(), 1e-6);
    for (int i = 0; i <= fm.num_features(); ++i) {
      for (int j = i; j <= fm.num_features(); ++j) {
        EXPECT_NEAR(base.Moment(i, j), other.Moment(i, j),
                    1e-6 * (1 + std::abs(base.Moment(i, j))));
      }
    }
  }
}

TEST_P(CovarEngineProperty, FiltersMatchMaterializedReference) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology);
  FeatureMap fm(db.query, db.features);
  RootedTree tree = db.query.Root(0);

  // Filter: first feature's attribute >= 0 at its owning relation, and a
  // categorical filter on the fact's first key.
  FilterSet filters(db.query.num_relations());
  int f0_node = fm.NodeOf(0);
  filters[f0_node].push_back(Predicate::Ge(fm.AttrOf(0), 0.0));
  filters[0].push_back(Predicate::InSet(0, {0, 1, 2, 3}));

  DataMatrix matrix = MaterializeJoin(tree, fm, filters);
  CovarPayload ref = ReferenceCovar(matrix);
  const int n = fm.num_features();
  for (ExecMode mode : {ExecMode::kShared, ExecMode::kSharedParallel,
                        ExecMode::kPerAggregate}) {
    CovarEngineOptions options;
    options.mode = mode;
    CovarMatrix m = ComputeCovarMatrix(tree, fm, filters, options);
    EXPECT_NEAR(m.count(), ref.count, 1e-6);
    for (int i = 0; i < n; ++i) {
      for (int j = i; j < n; ++j) {
        double want = ref.quad[UpperTriIndex(n, i, j)];
        EXPECT_NEAR(m.Moment(i, j), want, 1e-6 * (1 + std::abs(want)))
            << "mode=" << static_cast<int>(mode);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomDbs, CovarEngineProperty,
    ::testing::Combine(::testing::ValuesIn(relborg::testing::kPropertySeeds),
                       ::testing::Values(Topology::kStar, Topology::kChain,
                                         Topology::kBushy)));

// Rooted at R0, the nested topology takes the grouped scan.
INSTANTIATE_TEST_SUITE_P(
    NestedDbs, CovarEngineProperty,
    ::testing::Combine(::testing::ValuesIn(relborg::testing::kPropertySeeds),
                       ::testing::Values(Topology::kNested)));

// --- Grouped scans on the datasets ---

// Nodes whose scan was grouped (a core/covar-group span) in
// one kShared run over `tree`.
std::set<int> GroupedNodes(const RootedTree& tree, const FeatureMap& fm) {
  obs::TraceRecorder recorder;
  {
    obs::ThreadTraceScope scope(&recorder, "test");
    ComputeCovarMatrix(tree, fm);
  }
  std::set<int> nodes;
  const std::string json = recorder.ExportChromeJson();
  const std::string name = "\"name\":\"core/covar-group\"";
  const std::string field = "\"node\":";
  for (size_t at = json.find(name); at != std::string::npos;
       at = json.find(name, at + name.size())) {
    // The span's node field, before the event's first closing brace.
    const size_t node = json.find(field, at);
    if (node < json.find('}', at)) {
      nodes.insert(std::stoi(json.substr(node + field.size())));
    }
  }
  return nodes;
}

TEST(CovarEngineGroupTest, PlanFiresAtFactRootsWithNestedKeys) {
  GenOptions tiny;
  tiny.scale = 0.003;
  for (const char* name : {"retailer", "favorita", "yelp", "tpcds"}) {
    SCOPED_TRACE(name);
    Dataset ds = MakeDataset(name, tiny);
    FeatureMap fm(ds.query, ds.features);
    RootedTree tree = ds.RootAtFact();
    const bool nested = std::string(name) == "retailer" ||
                        std::string(name) == "favorita";
    EXPECT_EQ(GroupedNodes(tree, fm),
              nested ? std::set<int>{tree.root()} : std::set<int>{});
  }
  RandomDb db = MakeRandomDb(3, Topology::kNested);
  FeatureMap fm(db.query, db.features);
  EXPECT_EQ(GroupedNodes(db.query.Root(0), fm), std::set<int>{0});
}

// The grouped scan changes the summation order; it must stay within the
// 1e-9 relative bound against one scan per aggregate over the materialized
// join, in the legacy plan and at every thread count.
class CovarEngineDatasetOracle : public ::testing::TestWithParam<std::string> {
};

TEST_P(CovarEngineDatasetOracle, SharedModesMatchQueryAtATime) {
  GenOptions options;
  options.scale = 0.01;
  Dataset ds = MakeDataset(GetParam(), options);
  FeatureMap fm(ds.query, ds.features);
  RootedTree tree = ds.RootAtFact();
  const CovarMatrix want = CovarByQueryAtATime(MaterializeJoin(tree, fm));
  const int n = fm.num_features();
  for (int threads : {0, 1, 4}) {
    CovarEngineOptions engine;
    engine.mode = threads == 0 ? ExecMode::kShared : ExecMode::kSharedParallel;
    engine.policy.threads = threads;
    const CovarMatrix got = ComputeCovarMatrix(tree, fm, {}, engine);
    for (int i = 0; i <= n; ++i) {
      for (int j = i; j <= n; ++j) {
        const double w = want.Moment(i, j);
        EXPECT_LE(std::abs(got.Moment(i, j) - w),
                  1e-9 * std::max(1.0, std::abs(w)))
            << "threads=" << threads << " i=" << i << " j=" << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, CovarEngineDatasetOracle,
                         ::testing::Values("retailer", "favorita"));

// --- Scope-width views ---
//
// Every view stores its payloads over its own subtree's features, in local
// indices; only the root's layout is the full-width one.

// Every moment of `got` within 1e-9 relative of `want`.
void ExpectWithin1e9(const CovarMatrix& got, const CovarMatrix& want,
                     const std::string& what) {
  const int n = want.num_features();
  ASSERT_EQ(got.num_features(), n) << what;
  for (int i = 0; i <= n; ++i) {
    for (int j = i; j <= n; ++j) {
      const double w = want.Moment(i, j);
      EXPECT_LE(std::abs(got.Moment(i, j) - w),
                1e-9 * std::max(1.0, std::abs(w)))
          << what << " i=" << i << " j=" << j;
    }
  }
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// The shared plans on `tree`: the legacy plan, one thread and four threads.
// The one- and four-thread results must agree bit for bit.
std::vector<CovarMatrix> SharedPlans(const RootedTree& tree,
                                     const FeatureMap& fm,
                                     const FilterSet& filters = {}) {
  std::vector<CovarMatrix> out;
  for (int threads : {0, 1, 4}) {
    CovarEngineOptions engine;
    engine.mode = threads == 0 ? ExecMode::kShared : ExecMode::kSharedParallel;
    engine.policy.threads = threads;
    out.push_back(ComputeCovarMatrix(tree, fm, filters, engine));
  }
  const CovarPayload& one = out[1].payload();
  const CovarPayload& four = out[2].payload();
  EXPECT_TRUE(SameBits({one.count}, {four.count}));
  EXPECT_TRUE(SameBits(one.sum, four.sum));
  EXPECT_TRUE(SameBits(one.quad, four.quad));
  return out;
}

// A non-fact root nests the fact under a dimension, so the views' local
// indices interleave with their children's and the fact's view is no
// longer the full-width one.
class CovarEngineEveryRoot : public ::testing::TestWithParam<std::string> {};

TEST_P(CovarEngineEveryRoot, SharedModesMatchQueryAtATime) {
  GenOptions tiny;
  tiny.scale = 0.003;
  Dataset ds = MakeDataset(GetParam(), tiny);
  FeatureMap fm(ds.query, ds.features);
  const CovarMatrix want =
      CovarByQueryAtATime(MaterializeJoin(ds.RootAtFact(), fm));
  ASSERT_GT(want.count(), 0);
  for (int root = 0; root < ds.query.num_relations(); ++root) {
    const std::vector<CovarMatrix> got =
        SharedPlans(ds.query.Root(root), fm);
    for (size_t p = 0; p < got.size(); ++p) {
      ExpectWithin1e9(got[p], want,
                      "root=" + std::to_string(root) +
                          " plan=" + std::to_string(p));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, CovarEngineEveryRoot,
                         ::testing::Values("retailer", "favorita", "yelp",
                                           "tpcds"));

// Feature subsets that leave whole subtrees without a feature (their views
// have width 0: a count per key, stride 1) and roots that own no feature
// (their scope comes from the children alone), at every root of every
// topology, the nested one taking the grouped scan. The per-aggregate
// engine keeps no payload views, so it is an independent oracle.
TEST(CovarEngineScopeTest, FeaturelessSubtreesAndRoots) {
  for (Topology topology : {Topology::kStar, Topology::kChain,
                            Topology::kBushy, Topology::kNested}) {
    const RandomDb db = MakeRandomDb(7, topology);
    const std::vector<std::vector<FeatureRef>> subsets = {
        {}, {db.features.front()}, {db.features.back()}};
    for (const std::vector<FeatureRef>& features : subsets) {
      FeatureMap fm(db.query, features);
      for (int root = 0; root < db.query.num_relations(); ++root) {
        const RootedTree tree = db.query.Root(root);
        CovarEngineOptions per_aggregate;
        per_aggregate.mode = ExecMode::kPerAggregate;
        const CovarMatrix want =
            ComputeCovarMatrix(tree, fm, {}, per_aggregate);
        ASSERT_GT(want.count(), 0);
        for (const CovarMatrix& got : SharedPlans(tree, fm)) {
          ExpectWithin1e9(got, want,
                          "topology=" + std::to_string(static_cast<int>(
                                            topology)) +
                              " features=" + std::to_string(features.size()) +
                              " root=" + std::to_string(root));
        }
      }
    }
  }
}

// These suites keep their names from a separate subtree-restricted engine
// that the shared engine's views have since absorbed.

// Figure 9's exact values at every root of the dinner query, in every
// shared plan.
TEST(CovarCompressedTest, DinnerExample) {
  Catalog catalog;
  MakeDinnerDb(&catalog);
  JoinQuery query = MakeDinnerQuery(catalog);
  FeatureMap fm(query, {{"Items", "price"}});
  for (int root = 0; root < query.num_relations(); ++root) {
    for (const CovarMatrix& m : SharedPlans(query.Root(root), fm)) {
      EXPECT_DOUBLE_EQ(m.count(), 12.0) << root;
      EXPECT_DOUBLE_EQ(m.Sum(0), 36.0) << root;
      EXPECT_DOUBLE_EQ(m.Moment(0, 0), 2 * 44.0 + 2 * 24.0) << root;
    }
  }
}

class CovarCompressedProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, Topology>> {};

// The scope-width batch against the stream path, whose F-IVM views keep
// full-width payloads, over the same rows at every root.
TEST_P(CovarCompressedProperty, MatchesFullWidthEngineAllRoots) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology);
  for (int root = 0; root < db.query.num_relations(); ++root) {
    ShadowDb shadow(db.query, root);
    FeatureMap fm(shadow.query(), db.features);
    CovarFivm full(&shadow, &fm);
    UpdateStreamOptions stream;
    stream.batch_size = 16;
    for (const UpdateBatch& batch : BuildInsertStream(db.query, stream)) {
      const size_t from = shadow.AppendRows(batch.node, batch.rows);
      full.ApplyBatch(batch.node, from, batch.rows.size());
    }
    const CovarMatrix want = full.Current();
    const int n = fm.num_features();
    for (const CovarMatrix& got : SharedPlans(shadow.tree(), fm)) {
      for (int i = 0; i <= n; ++i) {
        for (int j = i; j <= n; ++j) {
          EXPECT_NEAR(got.Moment(i, j), want.Moment(i, j),
                      1e-7 * (1 + std::abs(want.Moment(i, j))))
              << "root=" << root << " (" << i << "," << j << ")";
        }
      }
    }
  }
}

// Filters at every root against the materialized reference.
TEST_P(CovarCompressedProperty, MatchesMaterializedWithFilters) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology);
  FeatureMap fm(db.query, db.features);
  FilterSet filters(db.query.num_relations());
  filters[fm.NodeOf(0)].push_back(Predicate::Ge(fm.AttrOf(0), -0.5));
  filters[0].push_back(Predicate::InSet(0, {0, 1, 2, 3, 4}));

  DataMatrix matrix = MaterializeJoin(db.query.Root(0), fm, filters);
  CovarPayload ref = ReferenceCovar(matrix);
  const int n = fm.num_features();
  for (int root = 0; root < db.query.num_relations(); ++root) {
    for (const CovarMatrix& m :
         SharedPlans(db.query.Root(root), fm, filters)) {
      EXPECT_NEAR(m.count(), ref.count, 1e-7 * (1 + ref.count)) << root;
      for (int i = 0; i < n; ++i) {
        EXPECT_NEAR(m.Sum(i), ref.sum[i], 1e-7 * (1 + std::abs(ref.sum[i])))
            << root;
        for (int j = i; j < n; ++j) {
          double want = ref.quad[UpperTriIndex(n, i, j)];
          EXPECT_NEAR(m.Moment(i, j), want, 1e-7 * (1 + std::abs(want)))
              << root;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomDbs, CovarCompressedProperty,
    ::testing::Combine(::testing::ValuesIn(relborg::testing::kPropertySeeds),
                       ::testing::Values(Topology::kStar, Topology::kChain,
                                         Topology::kBushy)));

// A join with no matching keys gives the ring zero at both roots.
TEST(CovarCompressedTest, EmptyJoin) {
  Catalog catalog;
  Schema fact({{"k", AttrType::kCategorical}, {"x", AttrType::kDouble}});
  Schema dim({{"k", AttrType::kCategorical}, {"y", AttrType::kDouble}});
  Relation* f = catalog.AddRelation("F", fact);
  Relation* d = catalog.AddRelation("D", dim);
  f->AppendRow({1, 2.0});
  d->AppendRow({9, 3.0});  // no matching keys
  JoinQuery q;
  q.AddRelation(f);
  q.AddRelation(d);
  q.AddJoin("F", "D", {"k"});
  FeatureMap fm(q, {{"F", "x"}, {"D", "y"}});
  for (const char* root : {"F", "D"}) {
    for (const CovarMatrix& m : SharedPlans(q.Root(root), fm)) {
      for (int i = 0; i <= fm.num_features(); ++i) {
        for (int j = i; j <= fm.num_features(); ++j) {
          EXPECT_EQ(m.Moment(i, j), 0.0) << root;
        }
      }
    }
  }
}

// A view over 1 of 12 features stores 3 doubles per key instead of 91, and
// Retailer's Weather view (4 features) stores 15.
TEST(CovarCompressedTest, PayloadBytesShrink) {
  EXPECT_EQ(CovarStride(12), 91u);
  EXPECT_EQ(CovarStride(4), 15u);
  EXPECT_EQ(CovarStride(1), 3u);
  EXPECT_EQ(CovarStride(0), 1u);
}

TEST(CovarBatchSizeTest, Formula) {
  EXPECT_EQ(CovarBatchSize(0), 1u);
  EXPECT_EQ(CovarBatchSize(1), 3u);
  EXPECT_EQ(CovarBatchSize(10), 66u);
}

}  // namespace
}  // namespace relborg
