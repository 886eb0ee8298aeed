// Tests for the factorized covariance engine: the dinner example of the
// paper (Figures 7-9) with hand-computed aggregates, property tests
// cross-checking all four execution modes against the materialized
// reference on random acyclic databases, and the grouped scan's plan and
// error bound on the datasets.
#include <algorithm>
#include <regex>
#include <set>
#include <string>
#include <tuple>

#include "baseline/materializer.h"
#include "baseline/query_at_a_time.h"
#include "core/covar_engine.h"
#include "core/feature_map.h"
#include "data/dataset.h"
#include "gtest/gtest.h"
#include "obs/trace.h"
#include "query/join_tree.h"
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
  const std::regex span(
      "\"name\":\"core/covar-group\"[^}]*\"node\":(-?[0-9]+)");
  for (std::sregex_iterator it(json.begin(), json.end(), span), end;
       it != end; ++it) {
    nodes.insert(std::stoi((*it)[1].str()));
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

TEST(CovarBatchSizeTest, Formula) {
  EXPECT_EQ(CovarBatchSize(0), 1u);
  EXPECT_EQ(CovarBatchSize(1), 3u);
  EXPECT_EQ(CovarBatchSize(10), 66u);
}

}  // namespace
}  // namespace relborg
