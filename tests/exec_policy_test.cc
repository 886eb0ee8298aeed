// Thread-sweep determinism suite for the two-level parallel execution
// mode (core/exec_policy.h): ExecPolicy{1}, ExecPolicy{2} and
// ExecPolicy{4} must produce BIT-IDENTICAL covariance, group-by,
// decision-node and IVM results — the partitioned plan's accumulation
// orders depend only on the data, never on the thread count. The sweep
// uses a small partition grain so the random databases actually split
// into many partitions.
//
// Also covers the ExecPolicy/ExecContext primitives themselves:
// partition-bound arithmetic, view-group construction, and the
// RELBORG_THREADS parsing.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <tuple>
#include <utility>
#include <vector>

#include "baseline/materializer.h"
#include "core/covar_engine.h"
#include "core/decision_node_engine.h"
#include "core/exec_policy.h"
#include "core/feature_map.h"
#include "core/groupby_engine.h"
#include "gtest/gtest.h"
#include "ivm/ivm.h"
#include "ivm/shadow_db.h"
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

// Sweep policy: tiny grain so even the ~300-row test relations split into
// many partitions. The grain is part of the policy, not derived from the
// thread count, so every sweep entry sees the same partition structure.
ExecPolicy SweepPolicy(int threads) {
  ExecPolicy policy;
  policy.threads = threads;
  policy.partition_grain = 16;
  return policy;
}

constexpr int kSweep[] = {1, 2, 4};

// --- ExecPolicy / ExecContext primitives --------------------------------

TEST(ExecPolicyTest, NumPartitionsIgnoresThreadCount) {
  for (size_t rows : {0ul, 1ul, 15ul, 16ul, 17ul, 1000ul, 1000000ul}) {
    size_t expected = SweepPolicy(1).NumPartitions(rows);
    for (int threads : {2, 3, 4, 8}) {
      EXPECT_EQ(SweepPolicy(threads).NumPartitions(rows), expected) << rows;
    }
  }
  // Disabled policy: always a single (full-range) partition.
  EXPECT_EQ(ExecPolicy{}.NumPartitions(1000000), 1u);
  // The partition cap holds.
  EXPECT_LE(SweepPolicy(2).NumPartitions(1u << 30),
            SweepPolicy(2).max_partitions);
}

TEST(ExecPolicyTest, PartitionBoundsAreContiguousAndExhaustive) {
  for (size_t rows : {1ul, 7ul, 64ul, 1001ul}) {
    for (size_t parts : {1ul, 2ul, 7ul, 64ul}) {
      size_t expected_begin = 0;
      for (size_t p = 0; p < parts; ++p) {
        auto [begin, end] = ExecContext::PartitionBounds(rows, parts, p);
        EXPECT_EQ(begin, expected_begin);
        EXPECT_LE(begin, end);
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, rows);
    }
  }
}

TEST(ExecPolicyTest, ParallelForCoversAllIndicesForEveryThreadCount) {
  for (int threads : kSweep) {
    ExecContext ctx(SweepPolicy(threads));
    std::vector<std::atomic<int>> hits(257);
    ctx.ParallelFor(hits.size(), [&](size_t i) { hits[i]++; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ExecPolicyTest, FromEnvParsesValidAndRejectsInvalid) {
  ::setenv("RELBORG_THREADS", "3", 1);
  EXPECT_EQ(ExecPolicy::FromEnv().threads, 3);
  ::setenv("RELBORG_THREADS", "not-a-number", 1);
  EXPECT_GE(ExecPolicy::FromEnv().threads, 1);  // falls back with a warning
  ::setenv("RELBORG_THREADS", "0", 1);
  EXPECT_GE(ExecPolicy::FromEnv().threads, 1);
  ::unsetenv("RELBORG_THREADS");
  EXPECT_GE(ExecPolicy::FromEnv().threads, 1);
}

TEST(IndependentViewGroupsTest, GroupsOrderDeepestFirstRootLast) {
  Catalog catalog;
  MakeDinnerDb(&catalog);
  JoinQuery query = MakeDinnerQuery(catalog);
  RootedTree tree = query.Root("Orders");
  std::vector<std::vector<int>> groups = IndependentViewGroups(tree);
  // Orders - Dish - Items is a chain: three singleton groups, root last.
  ASSERT_EQ(groups.size(), 3u);
  for (const auto& group : groups) EXPECT_EQ(group.size(), 1u);
  EXPECT_EQ(groups.back()[0], tree.root());
  // Every node's parent appears in a strictly later group.
  std::vector<int> group_of(tree.num_nodes(), -1);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (int v : groups[g]) group_of[v] = static_cast<int>(g);
  }
  for (int v = 0; v < tree.num_nodes(); ++v) {
    int parent = tree.node(v).parent;
    if (parent >= 0) {
      EXPECT_LT(group_of[v], group_of[parent]);
    }
  }
}

// --- Thread-sweep property suites ---------------------------------------

class ThreadSweepProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, Topology>> {
 protected:
  // Larger than the default fixture so scans really partition (grain 16).
  static constexpr int kFactRows = 300;
};

TEST_P(ThreadSweepProperty, CovarBitIdenticalAcrossThreads) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology, kFactRows);
  FeatureMap fm(db.query, db.features);
  RootedTree tree = db.query.Root(0);
  const int n = fm.num_features();

  CovarEngineOptions serial;
  serial.mode = ExecMode::kSharedParallel;
  serial.policy = SweepPolicy(1);
  CovarMatrix want = ComputeCovarMatrix(tree, fm, {}, serial);
  for (int threads : kSweep) {
    CovarEngineOptions options;
    options.mode = ExecMode::kSharedParallel;
    options.policy = SweepPolicy(threads);
    CovarMatrix got = ComputeCovarMatrix(tree, fm, {}, options);
    for (int i = 0; i <= n; ++i) {
      for (int j = i; j <= n; ++j) {
        EXPECT_EQ(got.Moment(i, j), want.Moment(i, j))
            << "threads=" << threads << " i=" << i << " j=" << j;
      }
    }
  }
  // And the partitioned plan agrees with the legacy serial engine.
  CovarMatrix legacy = ComputeCovarMatrix(tree, fm);
  for (int i = 0; i <= n; ++i) {
    for (int j = i; j <= n; ++j) {
      EXPECT_NEAR(want.Moment(i, j), legacy.Moment(i, j),
                  1e-9 * (1 + std::abs(legacy.Moment(i, j))));
    }
  }
}

// Sorted (key, value) snapshot for exact map comparison.
std::vector<std::pair<uint64_t, double>> Snapshot(const GroupByResult& map) {
  std::vector<std::pair<uint64_t, double>> entries;
  map.ForEach([&](uint64_t key, const double& value) {
    entries.push_back({key, value});
  });
  std::sort(entries.begin(), entries.end());
  return entries;
}

TEST_P(ThreadSweepProperty, GroupByBitIdenticalAcrossThreads) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology, kFactRows);
  RootedTree tree = db.query.Root(0);

  std::vector<GroupByAggregate> aggs;
  aggs.push_back(CountGroupedBy(db.query, "R0", "k1"));
  aggs.push_back(SumGroupedBy(db.query, "R0", "a", "R0", "k1"));

  std::vector<std::vector<std::pair<uint64_t, double>>> want;
  for (const GroupByAggregate& agg : aggs) {
    want.push_back(Snapshot(ComputeGroupBy(tree, agg, {}, SweepPolicy(1))));
  }
  for (int threads : kSweep) {
    for (size_t a = 0; a < aggs.size(); ++a) {
      std::vector<std::pair<uint64_t, double>> got =
          Snapshot(ComputeGroupBy(tree, aggs[a], {}, SweepPolicy(threads)));
      ASSERT_EQ(got.size(), want[a].size()) << "threads=" << threads;
      for (size_t e = 0; e < got.size(); ++e) {
        EXPECT_EQ(got[e].first, want[a][e].first);
        EXPECT_EQ(got[e].second, want[a][e].second)
            << "threads=" << threads << " agg=" << a << " entry=" << e;
      }
    }
    // The batched evaluation must sweep identically too.
    std::vector<GroupByResult> batch =
        ComputeGroupByBatch(tree, aggs, {}, SweepPolicy(threads));
    for (size_t a = 0; a < aggs.size(); ++a) {
      std::vector<std::pair<uint64_t, double>> got = Snapshot(batch[a]);
      ASSERT_EQ(got.size(), want[a].size());
      for (size_t e = 0; e < got.size(); ++e) {
        EXPECT_EQ(got[e].second, want[a][e].second)
            << "batch threads=" << threads << " agg=" << a;
      }
    }
  }
}

TEST_P(ThreadSweepProperty, DecisionNodeBitIdenticalAcrossThreads) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology, kFactRows);

  // Candidates on every feature-owning relation: two thresholds each, so
  // several roots share messages and the outer (view-group) level runs
  // several scans at once.
  std::vector<SplitCandidate> candidates;
  for (size_t f = 0; f + 1 < db.features.size(); ++f) {
    int node = db.query.IndexOf(db.features[f].relation);
    int attr = db.query.relation(node)->schema().MustIndexOf(
        db.features[f].attr);
    for (double t : {-0.5, 0.5}) {
      candidates.push_back({node, Predicate::Ge(attr, t)});
    }
  }
  int response_node = db.query.IndexOf(db.features.back().relation);
  int response_attr = db.query.relation(response_node)
                          ->schema()
                          .MustIndexOf(db.features.back().attr);

  // Without path filters, and with filters on two relations (a tree node
  // below the root).
  FilterSet path(db.query.num_relations());
  for (size_t f = 0; f < 2; ++f) {
    int node = db.query.IndexOf(db.features[f].relation);
    int attr = db.query.relation(node)->schema().MustIndexOf(
        db.features[f].attr);
    path[node].push_back(f == 0 ? Predicate::Lt(attr, 1.0)
                                : Predicate::Ge(attr, -1.0));
  }
  for (const FilterSet& filters : {FilterSet{}, path}) {
    SCOPED_TRACE(filters.empty() ? "no path filters" : "path filters");
    std::vector<SplitStats> want =
        ComputeSplitStats(db.query, response_node, response_attr, filters,
                          candidates, SweepPolicy(1));
    for (int threads : kSweep) {
      std::vector<SplitStats> got =
          ComputeSplitStats(db.query, response_node, response_attr, filters,
                            candidates, SweepPolicy(threads));
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].count, want[i].count) << "threads=" << threads;
        EXPECT_EQ(got[i].sum, want[i].sum) << "threads=" << threads;
        EXPECT_EQ(got[i].sum_sq, want[i].sum_sq) << "threads=" << threads;
      }
    }
    // The legacy (policy-less) engine agrees.
    std::vector<SplitStats> legacy = ComputeSplitStats(
        db.query, response_node, response_attr, filters, candidates);
    for (size_t i = 0; i < legacy.size(); ++i) {
      EXPECT_NEAR(want[i].count, legacy[i].count,
                  1e-9 * (1 + legacy[i].count));
      EXPECT_NEAR(want[i].sum, legacy[i].sum,
                  1e-9 * (1 + std::abs(legacy[i].sum)));
    }

    // Classification variant: categorical response (the fact's first key).
    std::vector<FlatHashMap<double>> want_counts = ComputeSplitClassCounts(
        db.query, 0, 0, filters, candidates, SweepPolicy(1));
    for (int threads : kSweep) {
      std::vector<FlatHashMap<double>> got_counts = ComputeSplitClassCounts(
          db.query, 0, 0, filters, candidates, SweepPolicy(threads));
      ASSERT_EQ(got_counts.size(), want_counts.size());
      for (size_t i = 0; i < got_counts.size(); ++i) {
        std::vector<std::pair<uint64_t, double>> got = Snapshot(got_counts[i]);
        std::vector<std::pair<uint64_t, double>> want_s =
            Snapshot(want_counts[i]);
        ASSERT_EQ(got.size(), want_s.size());
        for (size_t e = 0; e < got.size(); ++e) {
          EXPECT_EQ(got[e].first, want_s[e].first);
          EXPECT_EQ(got[e].second, want_s[e].second) << "threads=" << threads;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomDbs, ThreadSweepProperty,
    ::testing::Combine(::testing::ValuesIn(relborg::testing::kPropertySeeds),
                       ::testing::Values(Topology::kStar, Topology::kChain,
                                         Topology::kBushy)));

// The nested topology's root takes the grouped covariance scan.
INSTANTIATE_TEST_SUITE_P(
    NestedDbs, ThreadSweepProperty,
    ::testing::Combine(::testing::ValuesIn(relborg::testing::kPropertySeeds),
                       ::testing::Values(Topology::kNested)));

// --- IVM sweep (small tier: per-seed cost dominated by strategy runs) ---

class IvmThreadSweepProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, Topology>> {};

// Replays the whole random database into a ShadowDb as insert batches,
// applying each batch through `strategy`.
template <typename Strategy>
CovarMatrix Replay(const RandomDb& db, Strategy* strategy, ShadowDb* shadow) {
  const int num_nodes = shadow->tree().num_nodes();
  const size_t kBatch = 37;  // > grain 16, so batch deltas partition too
  for (int v = 0; v < num_nodes; ++v) {
    const Relation& rel = *db.query.relation(v);
    for (size_t first = 0; first < rel.num_rows(); first += kBatch) {
      size_t count = std::min(kBatch, rel.num_rows() - first);
      std::vector<std::vector<double>> rows;
      for (size_t r = first; r < first + count; ++r) {
        std::vector<double> row(rel.num_attrs());
        for (int a = 0; a < rel.num_attrs(); ++a) row[a] = rel.AsDouble(r, a);
        rows.push_back(std::move(row));
      }
      size_t shadow_first = shadow->AppendRows(v, rows);
      strategy->ApplyBatch(v, shadow_first, rows.size());
    }
  }
  return strategy->Current();
}

template <typename Strategy>
void ExpectIvmSweepIdentical(uint64_t seed, Topology topology) {
  RandomDb db = MakeRandomDb(seed, topology, 200);
  std::vector<CovarMatrix> results;
  for (int threads : kSweep) {
    ShadowDb shadow(db.query, 0);
    FeatureMap fm(shadow.query(), db.features);
    Strategy strategy(&shadow, &fm, SweepPolicy(threads));
    results.push_back(Replay(db, &strategy, &shadow));
  }
  const int n = results[0].num_features();
  for (size_t s = 1; s < results.size(); ++s) {
    for (int i = 0; i <= n; ++i) {
      for (int j = i; j <= n; ++j) {
        EXPECT_EQ(results[s].Moment(i, j), results[0].Moment(i, j))
            << "threads=" << kSweep[s] << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST_P(IvmThreadSweepProperty, FivmBitIdenticalAcrossThreads) {
  auto [seed, topology] = GetParam();
  ExpectIvmSweepIdentical<CovarFivm>(seed, topology);
}

TEST_P(IvmThreadSweepProperty, HigherOrderBitIdenticalAcrossThreads) {
  auto [seed, topology] = GetParam();
  ExpectIvmSweepIdentical<HigherOrderIvm>(seed, topology);
}

TEST_P(IvmThreadSweepProperty, FirstOrderBitIdenticalAcrossThreads) {
  auto [seed, topology] = GetParam();
  ExpectIvmSweepIdentical<FirstOrderIvm>(seed, topology);
}

INSTANTIATE_TEST_SUITE_P(
    RandomDbs, IvmThreadSweepProperty,
    ::testing::Combine(
        ::testing::ValuesIn(relborg::testing::kPropertySeedsSmall),
        ::testing::Values(Topology::kStar, Topology::kChain,
                          Topology::kBushy)));

// The partitioned plan is not just self-consistent: it matches the
// materialized reference.
TEST(ThreadSweepReferenceTest, PartitionedPlanMatchesMaterializedJoin) {
  RandomDb db = MakeRandomDb(7, Topology::kBushy, 300);
  FeatureMap fm(db.query, db.features);
  RootedTree tree = db.query.Root(0);
  DataMatrix matrix = MaterializeJoin(tree, fm);
  CovarPayload ref = ReferenceCovar(matrix);
  CovarEngineOptions options;
  options.mode = ExecMode::kSharedParallel;
  options.policy = SweepPolicy(4);
  CovarMatrix m = ComputeCovarMatrix(tree, fm, {}, options);
  const int n = fm.num_features();
  ASSERT_NEAR(m.count(), ref.count, 1e-6 * (1 + std::abs(ref.count)));
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      double want = ref.quad[UpperTriIndex(n, i, j)];
      EXPECT_NEAR(m.Moment(i, j), want, 1e-6 * (1 + std::abs(want)));
    }
  }
}

}  // namespace
}  // namespace relborg
