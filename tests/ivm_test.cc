// Tests for the IVM layer: after any insert stream, all three maintenance
// strategies must agree exactly with recomputation from scratch; deletions
// (negative multiplicities, the ring's additive inverse) must cancel.
#include <cmath>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "core/covar_engine.h"
#include "gtest/gtest.h"
#include "ivm/ivm.h"
#include "ivm/update_stream.h"
#include "tests/test_util.h"

namespace relborg {
namespace {

using testing::MakeRandomDb;
using testing::RandomDb;
using testing::Topology;

void ExpectCovarNear(const CovarMatrix& got, const CovarMatrix& want,
                     double tol = 1e-6) {
  ASSERT_EQ(got.num_features(), want.num_features());
  const int n = want.num_features();
  for (int i = 0; i <= n; ++i) {
    for (int j = i; j <= n; ++j) {
      EXPECT_NEAR(got.Moment(i, j), want.Moment(i, j),
                  tol * (1 + std::abs(want.Moment(i, j))))
          << "(" << i << "," << j << ")";
    }
  }
}

class IvmProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, Topology>> {};

TEST_P(IvmProperty, AllStrategiesMatchRecomputation) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology, /*fact_rows=*/50);
  FeatureMap source_fm(db.query, db.features);

  ShadowDb shadow(db.query, 0);
  FeatureMap fm(shadow.query(), db.features);
  CovarFivm fivm(&shadow, &fm);
  HigherOrderIvm higher(&shadow, &fm);
  FirstOrderIvm first(&shadow, &fm);
  EXPECT_EQ(higher.num_aggregates(),
            CovarBatchSize(fm.num_features()));

  UpdateStreamOptions opts;
  opts.batch_size = 17;
  opts.seed = seed;
  std::vector<UpdateBatch> stream = BuildInsertStream(db.query, opts);
  ASSERT_FALSE(stream.empty());

  size_t applied = 0;
  for (const UpdateBatch& batch : stream) {
    size_t from = shadow.AppendRows(batch.node, batch.rows);
    fivm.ApplyBatch(batch.node, from, batch.rows.size());
    higher.ApplyBatch(batch.node, from, batch.rows.size());
    first.ApplyBatch(batch.node, from, batch.rows.size());
    ++applied;
    if (applied % 7 == 0 || applied == stream.size()) {
      // Recompute from scratch over the shadow relations.
      CovarMatrix want =
          ComputeCovarMatrix(shadow.tree(), fm);
      ExpectCovarNear(fivm.Current(), want);
      ExpectCovarNear(higher.Current(), want);
      ExpectCovarNear(first.Current(), want);
    }
  }
  // Fully loaded: must equal the covariance over the original database.
  CovarMatrix original = ComputeCovarMatrix(db.query.Root(0), source_fm);
  ExpectCovarNear(fivm.Current(), original);
}

TEST_P(IvmProperty, DeletionsCancelInsertions) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology, /*fact_rows=*/30);
  ShadowDb shadow(db.query, 0);
  FeatureMap fm(shadow.query(), db.features);
  CovarFivm fivm(&shadow, &fm);

  UpdateStreamOptions opts;
  opts.batch_size = 11;
  opts.seed = seed + 1;
  std::vector<UpdateBatch> stream = BuildInsertStream(db.query, opts);
  for (const UpdateBatch& batch : stream) {
    size_t from = shadow.AppendRows(batch.node, batch.rows);
    fivm.ApplyBatch(batch.node, from, batch.rows.size());
  }
  CovarMatrix loaded = fivm.Current();
  EXPECT_GE(loaded.count(), 0.0);

  // Delete a prefix of the fact stream (re-insert with multiplicity -1)
  // and compare against recomputation over the surviving fact rows.
  const UpdateBatch* fact_batch = nullptr;
  for (const UpdateBatch& b : stream) {
    if (b.node == 0) {
      fact_batch = &b;
      break;
    }
  }
  ASSERT_NE(fact_batch, nullptr);
  size_t from = shadow.AppendRows(0, fact_batch->rows, /*sign=*/-1.0);
  fivm.ApplyBatch(0, from, fact_batch->rows.size());

  // Reference: database without that batch's fact rows.
  Catalog ref_catalog;
  Relation* fact = ref_catalog.AddRelation("F", db.query.relation(0)->schema());
  {
    bool skip_applied = false;
    for (const UpdateBatch& b : stream) {
      if (b.node != 0) continue;
      if (!skip_applied && &b == fact_batch) {
        skip_applied = true;
        continue;
      }
      for (const auto& row : b.rows) fact->AppendRow(row);
    }
  }
  JoinQuery ref_query;
  ref_query.AddRelation(fact);
  for (int v = 1; v < db.query.num_relations(); ++v) {
    ref_query.AddRelation(db.query.relation(v));
  }
  for (const JoinEdge& e : db.query.edges()) {
    std::vector<std::string> names;
    for (int attr : e.attrs_a) {
      names.push_back(db.query.relation(e.a)->schema().attr(attr).name);
    }
    ref_query.AddJoin(e.a == 0 ? "F" : db.query.relation(e.a)->name(),
                      e.b == 0 ? "F" : db.query.relation(e.b)->name(), names);
  }
  FeatureMap ref_fm(ref_query, [&] {
    std::vector<FeatureRef> feats = db.features;
    for (auto& f : feats) {
      if (f.relation == db.query.relation(0)->name()) f.relation = "F";
    }
    return feats;
  }());
  CovarMatrix want = ComputeCovarMatrix(ref_query.Root(0), ref_fm);
  ExpectCovarNear(fivm.Current(), want);
}

INSTANTIATE_TEST_SUITE_P(
    RandomDbs, IvmProperty,
    ::testing::Combine(::testing::ValuesIn(relborg::testing::kPropertySeedsSmall),
                       ::testing::Values(Topology::kStar, Topology::kChain,
                                         Topology::kBushy)));

// --- Speculative per-range compute: validation hit and miss ---------------
//
// The stream scheduler's compute stage calls ComputeRangeDelta ahead of a
// range's serial point, and the applier accepts the delta only if
// RangeDeltaValid still holds there; otherwise it recomputes. Both paths
// must leave the strategy bit-identical to serial ApplyBatch in the same
// order.

void ExpectCovarExact(const CovarMatrix& got, const CovarMatrix& want) {
  ASSERT_EQ(got.num_features(), want.num_features());
  const int n = want.num_features();
  for (int i = 0; i <= n; ++i) {
    for (int j = i; j <= n; ++j) {
      EXPECT_EQ(got.Moment(i, j), want.Moment(i, j))
          << "(" << i << "," << j << ")";
    }
  }
}

using Rows = std::vector<std::vector<double>>;

template <typename Strategy>
void CheckSpeculativeRangeDelta(uint64_t seed, Topology topology) {
  RandomDb db = MakeRandomDb(seed, topology, /*fact_rows=*/40);
  ShadowDb shadow(db.query, 0);
  FeatureMap fm(shadow.query(), db.features);
  const RootedTree& tree = shadow.tree();
  // A leaf and its parent: folding any rows into a leaf publishes a
  // non-empty delta, so the parent's speculated delta goes stale.
  int leaf = -1;
  for (int v = 0; v < tree.num_nodes() && leaf < 0; ++v) {
    if (tree.node(v).children.empty() && tree.node(v).parent >= 0) leaf = v;
  }
  ASSERT_GE(leaf, 0);
  const int parent = tree.node(leaf).parent;
  ExecPolicy policy;
  policy.threads = 2;
  policy.partition_grain = 1;  // two-row ranges still partition
  Strategy spec(&shadow, &fm, policy);
  Strategy serial(&shadow, &fm, policy);

  // Load everything except the last rows of the parent and the leaf.
  UpdateStreamOptions opts;
  opts.batch_size = 5;
  opts.seed = seed;
  Rows parent_rows, leaf_rows;
  auto load = [&](int v, const Rows& rows) {
    const size_t from = shadow.AppendRows(v, rows);
    spec.ApplyBatch(v, from, rows.size());
    serial.ApplyBatch(v, from, rows.size());
  };
  for (const UpdateBatch& batch : BuildInsertStream(db.query, opts)) {
    Rows* held = batch.node == parent ? &parent_rows
                 : batch.node == leaf ? &leaf_rows
                                      : nullptr;
    if (held == nullptr) {
      load(batch.node, batch.rows);
    } else {
      held->insert(held->end(), batch.rows.begin(), batch.rows.end());
    }
  }
  ASSERT_GE(parent_rows.size(), 5u);
  ASSERT_GE(leaf_rows.size(), 3u);
  const Rows p1(parent_rows.end() - 4, parent_rows.end() - 2);
  const Rows p2(parent_rows.end() - 2, parent_rows.end());
  const Rows l1(leaf_rows.end() - 2, leaf_rows.end());
  parent_rows.resize(parent_rows.size() - 4);
  leaf_rows.resize(leaf_rows.size() - 2);
  load(parent, parent_rows);
  load(leaf, leaf_rows);
  ExpectCovarExact(spec.Current(), serial.Current());

  // Hit: no fold between the speculative compute and the serial point.
  {
    const NodeRowRange r{parent, shadow.AppendRows(parent, p1), p1.size()};
    std::vector<std::pair<int, uint64_t>> observed;
    typename Strategy::RangeDelta delta = spec.ComputeRangeDelta(r, &observed);
    EXPECT_FALSE(observed.empty());
    EXPECT_TRUE(spec.RangeDeltaValid(observed));
    spec.ApplyRangeDelta(r, std::move(delta), /*visible=*/nullptr,
                         /*gate=*/nullptr);
    serial.ApplyBatch(r.node, r.first, r.count);
    ExpectCovarExact(spec.Current(), serial.Current());
  }

  // Miss: the leaf's range commits before the parent's, the parent's delta
  // is speculated, then the leaf folds first (its horizon hides the
  // parent's new rows, like an epoch's visibility horizon). The stale
  // delta must fail validation; the recompute must match serial replay.
  {
    const NodeRowRange lr{leaf, shadow.AppendRows(leaf, l1), l1.size()};
    const NodeRowRange pr{parent, shadow.AppendRows(parent, p2), p2.size()};
    std::vector<size_t> horizon(tree.num_nodes());
    for (int v = 0; v < tree.num_nodes(); ++v) {
      horizon[v] = shadow.committed_rows(v);
    }
    horizon[parent] = pr.first;
    std::vector<std::pair<int, uint64_t>> observed;
    typename Strategy::RangeDelta delta =
        spec.ComputeRangeDelta(pr, &observed);
    spec.ApplyBatch(lr.node, lr.first, lr.count, horizon.data());
    EXPECT_FALSE(spec.RangeDeltaValid(observed));
    observed.clear();
    delta = spec.ComputeRangeDelta(pr, &observed);
    EXPECT_TRUE(spec.RangeDeltaValid(observed));
    spec.ApplyRangeDelta(pr, std::move(delta), /*visible=*/nullptr,
                         /*gate=*/nullptr);
    serial.ApplyBatch(lr.node, lr.first, lr.count, horizon.data());
    serial.ApplyBatch(pr.node, pr.first, pr.count);
    ExpectCovarExact(spec.Current(), serial.Current());
  }
}

class SpeculativeRangeDelta
    : public ::testing::TestWithParam<std::tuple<uint64_t, Topology>> {};

TEST_P(SpeculativeRangeDelta, CovarFivmHitAndMissMatchSerial) {
  auto [seed, topology] = GetParam();
  CheckSpeculativeRangeDelta<CovarFivm>(seed, topology);
}

TEST_P(SpeculativeRangeDelta, HigherOrderIvmHitAndMissMatchSerial) {
  auto [seed, topology] = GetParam();
  CheckSpeculativeRangeDelta<HigherOrderIvm>(seed, topology);
}

INSTANTIATE_TEST_SUITE_P(
    RandomDbs, SpeculativeRangeDelta,
    ::testing::Combine(::testing::ValuesIn(relborg::testing::kPropertySeeds),
                       ::testing::Values(Topology::kStar, Topology::kChain,
                                         Topology::kBushy)));

TEST(UpdateStreamTest, CoversAllRows) {
  RandomDb db = MakeRandomDb(9, Topology::kStar);
  UpdateStreamOptions opts;
  opts.batch_size = 13;
  std::vector<UpdateBatch> stream = BuildInsertStream(db.query, opts);
  size_t total = 0;
  for (int v = 0; v < db.query.num_relations(); ++v) {
    total += db.query.relation(v)->num_rows();
  }
  EXPECT_EQ(StreamRowCount(stream), total);
  for (const UpdateBatch& b : stream) {
    EXPECT_LE(b.rows.size(), opts.batch_size);
    EXPECT_FALSE(b.rows.empty());
  }
}

TEST(UpdateStreamTest, ProportionalIsDeterministicUnderFixedSeed) {
  RandomDb db = MakeRandomDb(11, Topology::kBushy);
  UpdateStreamOptions opts;
  opts.batch_size = 7;
  opts.seed = 11;
  opts.order = StreamOrder::kProportional;
  std::vector<UpdateBatch> a = BuildInsertStream(db.query, opts);
  std::vector<UpdateBatch> b = BuildInsertStream(db.query, opts);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node) << "batch " << i;
    EXPECT_EQ(a[i].sign, b[i].sign);
    ASSERT_EQ(a[i].rows.size(), b[i].rows.size()) << "batch " << i;
    for (size_t r = 0; r < a[i].rows.size(); ++r) {
      EXPECT_EQ(a[i].rows[r], b[i].rows[r]) << "batch " << i << " row " << r;
    }
  }
}

TEST(UpdateStreamTest, ProportionalExhaustsEveryRelation) {
  RandomDb db = MakeRandomDb(13, Topology::kStar);
  UpdateStreamOptions opts;
  opts.batch_size = 9;
  opts.seed = 13;
  opts.order = StreamOrder::kProportional;
  std::vector<UpdateBatch> stream = BuildInsertStream(db.query, opts);
  // StreamRowCount round-trip: the deal covers every source row exactly
  // once, per relation.
  std::vector<size_t> dealt(db.query.num_relations(), 0);
  for (const UpdateBatch& b : stream) {
    ASSERT_GE(b.node, 0);
    ASSERT_LT(b.node, db.query.num_relations());
    EXPECT_FALSE(b.rows.empty());
    EXPECT_LE(b.rows.size(), opts.batch_size);
    dealt[b.node] += b.rows.size();
  }
  size_t total = 0;
  for (int v = 0; v < db.query.num_relations(); ++v) {
    EXPECT_EQ(dealt[v], db.query.relation(v)->num_rows()) << "node " << v;
    total += dealt[v];
  }
  EXPECT_EQ(StreamRowCount(stream), total);
}

TEST(UpdateStreamTest, MixedStreamDeletesOnlyInsertedRows) {
  RandomDb db = MakeRandomDb(21, Topology::kChain);
  MixedStreamOptions opts;
  opts.insert.batch_size = 8;
  opts.insert.seed = 21;
  opts.delete_probability = 0.5;
  std::vector<UpdateBatch> stream = BuildMixedStream(db.query, opts);
  // Replaying the stream in order, every deleted row must currently be
  // live (inserted earlier, not deleted yet): multiplicities stay in
  // {0, +1}. Deletion is oldest-first, so a per-node FIFO suffices.
  std::vector<std::vector<std::vector<double>>> live(db.query.num_relations());
  std::vector<size_t> consumed(db.query.num_relations(), 0);
  bool saw_delete = false;
  size_t inserted_rows = 0;
  for (const UpdateBatch& b : stream) {
    if (b.sign > 0) {
      inserted_rows += b.rows.size();
      for (const auto& row : b.rows) live[b.node].push_back(row);
      continue;
    }
    saw_delete = true;
    for (const auto& row : b.rows) {
      ASSERT_LT(consumed[b.node], live[b.node].size());
      EXPECT_EQ(row, live[b.node][consumed[b.node]++]);
    }
  }
  EXPECT_TRUE(saw_delete);
  // The insert deal itself is unchanged by the interleaved deletes.
  size_t total = 0;
  for (int v = 0; v < db.query.num_relations(); ++v) {
    total += db.query.relation(v)->num_rows();
  }
  EXPECT_EQ(inserted_rows, total);
}

TEST(UpdateStreamTest, MixedStreamWithZeroProbabilityIsInsertStream) {
  RandomDb db = MakeRandomDb(5, Topology::kStar);
  MixedStreamOptions opts;
  opts.insert.batch_size = 10;
  opts.insert.seed = 5;
  opts.delete_probability = 0.0;
  std::vector<UpdateBatch> mixed = BuildMixedStream(db.query, opts);
  std::vector<UpdateBatch> inserts = BuildInsertStream(db.query, opts.insert);
  ASSERT_EQ(mixed.size(), inserts.size());
  for (size_t i = 0; i < mixed.size(); ++i) {
    EXPECT_EQ(mixed[i].node, inserts[i].node);
    EXPECT_EQ(mixed[i].sign, 1.0);
    EXPECT_EQ(mixed[i].rows, inserts[i].rows);
  }
}

}  // namespace
}  // namespace relborg
