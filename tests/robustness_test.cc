// Edge cases and failure-injection tests across modules: malformed CSV,
// adversarial hash keys, degenerate joins, empty relations, extreme
// options — and stream-level adversarial input (out-of-range nodes, wrong
// arity, non-finite values, over-retracting deletes, quarantine bounds,
// TryPush deadlines, the stall watchdog): the pipeline must survive and
// REPORT untrusted UpdateBatch input, never abort.
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <limits>
#include <mutex>
#include <thread>

#include "baseline/materializer.h"
#include "core/covar_engine.h"
#include "core/groupby_engine.h"
#include "gtest/gtest.h"
#include "ivm/ivm.h"
#include "ivm/update_stream.h"
#include "ml/linear_regression.h"
#include "relational/csv_io.h"
#include "stream/stream_scheduler.h"
#include "tests/test_util.h"
#include "util/flat_hash_map.h"
#include "util/status.h"

namespace relborg {
namespace {

using testing::MakeRandomDb;
using testing::RandomDb;
using testing::Topology;

TEST(CsvRobustnessTest, TruncatedRowFailsCleanly) {
  std::string path = ::testing::TempDir() + "/relborg_bad.csv";
  {
    std::ofstream f(path);
    f << "a,b\n1.0,2.0\n3.0\n";  // second data row too short
  }
  Schema s({{"a", AttrType::kDouble}, {"b", AttrType::kDouble}});
  Relation out("X", s);
  EXPECT_FALSE(ReadCsv(path, "X", s, &out));
  std::remove(path.c_str());
}

TEST(CsvRobustnessTest, HeaderOnlyGivesEmptyRelation) {
  std::string path = ::testing::TempDir() + "/relborg_empty.csv";
  {
    std::ofstream f(path);
    f << "a,b\n";
  }
  Schema s({{"a", AttrType::kDouble}, {"b", AttrType::kDouble}});
  Relation out("X", s);
  EXPECT_TRUE(ReadCsv(path, "X", s, &out));
  EXPECT_EQ(out.num_rows(), 0u);
  std::remove(path.c_str());
}

TEST(FlatHashMapRobustnessTest, AdversarialSameBucketKeys) {
  // Keys crafted to collide under multiply-shift hashing for small tables
  // (arithmetic progression with a step that cancels the multiplier's low
  // bits) must still probe correctly.
  FlatHashMap<int> m;
  std::vector<uint64_t> keys;
  for (uint64_t i = 1; i <= 2000; ++i) keys.push_back(i << 40);
  for (size_t i = 0; i < keys.size(); ++i) m[keys[i]] = static_cast<int>(i);
  for (size_t i = 0; i < keys.size(); ++i) {
    const int* v = m.Find(keys[i]);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, static_cast<int>(i));
  }
  EXPECT_EQ(m.size(), keys.size());
}

TEST(FlatHashMapRobustnessTest, KeyZeroAndMaxPackedKey) {
  FlatHashMap<double> m;
  m[kUnitKey] = 1.5;
  uint64_t big = PackKey2(0x7FFFFFFF, 0x7FFFFFFF);
  m[big] = 2.5;
  EXPECT_DOUBLE_EQ(*m.Find(kUnitKey), 1.5);
  EXPECT_DOUBLE_EQ(*m.Find(big), 2.5);
}

TEST(EngineRobustnessTest, SingleRelationQueryUnsupportedJoinless) {
  // A "join" of one relation with a self-contained tree (0 edges).
  Catalog catalog;
  Relation* r = catalog.AddRelation(
      "R", Schema({{"x", AttrType::kDouble}, {"y", AttrType::kDouble}}));
  for (int i = 0; i < 10; ++i) {
    r->AppendRow({static_cast<double>(i), 2.0 * i});
  }
  JoinQuery q;
  q.AddRelation(r);
  RootedTree tree = q.Root(0);
  FeatureMap fm(q, {{"R", "x"}, {"R", "y"}});
  CovarMatrix m = ComputeCovarMatrix(tree, fm);
  EXPECT_DOUBLE_EQ(m.count(), 10.0);
  EXPECT_DOUBLE_EQ(m.Moment(0, 1), 2.0 * (0 + 1 + 4 + 9 + 16 + 25 + 36 + 49 +
                                          64 + 81));
}

TEST(EngineRobustnessTest, AllRowsFilteredOut) {
  RandomDb db = MakeRandomDb(3, Topology::kStar);
  FeatureMap fm(db.query, db.features);
  FilterSet filters(db.query.num_relations());
  filters[0].push_back(Predicate::Ge(fm.AttrOf(fm.num_features() - 1), 1e30));
  CovarMatrix m = ComputeCovarMatrix(db.query.Root(0), fm, filters);
  EXPECT_DOUBLE_EQ(m.count(), 0.0);
  GroupByResult g = ComputeGroupBy(
      db.query.Root(0), CountGroupedBy(db.query, "R0", "k1"), filters);
  EXPECT_EQ(g.size(), 0u);
}

TEST(EngineRobustnessTest, TwoGroupAttrsOnSameNode) {
  Catalog catalog;
  Relation* r = catalog.AddRelation(
      "R", Schema({{"k", AttrType::kCategorical},
                   {"a", AttrType::kCategorical},
                   {"b", AttrType::kCategorical}}));
  Relation* d = catalog.AddRelation(
      "D", Schema({{"k", AttrType::kCategorical}}));
  d->AppendRow({0});
  r->AppendRow({0, 1, 2});
  r->AppendRow({0, 1, 2});
  r->AppendRow({0, 3, 4});
  JoinQuery q;
  q.AddRelation(r);
  q.AddRelation(d);
  q.AddJoin("R", "D", {"k"});
  GroupByResult g = ComputeGroupBy(
      q.Root("R"), CountGroupedByPair(q, "R", "a", "R", "b"));
  ASSERT_EQ(g.size(), 2u);
  EXPECT_DOUBLE_EQ(*g.Find(GroupKeyBoth(1, 2)), 2.0);
  EXPECT_DOUBLE_EQ(*g.Find(GroupKeyBoth(3, 4)), 1.0);
}

TEST(StreamRobustnessTest, ProportionalOrderCoversAllRows) {
  RandomDb db = MakeRandomDb(17, Topology::kBushy);
  UpdateStreamOptions opts;
  opts.order = StreamOrder::kProportional;
  opts.batch_size = 7;
  std::vector<UpdateBatch> stream = BuildInsertStream(db.query, opts);
  size_t total = 0;
  for (int v = 0; v < db.query.num_relations(); ++v) {
    total += db.query.relation(v)->num_rows();
  }
  EXPECT_EQ(StreamRowCount(stream), total);
}

TEST(StreamRobustnessTest, IvmAgreesUnderProportionalOrderToo) {
  RandomDb db = MakeRandomDb(23, Topology::kChain, /*fact_rows=*/40);
  ShadowDb shadow(db.query, 0);
  FeatureMap fm(shadow.query(), db.features);
  CovarFivm fivm(&shadow, &fm);
  UpdateStreamOptions opts;
  opts.order = StreamOrder::kProportional;
  opts.batch_size = 9;
  for (const UpdateBatch& b : BuildInsertStream(db.query, opts)) {
    size_t first = shadow.AppendRows(b.node, b.rows);
    fivm.ApplyBatch(b.node, first, b.rows.size());
  }
  CovarMatrix want = ComputeCovarMatrix(shadow.tree(), fm);
  EXPECT_NEAR(fivm.Current().count(), want.count(), 1e-6);
  EXPECT_NEAR(fivm.Current().Moment(0, 1), want.Moment(0, 1),
              1e-6 * (1 + std::abs(want.Moment(0, 1))));
}

TEST(TrainingRobustnessTest, ConstantFeatureDoesNotBreakRidge) {
  Catalog catalog;
  Relation* r = catalog.AddRelation(
      "R", Schema({{"k", AttrType::kCategorical},
                   {"c", AttrType::kDouble},     // constant column
                   {"x", AttrType::kDouble},
                   {"y", AttrType::kDouble}}));
  Relation* d = catalog.AddRelation(
      "D", Schema({{"k", AttrType::kCategorical}}));
  d->AppendRow({0});
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    double x = rng.Gaussian();
    r->AppendRow({0, 5.0, x, 3 * x + rng.Gaussian(0, 0.01)});
  }
  JoinQuery q;
  q.AddRelation(r);
  q.AddRelation(d);
  q.AddJoin("R", "D", {"k"});
  FeatureMap fm(q, {{"R", "c"}, {"R", "x"}, {"R", "y"}});
  CovarMatrix m = ComputeCovarMatrix(q.Root("R"), fm);
  LinearModel gd = TrainRidgeGd(m, 2);
  LinearModel cf = SolveRidgeClosedForm(m, 2);
  EXPECT_NEAR(gd.weights[1], 3.0, 0.01);
  EXPECT_NEAR(cf.weights[1], 3.0, 0.01);
  // The constant feature gets ~zero weight in both solvers.
  EXPECT_NEAR(gd.weights[0], 0.0, 1e-6);
  EXPECT_NEAR(cf.weights[0], 0.0, 1e-6);
}

TEST(TrainingRobustnessTest, SingleTupleJoin) {
  Catalog catalog;
  Relation* r = catalog.AddRelation(
      "R", Schema({{"k", AttrType::kCategorical},
                   {"x", AttrType::kDouble},
                   {"y", AttrType::kDouble}}));
  Relation* d = catalog.AddRelation(
      "D", Schema({{"k", AttrType::kCategorical}}));
  d->AppendRow({0});
  r->AppendRow({0, 1.0, 2.0});
  JoinQuery q;
  q.AddRelation(r);
  q.AddRelation(d);
  q.AddJoin("R", "D", {"k"});
  FeatureMap fm(q, {{"R", "x"}, {"R", "y"}});
  CovarMatrix m = ComputeCovarMatrix(q.Root("R"), fm);
  EXPECT_DOUBLE_EQ(m.count(), 1.0);
  // Ridge on a single tuple: no variance, all weight in the bias.
  LinearModel model = SolveRidgeClosedForm(m, 1);
  EXPECT_NEAR(model.bias + model.weights[0] * 1.0, 2.0, 1e-6);
}

// ---------------------------------------------------------------------------
// Stream ingress validation: every rejection case quarantines + reports
// (never aborts) and the pipeline keeps processing subsequent good
// batches — proven by comparing against a clean run of the good-only
// stream.

// Drives [good..., bad, good...] through a scheduler and checks: the bad
// batch is rejected with `want_code`, ends up quarantined, and the final
// aggregate equals a clean run over just the good batches.
void CheckRejectedButPipelineSurvives(const UpdateBatch& bad,
                                      StatusCode want_code) {
  RandomDb db = MakeRandomDb(5, Topology::kChain, /*fact_rows=*/24);
  UpdateStreamOptions opts;
  opts.batch_size = 9;
  const std::vector<UpdateBatch> good = BuildInsertStream(db.query, opts);
  ASSERT_GE(good.size(), 2u);

  // Clean reference over the good-only stream.
  ShadowDb ref_shadow(db.query, 0);
  FeatureMap ref_fm(ref_shadow.query(), db.features);
  CovarFivm ref(&ref_shadow, &ref_fm);
  ReplayStream(&ref_shadow, &ref, good);

  ShadowDb shadow(db.query, 0);
  FeatureMap fm(shadow.query(), db.features);
  CovarFivm fivm(&shadow, &fm);
  StreamScheduler<CovarFivm> scheduler(&shadow, &fivm);
  ASSERT_TRUE(scheduler.Push(good[0]).ok());
  const Status st = scheduler.Push(bad);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), want_code) << st.ToString();
  for (size_t i = 1; i < good.size(); ++i) {
    ASSERT_TRUE(scheduler.Push(good[i]).ok()) << "good batch " << i
                                              << " after rejection";
  }
  auto quarantined = scheduler.DrainQuarantine();
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(quarantined[0].status.code(), want_code);
  EXPECT_EQ(quarantined[0].batch.rows.size(), bad.rows.size());
  StreamStats stats;
  ASSERT_TRUE(scheduler.Finish(&stats).ok());
  EXPECT_EQ(stats.rejected_batches, 1u);
  EXPECT_EQ(stats.rejected_rows, bad.rows.size());
  EXPECT_EQ(stats.quarantined_batches, 1u);
  // Bit-identical to the clean good-only run: the rejected batch never
  // influenced epoch composition or any view.
  const int n = ref.Current().num_features();
  for (int i = 0; i <= n; ++i) {
    for (int j = i; j <= n; ++j) {
      EXPECT_EQ(fivm.Current().Moment(i, j), ref.Current().Moment(i, j));
    }
  }
}

TEST(StreamIngressValidationTest, OutOfRangeNodeRejected) {
  UpdateBatch bad;
  bad.node = 99;
  bad.rows = {{1.0, 2.0}};
  CheckRejectedButPipelineSurvives(bad, StatusCode::kInvalidArgument);
}

TEST(StreamIngressValidationTest, NegativeNodeRejected) {
  UpdateBatch bad;
  bad.node = -7;
  bad.rows = {{1.0, 2.0}};
  CheckRejectedButPipelineSurvives(bad, StatusCode::kInvalidArgument);
}

TEST(StreamIngressValidationTest, WrongArityRowRejected) {
  UpdateBatch bad;
  bad.node = 0;  // chain R0 has arity 2
  bad.rows = {{1.0, 2.0, 3.0}};
  CheckRejectedButPipelineSurvives(bad, StatusCode::kInvalidArgument);
}

TEST(StreamIngressValidationTest, NonFiniteValueRejected) {
  UpdateBatch bad;
  bad.node = 0;
  bad.rows = {{1.0, std::numeric_limits<double>::infinity()}};
  CheckRejectedButPipelineSurvives(bad, StatusCode::kInvalidArgument);
}

TEST(StreamIngressValidationTest, BadCategoricalCodeRejected) {
  // Chain R0's first attribute is categorical: negative and fractional
  // codes would silently truncate in Column::AppendCat release builds.
  UpdateBatch bad;
  bad.node = 0;
  bad.rows = {{-3.0, 1.0}};
  CheckRejectedButPipelineSurvives(bad, StatusCode::kInvalidArgument);
  UpdateBatch frac;
  frac.node = 0;
  frac.rows = {{2.5, 1.0}};
  CheckRejectedButPipelineSurvives(frac, StatusCode::kInvalidArgument);
}

TEST(StreamIngressValidationTest, BadSignRejected) {
  UpdateBatch bad;
  bad.node = 0;
  bad.sign = 2.0;
  bad.rows = {{1.0, 2.0}};
  CheckRejectedButPipelineSurvives(bad, StatusCode::kInvalidArgument);
}

TEST(StreamIngressValidationTest, DeleteOfNeverInsertedRowRejected) {
  UpdateBatch bad;
  bad.node = 0;
  bad.sign = -1.0;
  bad.rows = {{7.0, 123.456}};  // never inserted
  CheckRejectedButPipelineSurvives(bad, StatusCode::kInvalidArgument);
}

TEST(StreamIngressValidationTest, DeleteOverRetractingDuplicateRejected) {
  // One live copy, a delete batch retracting it TWICE: the batch-atomic
  // need-count check rejects the whole batch.
  RandomDb db = MakeRandomDb(5, Topology::kChain, /*fact_rows=*/24);
  ShadowDb shadow(db.query, 0);
  FeatureMap fm(shadow.query(), db.features);
  CovarFivm fivm(&shadow, &fm);
  StreamScheduler<CovarFivm> scheduler(&shadow, &fivm);
  UpdateBatch ins;
  ins.node = 0;
  ins.rows = {{3.0, 1.25}};
  ASSERT_TRUE(scheduler.Push(ins).ok());
  UpdateBatch del;
  del.node = 0;
  del.sign = -1.0;
  del.rows = {{3.0, 1.25}, {3.0, 1.25}};
  EXPECT_EQ(scheduler.Push(del).code(), StatusCode::kInvalidArgument);
  // Retracting it once is fine.
  del.rows = {{3.0, 1.25}};
  EXPECT_TRUE(scheduler.Push(del).ok());
  // A second single retraction now over-retracts (multiplicity is 0).
  EXPECT_EQ(scheduler.Push(del).code(), StatusCode::kInvalidArgument);
  StreamStats stats;
  ASSERT_TRUE(scheduler.Finish(&stats).ok());
  EXPECT_EQ(stats.rejected_batches, 2u);
  EXPECT_DOUBLE_EQ(fivm.Current().count(), 0.0);
}

TEST(StreamIngressValidationTest, QuarantineIsBoundedAndZeroCapacityDrops) {
  RandomDb db = MakeRandomDb(5, Topology::kChain, /*fact_rows=*/24);
  UpdateBatch bad;
  bad.node = 42;
  bad.rows = {{1.0, 2.0}};
  {  // Capacity 2: third rejection is dropped, not queued.
    ShadowDb shadow(db.query, 0);
    FeatureMap fm(shadow.query(), db.features);
    CovarFivm fivm(&shadow, &fm);
    StreamOptions options;
    options.quarantine_capacity = 2;
    StreamScheduler<CovarFivm> scheduler(&shadow, &fivm, options);
    for (int i = 0; i < 3; ++i) {
      EXPECT_FALSE(scheduler.Push(bad).ok());
    }
    EXPECT_EQ(scheduler.quarantine_size(), 2u);
    StreamStats stats;
    ASSERT_TRUE(scheduler.Finish(&stats).ok());
    EXPECT_EQ(stats.rejected_batches, 3u);
    EXPECT_EQ(stats.quarantined_batches, 2u);
    EXPECT_EQ(stats.quarantine_dropped_batches, 1u);
  }
  {  // Capacity 0: every rejection is dropped; nothing is ever queued.
    ShadowDb shadow(db.query, 0);
    FeatureMap fm(shadow.query(), db.features);
    CovarFivm fivm(&shadow, &fm);
    StreamOptions options;
    options.quarantine_capacity = 0;
    StreamScheduler<CovarFivm> scheduler(&shadow, &fivm, options);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(scheduler.Push(bad).code(), StatusCode::kInvalidArgument);
    }
    EXPECT_EQ(scheduler.quarantine_size(), 0u);
    StreamStats stats;
    ASSERT_TRUE(scheduler.Finish(&stats).ok());
    EXPECT_EQ(stats.quarantined_batches, 0u);
    EXPECT_EQ(stats.quarantine_dropped_batches, 3u);
  }
}

TEST(StreamIngressValidationTest, PushAfterFinishReportsInsteadOfAborting) {
  RandomDb db = MakeRandomDb(5, Topology::kChain, /*fact_rows=*/24);
  ShadowDb shadow(db.query, 0);
  FeatureMap fm(shadow.query(), db.features);
  CovarFivm fivm(&shadow, &fm);
  StreamScheduler<CovarFivm> scheduler(&shadow, &fivm);
  UpdateBatch good;
  good.node = 0;
  good.rows = {{1.0, 0.5}};
  ASSERT_TRUE(scheduler.Push(good).ok());
  ASSERT_TRUE(scheduler.Finish().ok());
  const Status st = scheduler.Push(good);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  StreamStats stats;
  ASSERT_TRUE(scheduler.Finish(&stats).ok());  // idempotent
  EXPECT_EQ(stats.dropped_batches, 1u);
  EXPECT_EQ(stats.batches, 1u);  // the late batch never entered
}

// Minimal maintenance strategy whose ApplyBatch blocks until released —
// stalls the applier so backpressure fills every queue deterministically.
// It has no state to checkpoint, and the tests below never enable
// checkpointing.
class BlockingStrategy {
 public:
  static constexpr uint32_t kCheckpointTag = 0;
  void SaveCheckpoint(ByteSink* /*sink*/) const {}

  void ApplyBatch(int /*node*/, size_t /*first*/, size_t /*count*/,
                  const size_t* /*visible*/) {
    std::unique_lock<std::mutex> lock(mu_);
    ++applied_;
    cv_.wait(lock, [&] { return released_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }
  int applied() const {
    std::lock_guard<std::mutex> lock(mu_);
    return applied_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
  int applied_ = 0;
};

TEST(StreamBackpressureTest, TryPushDeadlineExpiresUnderStalledApplier) {
  RandomDb db = MakeRandomDb(5, Topology::kChain, /*fact_rows=*/24);
  ShadowDb shadow(db.query, 0);
  BlockingStrategy strategy;
  StreamOptions options;
  options.epoch_batches = 1;  // every batch seals an epoch
  options.epoch_rows = 1;
  options.max_queued_rows = 4;
  options.max_queued_epochs = 1;
  StreamScheduler<BlockingStrategy> scheduler(&shadow, &strategy, options);
  UpdateBatch batch;
  batch.node = 0;
  batch.rows = {{1.0, 0.5}, {2.0, 0.25}, {3.0, 0.75}, {4.0, 1.5}};
  size_t accepted = 0, timed_out = 0;
  for (int i = 0; i < 16 && timed_out == 0; ++i) {
    const Status st =
        scheduler.TryPush(batch, std::chrono::milliseconds(20));
    if (st.ok()) {
      ++accepted;
    } else {
      EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
      ++timed_out;
    }
  }
  EXPECT_GE(accepted, 1u);
  ASSERT_EQ(timed_out, 1u) << "stalled pipeline never backpressured";
  strategy.Release();
  StreamStats stats;
  ASSERT_TRUE(scheduler.Finish(&stats).ok());
  EXPECT_EQ(stats.try_push_timeouts, 1u);
  // Every ACCEPTED batch was applied despite the stall + timeout.
  EXPECT_EQ(stats.batches, accepted);
  EXPECT_EQ(static_cast<size_t>(strategy.applied()), accepted);
}

TEST(StreamBackpressureTest, WatchdogReportsStallWithoutKillingPipeline) {
  RandomDb db = MakeRandomDb(5, Topology::kChain, /*fact_rows=*/24);
  ShadowDb shadow(db.query, 0);
  BlockingStrategy strategy;
  StreamOptions options;
  options.epoch_batches = 1;
  options.epoch_rows = 1;
  options.max_queued_rows = 4;
  options.max_queued_epochs = 1;
  options.stall_timeout_seconds = 0.05;
  StreamScheduler<BlockingStrategy> scheduler(&shadow, &strategy, options);
  UpdateBatch batch;
  batch.node = 0;
  batch.rows = {{1.0, 0.5}, {2.0, 0.25}};
  // Enough batches that work is QUEUED behind the stalled applier (the
  // watchdog only reports when queues are non-empty and nothing moves).
  for (int i = 0; i < 3; ++i) {
    (void)scheduler.TryPush(batch, std::chrono::milliseconds(20));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  strategy.Release();
  StreamStats stats;
  ASSERT_TRUE(scheduler.Finish(&stats).ok());
  EXPECT_GE(stats.watchdog_stalls, 1u);
  EXPECT_GT(strategy.applied(), 0);
}

}  // namespace
}  // namespace relborg
