// Differential suite for key-range sharded pipelines (src/shard/):
//
//   * The tentpole property: a ShardedStreamScheduler's merged aggregate is
//     BIT-IDENTICAL to the unsharded StreamScheduler run over the same
//     mixed stream — for shard counts {1, 2, 4, 8}, all three IVM
//     strategies, and every (seed, topology) of the broad property tier.
//     The fixtures use integer-valued features (test_util.h's
//     integer_values knob): sharding re-associates the ring sums across
//     shards, which is exact in IEEE double only when every partial sum is
//     exactly representable — with integer data, bitwise equality is a
//     theorem, not luck.
//   * ShardMap unit properties: deterministic total routing, range
//     monotonicity, beyond-domain clamping, malformed-row safety.
//   * Merged serving: concurrent ShardedSnapshotServer reads against a
//     per-prefix serial oracle — every merged cut equals the unsharded
//     state after exactly that many source batches.
//   * Restore: per-shard checkpoints resumed into a fresh fleet and
//     replayed equal the straight-through run, including a shard whose
//     checkpoint file was deleted (fresh restart mid-fleet).
//   * One ingress: a poison row mid-stream rejects its whole batch at the
//     router — no shard applies any of its rows, even when the batch's
//     other rows route to other shards — and the fleet's state and merged
//     reads stay equal to the unsharded run, which rejects the same batch.
//
// Runs under TSan in CI (reader threads hammer merged begins against N
// concurrent pipelines' applier/committer/compute threads).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "gtest/gtest.h"
#include "ivm/ivm.h"
#include "ivm/update_stream.h"
#include "ring/covar_arena.h"
#include "serve/sharded_snapshot_server.h"
#include "shard/shard_map.h"
#include "shard/sharded_stream_scheduler.h"
#include "stream/stream_scheduler.h"
#include "tests/test_util.h"

namespace relborg {
namespace {

using testing::MakeRandomDb;
using testing::RandomDb;
using testing::Topology;

using GroupByResult = std::vector<std::pair<uint64_t, double>>;

ExecPolicy MakePolicy(int threads) {
  ExecPolicy policy;
  policy.threads = threads;
  policy.partition_grain = 16;
  return policy;
}

// Small epochs so modest streams cross many per-shard epoch boundaries
// (the interesting regime: shards seal epochs at different global points).
StreamOptions SmallEpochOptions() {
  StreamOptions options;
  options.epoch_rows = 96;
  options.epoch_batches = 5;
  return options;
}

std::string ShardCheckpointPrefix(const std::string& tag) {
  return ::testing::TempDir() + "relborg_shard_" +
#ifndef _WIN32
         std::to_string(::getpid()) + "_" +
#endif
         tag + "_";
}

std::vector<UpdateBatch> MakeMixed(const RandomDb& db, uint64_t seed) {
  MixedStreamOptions opts;
  opts.insert.batch_size = 17;
  opts.insert.seed = seed;
  opts.delete_probability = 0.35;
  return BuildMixedStream(db.query, opts);
}

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

void ExpectPayloadExact(const CovarPayload& got, const CovarPayload& want) {
  EXPECT_EQ(got.count, want.count);
  ASSERT_EQ(got.sum.size(), want.sum.size());
  ASSERT_EQ(got.quad.size(), want.quad.size());
  for (size_t i = 0; i < want.sum.size(); ++i) {
    EXPECT_EQ(got.sum[i], want.sum[i]) << "sum[" << i << "]";
  }
  for (size_t i = 0; i < want.quad.size(); ++i) {
    EXPECT_EQ(got.quad[i], want.quad[i]) << "quad[" << i << "]";
  }
}

// The unsharded oracle: one StreamScheduler over the whole stream.
template <typename Strategy>
CovarMatrix UnshardedResult(const RandomDb& db, const FeatureMap& fm,
                            const std::vector<UpdateBatch>& stream,
                            int threads) {
  ShadowDb shadow(db.query, 0);
  Strategy strategy(&shadow, &fm, MakePolicy(threads));
  StreamScheduler<Strategy> scheduler(&shadow, &strategy,
                                      SmallEpochOptions());
  for (const UpdateBatch& batch : stream) scheduler.Push(batch);
  EXPECT_TRUE(scheduler.Finish().ok());
  return strategy.Current();
}

// ---------------------------------------------------------------------------
// ShardMap unit properties.

TEST(ShardMapTest, RoutingIsDeterministicTotalAndMonotonic) {
  RandomDb db = MakeRandomDb(7, Topology::kStar, /*fact_rows=*/60);
  const ShardMap map = ShardMap::ForQuery(db.query, /*root=*/0, 4);
  EXPECT_EQ(map.num_shards(), 4);
  EXPECT_EQ(map.root_node(), 0);
  ASSERT_FALSE(map.key_attrs().empty());
  const Relation& root = *db.query.relation(0);
  int last_shard = -1;
  std::vector<int> hits(4, 0);
  for (uint64_t key = 0; key < map.domain(); ++key) {
    const int s = map.ShardOfKey(key);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    EXPECT_GE(s, last_shard) << "key ranges must be contiguous";
    last_shard = s;
    ++hits[static_cast<size_t>(s)];
  }
  for (int s = 0; s < 4; ++s) {
    EXPECT_GT(hits[static_cast<size_t>(s)], 0) << "empty shard " << s;
  }
  for (size_t r = 0; r < root.num_rows(); ++r) {
    std::vector<double> row(static_cast<size_t>(root.num_attrs()));
    for (int a = 0; a < root.num_attrs(); ++a) row[a] = root.AsDouble(r, a);
    EXPECT_EQ(map.ShardOfRow(row), map.ShardOfRow(row));  // pure function
    EXPECT_EQ(map.ShardOfRow(row), map.ShardOfKey(map.KeyOfRow(row)));
  }
}

TEST(ShardMapTest, TrivialAndClampedRouting) {
  const ShardMap trivial;
  EXPECT_EQ(trivial.num_shards(), 1);
  EXPECT_EQ(trivial.ShardOfKey(12345), 0);

  const ShardMap map(/*root_node=*/0, /*key_attrs=*/{0}, /*domain=*/10,
                     /*num_shards=*/4);
  EXPECT_EQ(map.ShardOfKey(0), 0);
  EXPECT_EQ(map.ShardOfKey(9), 3);
  // Keys the split never saw clamp to the last shard — still pure.
  EXPECT_EQ(map.ShardOfKey(10), 3);
  EXPECT_EQ(map.ShardOfKey(std::numeric_limits<uint64_t>::max()), 3);
}

TEST(ShardMapTest, MalformedRowsRouteDeterministically) {
  const ShardMap map(/*root_node=*/0, /*key_attrs=*/{0, 1}, /*domain=*/64,
                     /*num_shards=*/4);
  // Too-short rows and non-finite key values must not crash routing; they
  // key to kUnitKey (shard 0) and are left to ingress validation.
  EXPECT_EQ(map.ShardOfRow({}), 0);
  EXPECT_EQ(map.ShardOfRow({3.0}), 0);
  EXPECT_EQ(map.ShardOfRow({std::nan(""), 1.0}), 0);
  EXPECT_EQ(map.ShardOfRow({1.0, std::numeric_limits<double>::infinity()}),
            0);
}

// ---------------------------------------------------------------------------
// The tentpole differential: merged sharded state == unsharded state,
// bitwise, for every shard count and strategy.

class ShardedStreamProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, Topology>> {};

// The fleet's stats are one registry fold: each counter is the per-shard
// sum plus the router's share (the router counts only its ingress
// rejects), each high-water field the per-shard max.
void ExpectFleetStats(const StreamStats& total,
                      const std::vector<StreamStats>& per_shard,
                      size_t router_rejected_batches,
                      size_t router_rejected_rows) {
  StreamStats sum;
  for (const StreamStats& s : per_shard) {
    sum.batches += s.batches;
    sum.rows += s.rows;
    sum.epochs += s.epochs;
    sum.ranges += s.ranges;
    sum.speculated_ranges += s.speculated_ranges;
    sum.speculation_hits += s.speculation_hits;
    sum.speculation_misses += s.speculation_misses;
    sum.rejected_batches += s.rejected_batches;
    sum.rejected_rows += s.rejected_rows;
    sum.quarantined_batches += s.quarantined_batches;
    sum.checkpoints_written += s.checkpoints_written;
    sum.ingress_high_water_rows =
        std::max(sum.ingress_high_water_rows, s.ingress_high_water_rows);
    sum.epoch_queue_high_water =
        std::max(sum.epoch_queue_high_water, s.epoch_queue_high_water);
    sum.commit_ahead_max_epochs =
        std::max(sum.commit_ahead_max_epochs, s.commit_ahead_max_epochs);
    sum.compute_overlap_epochs_max =
        std::max(sum.compute_overlap_epochs_max, s.compute_overlap_epochs_max);
    sum.epoch_latency_max_seconds =
        std::max(sum.epoch_latency_max_seconds, s.epoch_latency_max_seconds);
  }
  EXPECT_EQ(total.batches, sum.batches);
  EXPECT_EQ(total.rows, sum.rows);
  EXPECT_EQ(total.epochs, sum.epochs);
  EXPECT_EQ(total.ranges, sum.ranges);
  EXPECT_EQ(total.speculated_ranges, sum.speculated_ranges);
  EXPECT_EQ(total.speculation_hits, sum.speculation_hits);
  EXPECT_EQ(total.speculation_misses, sum.speculation_misses);
  EXPECT_EQ(total.rejected_batches,
            sum.rejected_batches + router_rejected_batches);
  EXPECT_EQ(total.rejected_rows, sum.rejected_rows + router_rejected_rows);
  EXPECT_EQ(total.quarantined_batches,
            sum.quarantined_batches + router_rejected_batches);
  EXPECT_EQ(total.checkpoints_written, sum.checkpoints_written);
  EXPECT_EQ(total.ingress_high_water_rows, sum.ingress_high_water_rows);
  EXPECT_EQ(total.epoch_queue_high_water, sum.epoch_queue_high_water);
  EXPECT_EQ(total.commit_ahead_max_epochs, sum.commit_ahead_max_epochs);
  EXPECT_EQ(total.compute_overlap_epochs_max, sum.compute_overlap_epochs_max);
  EXPECT_EQ(total.epoch_latency_max_seconds, sum.epoch_latency_max_seconds);
}

template <typename Strategy>
void CheckShardedMatchesUnsharded(const RandomDb& db, const FeatureMap& fm,
                                  const std::vector<UpdateBatch>& stream) {
  const CovarMatrix want = UnshardedResult<Strategy>(db, fm, stream, 2);
  for (int shards : {1, 2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedStreamOptions options;
    options.stream = SmallEpochOptions();
    // Checkpoints on a short cadence, so the fleet total of
    // checkpoints_written is not vacuous.
    options.stream.checkpoint.every_epochs = 2;
    options.stream.checkpoint.fsync = false;
    options.checkpoint_prefix =
        ShardCheckpointPrefix("prop" + std::to_string(shards));
    ShardedStreamScheduler<Strategy> sched(
        db.query, /*root=*/0, &fm, ShardMap::ForQuery(db.query, 0, shards),
        MakePolicy(2), options);
    for (const UpdateBatch& batch : stream) {
      ASSERT_TRUE(sched.Push(batch).ok());
    }
    // One malformed batch: the router rejects it before routing, so it
    // counts in the router's share only.
    UpdateBatch bad;
    bad.node = -5;
    bad.rows = {{1.0}};
    EXPECT_EQ(sched.Push(bad).code(), StatusCode::kInvalidArgument);
    StreamStats total;
    std::vector<StreamStats> per_shard;
    ASSERT_TRUE(sched.Finish(&total, &per_shard).ok());
    for (int s = 0; s < shards; ++s) {
      std::remove(ShardedStreamScheduler<Strategy>::ShardCheckpointPath(
                      options.checkpoint_prefix, s)
                      .c_str());
    }
    ExpectCovarExact(sched.MergedCurrent(), want);
    ExpectFleetStats(total, per_shard, /*router_rejected_batches=*/1,
                     /*router_rejected_rows=*/1);
    EXPECT_GT(total.checkpoints_written, 0u);
    EXPECT_EQ(sched.global_batches(), stream.size() + 1);
  }
}

TEST_P(ShardedStreamProperty, MergedStateMatchesUnshardedBitwise) {
  auto [seed, topology] = GetParam();
  const RandomDb db = MakeRandomDb(seed, topology, /*fact_rows=*/30,
                                   /*domain=*/8, /*integer_values=*/true);
  const FeatureMap fm(db.query, db.features);
  const std::vector<UpdateBatch> stream = MakeMixed(db, seed + 17);
  ASSERT_FALSE(stream.empty());
  CheckShardedMatchesUnsharded<CovarFivm>(db, fm, stream);
  CheckShardedMatchesUnsharded<HigherOrderIvm>(db, fm, stream);
  CheckShardedMatchesUnsharded<FirstOrderIvm>(db, fm, stream);
}

// Cross-arena merge plumbing: MergeViewInto over the ROOT view (the only
// partitioned view) reconstructs the unsharded root payload, and the
// sharded MetricsText carries both the aggregate and per-shard series.
TEST_P(ShardedStreamProperty, RootViewMergeAndMetricsAggregation) {
  auto [seed, topology] = GetParam();
  const RandomDb db = MakeRandomDb(seed, topology, /*fact_rows=*/30,
                                   /*domain=*/8, /*integer_values=*/true);
  const FeatureMap fm(db.query, db.features);
  const std::vector<UpdateBatch> stream = MakeMixed(db, seed + 29);
  const CovarMatrix want = UnshardedResult<CovarFivm>(db, fm, stream, 2);
  ShardedStreamOptions options;
  options.stream = SmallEpochOptions();
  ShardedStreamScheduler<CovarFivm> sched(
      db.query, /*root=*/0, &fm, ShardMap::ForQuery(db.query, 0, 4),
      MakePolicy(2), options);
  for (const UpdateBatch& batch : stream) ASSERT_TRUE(sched.Push(batch).ok());
  ASSERT_TRUE(sched.Finish().ok());

  const int root = sched.shadow(0).tree().root();
  const int n = fm.num_features();
  CovarArenaView merged(n);
  sched.MergeViewInto(root, &merged);
  const double* span = merged.Find(kUnitKey);
  ASSERT_NE(span, nullptr);
  ExpectPayloadExact(CovarPayloadFromSpan(n, span), want.payload());

  const std::string text = sched.MetricsText();
  EXPECT_NE(text.find("_shard0"), std::string::npos);
  EXPECT_NE(text.find("_shard3"), std::string::npos);
  EXPECT_NE(text.find("relborg_stream_rows_total "), std::string::npos)
      << "aggregate (unsuffixed) series missing:\n"
      << text.substr(0, 400);
}

INSTANTIATE_TEST_SUITE_P(
    RandomDbs, ShardedStreamProperty,
    ::testing::Combine(::testing::ValuesIn(relborg::testing::kPropertySeeds),
                       ::testing::Values(Topology::kStar, Topology::kChain,
                                         Topology::kBushy)));

// ---------------------------------------------------------------------------
// Merged serving: every concurrent merged read equals the unsharded state
// after exactly txn.global_batches() source batches.

// A node whose view has multiple keys and exercises the replicated-view
// read path: the root's first child if any, else the root itself.
int GroupByNode(const ShadowDb& shadow) {
  const int root = shadow.tree().root();
  const std::vector<int>& children = shadow.tree().node(root).children;
  return children.empty() ? root : children[0];
}

// The per-prefix serial oracle: state after the first b batches, for every
// b — built by forcing an epoch boundary after each batch.
struct PrefixOracle {
  std::vector<CovarPayload> covar;    // [b] = after first b batches
  std::vector<GroupByResult> groups;  // at GroupByNode
  int gb_node = -1;
};

PrefixOracle BuildPrefixOracle(const RandomDb& db, const FeatureMap& fm,
                               const std::vector<UpdateBatch>& stream) {
  ShadowDb shadow(db.query, 0);
  CovarFivm strategy(&shadow, &fm, MakePolicy(1));
  PrefixOracle oracle;
  oracle.gb_node = GroupByNode(shadow);
  auto record = [&] {
    CovarFivm::ServePin pin = strategy.PinServe();
    oracle.covar.push_back(strategy.CovarAt(pin).payload());
    oracle.groups.push_back(strategy.GroupByAt(oracle.gb_node, pin));
    strategy.UnpinServe();
  };
  record();  // b = 0: the empty database
  StreamOptions options;  // large epochs; Flush forces the boundary
  EpochAssembler assembler(&shadow, options);
  StreamEpoch epoch;
  auto apply = [&] {
    stream_internal::CommitEpoch(&shadow, &epoch);
    stream_internal::MaintainEpoch(&strategy, &epoch);
    epoch = StreamEpoch();
  };
  for (const UpdateBatch& batch : stream) {
    if (assembler.Add(batch, &epoch)) apply();
    if (assembler.Flush(&epoch)) apply();
    record();
  }
  return oracle;
}

TEST(ShardedServeTest, MergedReadsMatchPrefixOracle) {
  const RandomDb db = MakeRandomDb(21, Topology::kBushy, /*fact_rows=*/40,
                                   /*domain=*/8, /*integer_values=*/true);
  const FeatureMap fm(db.query, db.features);
  const std::vector<UpdateBatch> stream = MakeMixed(db, 38);
  ASSERT_FALSE(stream.empty());
  const PrefixOracle oracle = BuildPrefixOracle(db, fm, stream);

  struct Observation {
    uint64_t batches = 0;
    CovarPayload covar;
    GroupByResult groups;
  };
  constexpr int kReaders = 3;
  std::vector<std::vector<Observation>> observed(kReaders);
  std::atomic<size_t> failed_begins{0};
  {
    ShardedStreamOptions options;
    options.stream = SmallEpochOptions();
    ShardedStreamScheduler<CovarFivm> sched(
        db.query, /*root=*/0, &fm, ShardMap::ForQuery(db.query, 0, 4),
        MakePolicy(2), options);
    ShardedSnapshotServer<CovarFivm> server(&sched);
    std::atomic<bool> done{false};
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        while (true) {
          const bool last = done.load(std::memory_order_acquire);
          ShardedSnapshotServer<CovarFivm>::MergedReadTxn txn;
          if (server.BeginMergedSnapshot(&txn).ok()) {
            Observation o;
            o.batches = txn.global_batches();
            o.covar = server.Covar(txn).payload();
            o.groups = server.GroupBy(txn, oracle.gb_node);
            server.EndSnapshot(&txn);
            observed[t].push_back(std::move(o));
          } else {
            failed_begins.fetch_add(1, std::memory_order_relaxed);
          }
          if (last) break;
        }
      });
    }
    for (const UpdateBatch& batch : stream) {
      ASSERT_TRUE(sched.Push(batch).ok());
    }
    ASSERT_TRUE(sched.Finish().ok());
    done.store(true, std::memory_order_release);
    for (std::thread& r : readers) r.join();
    // The per-shard servers register one relborg_serve_* family, merged
    // into the fleet's exposition.
    const std::string text = server.MetricsText();
    EXPECT_NE(text.find("relborg_serve_reads_total "), std::string::npos);
    EXPECT_NE(text.find("relborg_serve_reads_total_shard3 "),
              std::string::npos);
  }
  size_t checked = 0;
  uint64_t max_seen = 0;
  for (const std::vector<Observation>& per_thread : observed) {
    ASSERT_FALSE(per_thread.empty())
        << "merged begins never succeeded (failed begins: "
        << failed_begins.load() << ")";
    for (const Observation& o : per_thread) {
      ASSERT_LT(o.batches, oracle.covar.size());
      ExpectPayloadExact(o.covar, oracle.covar[o.batches]);
      EXPECT_EQ(o.groups, oracle.groups[o.batches])
          << "cut " << o.batches;
      max_seen = std::max(max_seen, o.batches);
      ++checked;
    }
  }
  ASSERT_GT(checked, 0u);
  // A quiescent fleet always yields a cut, and the post-Finish iteration
  // of every reader sees the full stream.
  EXPECT_EQ(max_seen, stream.size());
}

// ---------------------------------------------------------------------------
// Restore: per-shard checkpoints resumed and replayed equal the straight
// run — including one shard restarting from scratch (checkpoint deleted).

template <typename Strategy>
void CheckResumeMatchesStraightRun(uint64_t seed, bool delete_one_shard) {
  const RandomDb db = MakeRandomDb(seed, Topology::kChain, /*fact_rows=*/40,
                                   /*domain=*/8, /*integer_values=*/true);
  const FeatureMap fm(db.query, db.features);
  const std::vector<UpdateBatch> stream = MakeMixed(db, seed + 5);
  const CovarMatrix want = UnshardedResult<Strategy>(db, fm, stream, 2);
  constexpr int kShards = 4;
  const ShardMap map = ShardMap::ForQuery(db.query, 0, kShards);
  const std::string prefix = ShardCheckpointPrefix(
      "s" + std::to_string(seed) + (delete_one_shard ? "_del" : ""));
  ShardedStreamOptions options;
  options.stream = SmallEpochOptions();
  // Tiny epochs + every-epoch cadence: even lightly-loaded shards cross
  // several checkpoints within the half stream ingested below.
  options.stream.epoch_batches = 2;
  options.stream.epoch_rows = 32;
  options.stream.checkpoint.every_epochs = 1;
  options.stream.checkpoint.fsync = false;
  options.checkpoint_prefix = prefix;
  {
    // First run: ingest a prefix of the stream, checkpointing on cadence.
    ShardedStreamScheduler<Strategy> first(db.query, 0, &fm, map,
                                           MakePolicy(2), options);
    for (size_t i = 0; i < stream.size() / 2; ++i) {
      ASSERT_TRUE(first.Push(stream[i]).ok());
    }
    StreamStats stats;
    ASSERT_TRUE(first.Finish(&stats).ok());
    ASSERT_GT(stats.checkpoints_written, 0u) << "cadence never fired";
  }
  if (delete_one_shard) {
    // Shard 2 loses its checkpoint: Resume must restart it from scratch
    // while the other shards skip their restored prefixes.
    ASSERT_EQ(std::remove((prefix + "shard-2.ckpt").c_str()), 0);
  }
  std::unique_ptr<ShardedStreamScheduler<Strategy>> resumed;
  ASSERT_TRUE(ShardedStreamScheduler<Strategy>::Resume(
                  db.query, 0, &fm, map, MakePolicy(2), options, &resumed)
                  .ok());
  // The resume contract: replay the WHOLE stream; restored prefixes are
  // skipped per shard.
  for (const UpdateBatch& batch : stream) {
    ASSERT_TRUE(resumed->Push(batch).ok());
  }
  ASSERT_TRUE(resumed->Finish().ok());
  ExpectCovarExact(resumed->MergedCurrent(), want);
  for (int s = 0; s < kShards; ++s) {
    std::remove((prefix + "shard-" + std::to_string(s) + ".ckpt").c_str());
  }
}

TEST(ShardedRestoreTest, ResumedFleetMatchesStraightRun) {
  CheckResumeMatchesStraightRun<CovarFivm>(3, /*delete_one_shard=*/false);
  CheckResumeMatchesStraightRun<HigherOrderIvm>(21,
                                                /*delete_one_shard=*/false);
}

TEST(ShardedRestoreTest, MissingShardCheckpointRestartsThatShardOnly) {
  CheckResumeMatchesStraightRun<CovarFivm>(55, /*delete_one_shard=*/true);
}

// ---------------------------------------------------------------------------
// One ingress: a poison row mid-stream is rejected with its whole batch at
// the router, exactly as the unsharded pipeline rejects it.

// A chain root row R0(k1, a) whose key routes to `shard`.
std::vector<double> RootRowOnShard(const ShardMap& map, int shard, double a) {
  for (int k = 0; k < 64; ++k) {
    std::vector<double> row = {static_cast<double>(k), a};
    if (map.ShardOfRow(row) == shard) return row;
  }
  ADD_FAILURE() << "no key routes to shard " << shard;
  return {};
}

TEST(ShardedQuarantineTest, PoisonRowMidStreamMatchesUnsharded) {
  const RandomDb db = MakeRandomDb(42, Topology::kChain, /*fact_rows=*/30,
                                   /*domain=*/8, /*integer_values=*/true);
  const FeatureMap fm(db.query, db.features);
  const std::vector<UpdateBatch> base = MakeMixed(db, 40);
  const size_t mid = base.size() / 2;
  for (int shards : {2, 4}) {
    const ShardMap map = ShardMap::ForQuery(db.query, 0, shards);
    // The non-finite value sits in R0's non-key attribute `a`, so the
    // poison row routes by its key to the last shard.
    const std::vector<double> poison_row =
        RootRowOnShard(map, shards - 1, std::nan(""));
    UpdateBatch single;
    single.node = 0;
    single.rows = {poison_row};
    // The multi-row batch re-inserts every source root row that routes to
    // shard 0, so applying its valid rows would change the aggregate.
    UpdateBatch multi;
    multi.node = 0;
    const Relation& root = *db.query.relation(0);
    for (size_t r = 0; r < root.num_rows(); ++r) {
      std::vector<double> row = {root.AsDouble(r, 0), root.AsDouble(r, 1)};
      if (map.ShardOfRow(row) == 0) multi.rows.push_back(std::move(row));
    }
    ASSERT_GE(multi.rows.size(), 2u);
    multi.rows.insert(multi.rows.begin() + 1, poison_row);
    for (const UpdateBatch& poison : {single, multi}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " poison rows=" + std::to_string(poison.rows.size()));
      std::vector<UpdateBatch> stream = base;
      stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(mid),
                    poison);

      // The unsharded run rejects the same batch whole.
      ShadowDb shadow(db.query, 0);
      CovarFivm unsharded(&shadow, &fm, MakePolicy(2));
      {
        StreamScheduler<CovarFivm> scheduler(&shadow, &unsharded,
                                             SmallEpochOptions());
        for (size_t i = 0; i < stream.size(); ++i) {
          EXPECT_EQ(scheduler.Push(stream[i]).ok(), i != mid);
        }
        ASSERT_TRUE(scheduler.Finish().ok());
      }
      const CovarMatrix want = unsharded.Current();
      ASSERT_GT(want.count(), 0) << "empty final join; pick another seed";

      ShardedStreamOptions options;
      options.stream = SmallEpochOptions();
      ShardedStreamScheduler<CovarFivm> sched(db.query, 0, &fm, map,
                                              MakePolicy(2), options);
      ShardedSnapshotServer<CovarFivm> server(&sched);
      for (size_t i = 0; i < stream.size(); ++i) {
        const Status st = sched.Push(stream[i]);
        if (i == mid) {
          EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
        } else {
          ASSERT_TRUE(st.ok()) << "batch " << i << ": " << st.ToString();
        }
      }
      StreamStats total;
      ASSERT_TRUE(sched.Finish(&total).ok())
          << "rejection must not fail the fleet";

      // Quarantined once, whole.
      const std::vector<QuarantinedBatch> quarantined = sched.DrainQuarantine();
      ASSERT_EQ(quarantined.size(), 1u);
      EXPECT_EQ(quarantined[0].status.code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(quarantined[0].batch.rows.size(), poison.rows.size());
      EXPECT_EQ(total.rejected_batches, 1u);
      EXPECT_EQ(total.rejected_rows, poison.rows.size());
      EXPECT_EQ(total.quarantined_batches, 1u);
      EXPECT_NE(sched.MetricsText().find(
                    "relborg_stream_rejected_batches_total 1\n"),
                std::string::npos);

      // No shard committed any row of the batch.
      size_t root_rows = 0;
      for (int s = 0; s < shards; ++s) {
        root_rows += sched.shadow(s).committed_rows(0);
      }
      EXPECT_EQ(root_rows, shadow.committed_rows(0));

      // State and merged reads equal the unsharded run, bit for bit.
      ExpectCovarExact(sched.MergedCurrent(), want);
      ShardedSnapshotServer<CovarFivm>::MergedReadTxn txn;
      ASSERT_TRUE(server.BeginMergedSnapshot(&txn).ok());
      EXPECT_EQ(txn.global_batches(), stream.size());
      ExpectCovarExact(server.Covar(txn), want);
      server.EndSnapshot(&txn);
    }
  }
}

}  // namespace
}  // namespace relborg
