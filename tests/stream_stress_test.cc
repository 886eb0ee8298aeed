// Randomized differential stress suite for the watermark-overlapped
// stream scheduler (src/stream/).
//
// Every case draws a full pipeline configuration from the case seed —
// topology, stream shape (mixed insert/delete, incl. full retractions and
// empty batches), epoch sealing bounds, queue capacities (which also set
// the compute stage's run-ahead depth), thread count — runs all three IVM
// strategies through the async scheduler, and demands BIT-IDENTITY with
// the serial ReplayStream reference plus identical structural stats. The
// point is adversarial coverage of the overlap machinery: tiny queues
// force backpressure, tiny epochs force commit churn, whole-stream epochs
// force one giant coalesced fold, deep compute run-ahead leaves the ranges
// that conflict with in-flight folds to the applier's serial compute while
// the rest speculate, and the commit gate + view gates + per-range
// watermarks must keep every interleaving invisible in the results. The
// validation-miss path itself is pinned directly in tests/ivm_test.cc
// (SpeculativeRangeDelta). The suite runs in the TSan CI leg under the
// `stream-stress` CTest label.
//
// Failures involving scheduler interleavings reproduce deterministically
// through SteppedStreamPipeline: the stepped properties below drive
// random stage traces, print the trace on failure, and the trace-replay
// property pins that replaying a recorded trace reproduces the schedule
// (and its stats) exactly.
//
// Seeds follow the kPropertySeeds policy of tests/test_util.h: 6 seeds x
// 9 drawn configurations = 54 randomized cases per property, each
// replayed exactly from the test name.
#include <cstdint>
#include <string>
#include <vector>

#include "core/exec_policy.h"
#include "gtest/gtest.h"
#include "ivm/ivm.h"
#include "ivm/update_stream.h"
#include "stream/stream_scheduler.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace relborg {
namespace {

using testing::MakeRandomDb;
using testing::RandomDb;
using testing::Topology;

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

struct StressConfig {
  Topology topology = Topology::kStar;
  int fact_rows = 30;
  size_t batch_size = 7;
  double delete_probability = 0.3;
  double full_retraction_probability = 0.15;
  double empty_batch_probability = 0.0;
  StreamOptions options;
  int threads = 1;
};

// Draws case `index` of `seed`'s configuration sequence. The first four
// indices pin the acceptance grid's epoch sizes (1 row, 1 batch, the
// defaults, whole-stream); the rest are free draws.
StressConfig DrawConfig(uint64_t seed, int index) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(index) + 1);
  StressConfig cfg;
  const Topology topologies[] = {Topology::kStar, Topology::kChain,
                                 Topology::kBushy};
  cfg.topology = topologies[rng.Below(3)];
  cfg.fact_rows = static_cast<int>(rng.Range(12, 40));
  cfg.batch_size = static_cast<size_t>(rng.Range(3, 13));
  cfg.delete_probability = rng.Uniform(0.1, 0.5);
  cfg.full_retraction_probability = rng.Uniform(0.0, 0.4);
  switch (index) {
    case 0:  // 1-row epochs: maximal commit churn.
      cfg.options.epoch_rows = 1;
      break;
    case 1:  // single-batch epochs: the classic per-batch schedule.
      cfg.options.epoch_batches = 1;
      break;
    case 2:  // library defaults.
      break;
    case 3:  // whole-stream epoch: one giant coalesced fold.
      cfg.options.epoch_rows = SIZE_MAX;
      cfg.options.epoch_batches = SIZE_MAX;
      break;
    default:
      cfg.options.epoch_rows = static_cast<size_t>(rng.Range(8, 96));
      cfg.options.epoch_batches = static_cast<size_t>(rng.Range(2, 8));
      break;
  }
  // Queue capacities from starved (1) to roomy; tiny values exercise every
  // backpressure and gate path. The epoch-queue depth also bounds the
  // compute stage's run-ahead, from lockstep (1) to deep (4).
  const size_t row_caps[] = {1, 16, 4096};
  cfg.options.max_queued_rows = row_caps[rng.Below(3)];
  cfg.options.max_queued_epochs = static_cast<size_t>(rng.Range(1, 4));
  // Occasionally inject empty batches so zero-range epochs flow through
  // the pipeline mid-stream.
  cfg.empty_batch_probability = rng.Below(2) == 0 ? 0.0 : 0.2;
  const int thread_choices[] = {1, 2, 4};
  cfg.threads = thread_choices[rng.Below(3)];
  return cfg;
}

std::vector<UpdateBatch> MakeStressStream(const RandomDb& db, uint64_t seed,
                                          const StressConfig& cfg) {
  MixedStreamOptions opts;
  opts.insert.batch_size = cfg.batch_size;
  opts.insert.seed = seed;
  opts.insert.order =
      seed % 2 == 0 ? StreamOrder::kRoundRobin : StreamOrder::kProportional;
  opts.delete_probability = cfg.delete_probability;
  opts.full_retraction_probability = cfg.full_retraction_probability;
  opts.empty_batch_probability = cfg.empty_batch_probability;
  return BuildMixedStream(db.query, opts);
}

ExecPolicy MakePolicy(int threads) {
  ExecPolicy policy;
  policy.threads = threads;
  policy.partition_grain = 16;  // small batches must still partition
  return policy;
}

// Runs `stream` through one strategy (async scheduler or serial replay)
// and returns the maintained covariance batch.
template <typename Strategy>
CovarMatrix RunStream(const RandomDb& db,
                      const std::vector<UpdateBatch>& stream, bool async,
                      int threads, const StreamOptions& options,
                      StreamStats* stats) {
  ShadowDb shadow(db.query, 0);
  FeatureMap fm(shadow.query(), db.features);
  Strategy strategy(&shadow, &fm, MakePolicy(threads));
  *stats = async ? ApplyStream(&shadow, &strategy, stream, options)
                 : ReplayStream(&shadow, &strategy, stream, options);
  return strategy.Current();
}

template <typename Strategy>
void CheckDifferential(const RandomDb& db,
                       const std::vector<UpdateBatch>& stream,
                       const StressConfig& cfg) {
  StreamStats replay_stats;
  const CovarMatrix reference = RunStream<Strategy>(
      db, stream, /*async=*/false, /*threads=*/1, cfg.options, &replay_stats);
  StreamStats async_stats;
  const CovarMatrix async = RunStream<Strategy>(
      db, stream, /*async=*/true, cfg.threads, cfg.options, &async_stats);
  ExpectCovarExact(async, reference);
  // Structural stats are a pure function of (stream, options).
  EXPECT_EQ(async_stats.batches, replay_stats.batches);
  EXPECT_EQ(async_stats.rows, replay_stats.rows);
  EXPECT_EQ(async_stats.epochs, replay_stats.epochs);
  EXPECT_EQ(async_stats.ranges, replay_stats.ranges);
  EXPECT_EQ(async_stats.rows, StreamRowCount(stream));
  // Every speculated range settles exactly once at its serial point.
  EXPECT_EQ(async_stats.speculation_hits + async_stats.speculation_misses,
            async_stats.speculated_ranges);
  EXPECT_LE(async_stats.speculated_ranges, async_stats.ranges);
}

class StreamStressSuite : public ::testing::TestWithParam<uint64_t> {};

// The headline property: for 9 drawn configurations per seed (54 cases
// over the suite) and all three strategies, the watermark-overlapped
// async pipeline is bit-identical to the serial replay.
TEST_P(StreamStressSuite, AsyncBitIdenticalAcrossRandomConfigs) {
  const uint64_t seed = GetParam();
  for (int index = 0; index < 9; ++index) {
    SCOPED_TRACE(::testing::Message() << "config index " << index);
    const StressConfig cfg = DrawConfig(seed, index);
    RandomDb db = MakeRandomDb(seed + index, cfg.topology, cfg.fact_rows);
    const std::vector<UpdateBatch> stream =
        MakeStressStream(db, seed + 31 * index, cfg);
    ASSERT_FALSE(stream.empty());
    CheckDifferential<CovarFivm>(db, stream, cfg);
    CheckDifferential<HigherOrderIvm>(db, stream, cfg);
    CheckDifferential<FirstOrderIvm>(db, stream, cfg);
  }
}

// Watermark invariants observed live from the producer thread while the
// pipeline runs: per-node committed-row watermarks only ever grow
// (committed_rows is an acquire-published monotone counter), and after
// Finish every watermark equals the relation's row count — nothing stays
// staged-but-invisible.
TEST_P(StreamStressSuite, WatermarksAreMonotoneUnderLoad) {
  const uint64_t seed = GetParam();
  const StressConfig cfg = DrawConfig(seed, /*index=*/4);
  RandomDb db = MakeRandomDb(seed, cfg.topology, cfg.fact_rows);
  const std::vector<UpdateBatch> stream = MakeStressStream(db, seed + 7, cfg);
  ShadowDb shadow(db.query, 0);
  FeatureMap fm(shadow.query(), db.features);
  CovarFivm fivm(&shadow, &fm, MakePolicy(cfg.threads));
  const int num_nodes = shadow.tree().num_nodes();
  std::vector<size_t> last(num_nodes, 0);
  StreamScheduler<CovarFivm> scheduler(&shadow, &fivm, cfg.options);
  for (const UpdateBatch& batch : stream) {
    scheduler.Push(batch);
    for (int v = 0; v < num_nodes; ++v) {
      const size_t w = shadow.committed_rows(v);
      EXPECT_GE(w, last[v]) << "watermark of node " << v << " regressed";
      last[v] = w;
    }
  }
  StreamStats stats;
  ASSERT_TRUE(scheduler.Finish(&stats).ok());
  for (int v = 0; v < num_nodes; ++v) {
    EXPECT_EQ(shadow.committed_rows(v), shadow.relation(v).num_rows());
  }
  EXPECT_EQ(stats.rows, StreamRowCount(stream));
  // The committer always finishes an epoch before the applier maintains
  // it, so its lead is at least one epoch.
  if (stats.epochs > 0) {
    EXPECT_GE(stats.commit_ahead_max_epochs, 1u);
  }
}

// FirstOrderIvm has no speculative per-range API (its delta-join
// re-enumeration reads the whole database): the compute stage must
// forward its epochs untouched — the serial PR-5 schedule — while the
// results stay bit-identical to the replay.
TEST_P(StreamStressSuite, FirstOrderFallsBackToSerialSchedule) {
  const uint64_t seed = GetParam();
  StressConfig cfg = DrawConfig(seed, /*index=*/7);
  RandomDb db = MakeRandomDb(seed + 5, cfg.topology, cfg.fact_rows);
  const std::vector<UpdateBatch> stream =
      MakeStressStream(db, seed + 23, cfg);
  StreamStats replay_stats, async_stats;
  const CovarMatrix reference = RunStream<FirstOrderIvm>(
      db, stream, /*async=*/false, /*threads=*/1, cfg.options, &replay_stats);
  const CovarMatrix async = RunStream<FirstOrderIvm>(
      db, stream, /*async=*/true, cfg.threads, cfg.options, &async_stats);
  ExpectCovarExact(async, reference);
  EXPECT_EQ(async_stats.epochs, replay_stats.epochs);
  EXPECT_EQ(async_stats.speculated_ranges, 0u);
  EXPECT_EQ(async_stats.speculation_hits, 0u);
  EXPECT_EQ(async_stats.speculation_misses, 0u);
}

// Zero-range epochs (empty batches sealing alone under epoch_batches == 1)
// flow through commit, compute and apply as no-ops that still retire in
// order — regression for the empty-epoch edge under compute overlap.
TEST_P(StreamStressSuite, ZeroRangeEpochsUnderComputeOverlap) {
  const uint64_t seed = GetParam();
  StressConfig cfg = DrawConfig(seed, /*index=*/8);
  cfg.empty_batch_probability = 0.5;
  cfg.options.epoch_rows = 8192;
  cfg.options.epoch_batches = 1;  // every empty batch seals a zero-range epoch
  RandomDb db = MakeRandomDb(seed + 2, cfg.topology, cfg.fact_rows);
  const std::vector<UpdateBatch> stream =
      MakeStressStream(db, seed + 29, cfg);
  CheckDifferential<CovarFivm>(db, stream, cfg);
  CheckDifferential<HigherOrderIvm>(db, stream, cfg);
}

// Full retractions under compute overlap: a delete batch cancelling a
// relation's whole live multiset can zero an epoch's net delta while
// later epochs have already speculated against the pre-retraction views —
// the version check must invalidate exactly those and recompute.
TEST_P(StreamStressSuite, FullRetractionUnderComputeOverlap) {
  const uint64_t seed = GetParam();
  StressConfig cfg = DrawConfig(seed, /*index=*/9);
  cfg.delete_probability = 0.5;
  cfg.full_retraction_probability = 1.0;
  RandomDb db = MakeRandomDb(seed + 19, cfg.topology, cfg.fact_rows);
  const std::vector<UpdateBatch> stream =
      MakeStressStream(db, seed + 37, cfg);
  CheckDifferential<CovarFivm>(db, stream, cfg);
  CheckDifferential<HigherOrderIvm>(db, stream, cfg);
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, StreamStressSuite,
                         ::testing::ValuesIn(relborg::testing::kPropertySeeds));

// The acceptance grid, pinned deterministically: epoch sizes {1 row,
// 1 batch, defaults, whole-stream} x ExecPolicy{1,2,4} x all three
// strategies on a mixed stream — the async path must reproduce the serial
// replay bit for bit in every cell.
class StreamEpochGrid : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamEpochGrid, BitIdenticalInEveryCell) {
  const uint64_t seed = GetParam();
  RandomDb db = MakeRandomDb(seed, Topology::kBushy, /*fact_rows=*/25);
  MixedStreamOptions mixed;
  mixed.insert.batch_size = 9;
  mixed.insert.seed = seed;
  mixed.delete_probability = 0.3;
  mixed.full_retraction_probability = 0.2;
  const std::vector<UpdateBatch> stream = BuildMixedStream(db.query, mixed);
  StreamOptions sizes[4];
  sizes[0].epoch_rows = 1;
  sizes[1].epoch_batches = 1;
  // sizes[2]: library defaults.
  sizes[3].epoch_rows = SIZE_MAX;
  sizes[3].epoch_batches = SIZE_MAX;
  for (int s = 0; s < 4; ++s) {
    SCOPED_TRACE(::testing::Message() << "epoch size cell " << s);
    StressConfig cfg;
    cfg.options = sizes[s];
    StreamStats stats;
    const CovarMatrix fivm_ref = RunStream<CovarFivm>(
        db, stream, /*async=*/false, /*threads=*/1, cfg.options, &stats);
    const CovarMatrix higher_ref = RunStream<HigherOrderIvm>(
        db, stream, /*async=*/false, /*threads=*/1, cfg.options, &stats);
    const CovarMatrix first_ref = RunStream<FirstOrderIvm>(
        db, stream, /*async=*/false, /*threads=*/1, cfg.options, &stats);
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE(::testing::Message() << "threads " << threads);
      ExpectCovarExact(RunStream<CovarFivm>(db, stream, /*async=*/true,
                                            threads, cfg.options, &stats),
                       fivm_ref);
      ExpectCovarExact(RunStream<HigherOrderIvm>(db, stream, /*async=*/true,
                                                 threads, cfg.options, &stats),
                       higher_ref);
      ExpectCovarExact(RunStream<FirstOrderIvm>(db, stream, /*async=*/true,
                                                threads, cfg.options, &stats),
                       first_ref);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomDbs, StreamEpochGrid,
    ::testing::ValuesIn(relborg::testing::kPropertySeedsSmall));

// --- Deterministic scheduler-interleaving harness -------------------------
//
// SteppedStreamPipeline advances the exact stage code paths of the
// threaded scheduler one explicit step at a time, so any interleaving the
// threads can produce corresponds to a replayable stage trace. The
// properties below drive random traces (printing the trace on failure —
// paste it into ReplaySteps to reproduce a failure exactly) and pin that
// trace replay is deterministic, including the speculation stats.

PipelineStep StepOf(char c) {
  switch (c) {
    case 'A':
      return PipelineStep::kAssemble;
    case 'C':
      return PipelineStep::kCommit;
    case 'X':
      return PipelineStep::kCompute;
    case 'M':
      return PipelineStep::kApply;
    default:
      ADD_FAILURE() << "bad trace letter '" << c << "'";
      return PipelineStep::kAssemble;
  }
}

// Drives `pipeline` with uniformly random stage picks until drained.
// Failed steps change nothing and leave no trace entry, so the recorded
// trace alone reproduces the run.
template <typename Strategy>
void DriveRandomSteps(SteppedStreamPipeline<Strategy>* pipeline, Rng* rng) {
  static constexpr PipelineStep kAll[] = {
      PipelineStep::kAssemble, PipelineStep::kCommit, PipelineStep::kCompute,
      PipelineStep::kApply};
  while (!pipeline->drained()) pipeline->Step(kAll[rng->Below(4)]);
}

// Replays a recorded trace; every step of a valid trace must progress.
template <typename Strategy>
void ReplaySteps(SteppedStreamPipeline<Strategy>* pipeline,
                 const std::string& trace) {
  for (size_t i = 0; i < trace.size(); ++i) {
    ASSERT_TRUE(pipeline->Step(StepOf(trace[i])))
        << "trace step " << i << " ('" << trace[i] << "') did not progress";
  }
  EXPECT_TRUE(pipeline->drained());
}

template <typename Strategy>
struct SteppedRun {
  CovarMatrix covar{0, CovarPayload{}};
  std::string trace;
  StreamStats stats;
};

template <typename Strategy>
SteppedRun<Strategy> RunStepped(const RandomDb& db,
                                const std::vector<UpdateBatch>& stream,
                                const StressConfig& cfg, Rng* step_rng,
                                const std::string* replay_trace) {
  ShadowDb shadow(db.query, 0);
  FeatureMap fm(shadow.query(), db.features);
  Strategy strategy(&shadow, &fm, MakePolicy(cfg.threads));
  SteppedStreamPipeline<Strategy> pipeline(&shadow, &strategy, stream,
                                           cfg.options);
  if (replay_trace != nullptr) {
    ReplaySteps(&pipeline, *replay_trace);
  } else {
    DriveRandomSteps(&pipeline, step_rng);
  }
  SteppedRun<Strategy> run;
  run.covar = strategy.Current();
  run.trace = pipeline.trace();
  run.stats = pipeline.stats();
  return run;
}

// Random stage traces are bit-identical to the serial replay — the
// stepped twin of AsyncBitIdenticalAcrossRandomConfigs, with the schedule
// under explicit deterministic control instead of thread timing.
TEST_P(StreamStressSuite, SteppedPipelineRandomTracesAreBitIdentical) {
  const uint64_t seed = GetParam();
  for (int index = 0; index < 3; ++index) {
    StressConfig cfg = DrawConfig(seed, /*index=*/11 + index);
    RandomDb db =
        MakeRandomDb(seed + 51 + index, cfg.topology, cfg.fact_rows);
    const std::vector<UpdateBatch> stream =
        MakeStressStream(db, seed + 53 + index, cfg);
    StreamStats replay_stats;
    const CovarMatrix reference =
        RunStream<CovarFivm>(db, stream, /*async=*/false, /*threads=*/1,
                             cfg.options, &replay_stats);
    Rng step_rng(seed * 1000003ull + static_cast<uint64_t>(index));
    const SteppedRun<CovarFivm> run =
        RunStepped<CovarFivm>(db, stream, cfg, &step_rng, nullptr);
    SCOPED_TRACE(::testing::Message()
                 << "config index " << 11 + index << ", pipeline trace: "
                 << run.trace);
    ExpectCovarExact(run.covar, reference);
    EXPECT_EQ(run.stats.batches, replay_stats.batches);
    EXPECT_EQ(run.stats.rows, replay_stats.rows);
    EXPECT_EQ(run.stats.epochs, replay_stats.epochs);
    EXPECT_EQ(run.stats.ranges, replay_stats.ranges);
    EXPECT_EQ(run.stats.speculation_hits + run.stats.speculation_misses,
              run.stats.speculated_ranges);
  }
}

// Replaying a recorded trace against a fresh pipeline reproduces the
// schedule exactly: every step progresses, and the results AND the
// timing-free stats (including which ranges speculated, hit and missed)
// come out identical — this is what makes a dumped trace a reproducer.
TEST_P(StreamStressSuite, SteppedPipelineTraceReplayIsExact) {
  const uint64_t seed = GetParam();
  const StressConfig cfg = DrawConfig(seed, /*index=*/14);
  RandomDb db = MakeRandomDb(seed + 61, cfg.topology, cfg.fact_rows);
  const std::vector<UpdateBatch> stream =
      MakeStressStream(db, seed + 67, cfg);
  Rng step_rng(seed * 2000003ull + 5);
  const SteppedRun<CovarFivm> recorded =
      RunStepped<CovarFivm>(db, stream, cfg, &step_rng, nullptr);
  SCOPED_TRACE(::testing::Message() << "pipeline trace: " << recorded.trace);
  const SteppedRun<CovarFivm> replayed =
      RunStepped<CovarFivm>(db, stream, cfg, nullptr, &recorded.trace);
  EXPECT_EQ(replayed.trace, recorded.trace);
  ExpectCovarExact(replayed.covar, recorded.covar);
  EXPECT_EQ(replayed.stats.batches, recorded.stats.batches);
  EXPECT_EQ(replayed.stats.rows, recorded.stats.rows);
  EXPECT_EQ(replayed.stats.epochs, recorded.stats.epochs);
  EXPECT_EQ(replayed.stats.ranges, recorded.stats.ranges);
  EXPECT_EQ(replayed.stats.speculated_ranges,
            recorded.stats.speculated_ranges);
  EXPECT_EQ(replayed.stats.speculation_hits, recorded.stats.speculation_hits);
  EXPECT_EQ(replayed.stats.speculation_misses,
            recorded.stats.speculation_misses);
  EXPECT_EQ(replayed.stats.compute_overlap_epochs_max,
            recorded.stats.compute_overlap_epochs_max);
}

// A maximally-eager compute schedule: run every stage as far ahead as the
// caps allow before each maintain. This is the adversarial interleaving
// for speculation (deepest run-ahead, most stale snapshots), pinned here
// as a deterministic trace via Drain's fixed round-robin order.
TEST_P(StreamStressSuite, SteppedPipelineDrainIsBitIdentical) {
  const uint64_t seed = GetParam();
  const StressConfig cfg = DrawConfig(seed, /*index=*/15);
  RandomDb db = MakeRandomDb(seed + 71, cfg.topology, cfg.fact_rows);
  const std::vector<UpdateBatch> stream =
      MakeStressStream(db, seed + 73, cfg);
  StreamStats replay_stats;
  const CovarMatrix reference = RunStream<CovarFivm>(
      db, stream, /*async=*/false, /*threads=*/1, cfg.options, &replay_stats);
  ShadowDb shadow(db.query, 0);
  FeatureMap fm(shadow.query(), db.features);
  CovarFivm fivm(&shadow, &fm, MakePolicy(cfg.threads));
  SteppedStreamPipeline<CovarFivm> pipeline(&shadow, &fivm, stream,
                                            cfg.options);
  pipeline.Drain();
  SCOPED_TRACE(::testing::Message()
               << "pipeline trace: " << pipeline.trace());
  ExpectCovarExact(fivm.Current(), reference);
  EXPECT_EQ(pipeline.stats().epochs, replay_stats.epochs);
  EXPECT_EQ(pipeline.stats().ranges, replay_stats.ranges);
  // Drain's round-robin keeps at most one epoch past the compute stage, so
  // only same-epoch conflicts leave a range to the applier: each epoch's
  // first range always speculates, and with no cross-epoch writes every
  // speculation hits — this pins that the speculative path actually runs
  // (nothing vacuous).
  EXPECT_GT(pipeline.stats().speculated_ranges, 0u);
  EXPECT_EQ(pipeline.stats().speculation_hits,
            pipeline.stats().speculated_ranges);
}

// max_queued_epochs == 0 means depth 1 for every epoch queue, in the
// threaded scheduler (BoundedChannel clamps) and in its stepped twin alike:
// both drain bit-identical to the serial replay.
TEST_P(StreamStressSuite, ZeroEpochQueueDepthActsAsOne) {
  const uint64_t seed = GetParam();
  StressConfig cfg = DrawConfig(seed, /*index=*/16);
  cfg.options.max_queued_epochs = 0;
  RandomDb db = MakeRandomDb(seed + 79, cfg.topology, cfg.fact_rows);
  const std::vector<UpdateBatch> stream =
      MakeStressStream(db, seed + 83, cfg);
  StreamStats replay_stats;
  const CovarMatrix reference = RunStream<CovarFivm>(
      db, stream, /*async=*/false, /*threads=*/1, cfg.options, &replay_stats);
  ShadowDb shadow(db.query, 0);
  FeatureMap fm(shadow.query(), db.features);
  CovarFivm fivm(&shadow, &fm, MakePolicy(cfg.threads));
  SteppedStreamPipeline<CovarFivm> pipeline(&shadow, &fivm, stream,
                                            cfg.options);
  pipeline.Drain();
  ExpectCovarExact(fivm.Current(), reference);
  EXPECT_EQ(pipeline.stats().epochs, replay_stats.epochs);
  CheckDifferential<CovarFivm>(db, stream, cfg);
}

// Sibling ranges in one view group: a star stream whose epochs carry two
// or more dimension ranges (the dimensions share the deepest view group),
// maintained one range at a time under each range's own horizon, agrees
// bit for bit across the serial replay, the threaded scheduler at 1, 2 and
// 4 threads and a random stepped trace at each thread count.
template <typename Strategy>
void ExpectSchedulesMatchReplay(const RandomDb& db,
                                const std::vector<UpdateBatch>& stream,
                                StressConfig cfg, uint64_t seed) {
  StreamStats stats;
  const CovarMatrix reference = RunStream<Strategy>(
      db, stream, /*async=*/false, /*threads=*/1, cfg.options, &stats);
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    ExpectCovarExact(RunStream<Strategy>(db, stream, /*async=*/true, threads,
                                         cfg.options, &stats),
                     reference);
    cfg.threads = threads;
    Rng step_rng(seed * 3000017ull + static_cast<uint64_t>(threads));
    const SteppedRun<Strategy> run =
        RunStepped<Strategy>(db, stream, cfg, &step_rng, nullptr);
    SCOPED_TRACE(::testing::Message() << "pipeline trace: " << run.trace);
    ExpectCovarExact(run.covar, reference);
  }
}

TEST_P(StreamEpochGrid, SiblingRangesInOneViewGroupAreBitIdentical) {
  const uint64_t seed = GetParam();
  RandomDb db = MakeRandomDb(seed, Topology::kStar, /*fact_rows=*/40);
  StressConfig cfg;
  cfg.batch_size = 5;
  cfg.options.epoch_rows = 96;
  cfg.options.epoch_batches = 5;
  const std::vector<UpdateBatch> stream = MakeStressStream(db, seed + 3, cfg);
  // The case under test must really occur: some sealed epoch holds two
  // ranges of one view group (ranges are sorted by group, so they are
  // adjacent).
  ShadowDb shadow(db.query, 0);
  const std::vector<int> group_of = ViewGroupOf(shadow.tree());
  EpochAssembler assembler(&shadow, cfg.options);
  StreamEpoch epoch;
  size_t shared_group_epochs = 0;
  auto inspect = [&] {
    for (size_t i = 1; i < epoch.ranges.size(); ++i) {
      if (group_of[epoch.ranges[i].chunk.node] ==
          group_of[epoch.ranges[i - 1].chunk.node]) {
        ++shared_group_epochs;
        break;
      }
    }
    stream_internal::CommitEpoch(&shadow, &epoch);
    epoch = StreamEpoch();
  };
  for (const UpdateBatch& batch : stream) {
    if (assembler.Add(batch, &epoch)) inspect();
  }
  if (assembler.Flush(&epoch)) inspect();
  ASSERT_GT(shared_group_epochs, 0u);
  ExpectSchedulesMatchReplay<CovarFivm>(db, stream, cfg, seed);
  ExpectSchedulesMatchReplay<HigherOrderIvm>(db, stream, cfg, seed);
}

}  // namespace
}  // namespace relborg
