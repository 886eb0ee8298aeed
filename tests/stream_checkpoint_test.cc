// Crash-recovery differential suite for the stream checkpoint subsystem
// (src/stream/checkpoint.h + StreamScheduler::RestoreFromCheckpoint):
//
//   * Deterministic fault injection (util/fault.h) kills the pipeline at a
//     named stage boundary mid-run — including mid-epoch, leaving the
//     ShadowDb genuinely torn (some ranges committed, some lost).
//   * Recovery restores the last checkpoint into a FRESH ShadowDb +
//     strategy (the torn state is discarded with the failed engine) and
//     replays the stream tail from the checkpoint's batch cursor.
//   * The recovered run must be BIT-IDENTICAL to an uninterrupted serial
//     replay: covariance payloads, per-view group-bys (CovarFivm), the
//     row store, and the structural stats fields — for all three IVM
//     strategies, any ExecPolicy thread count, and every injected fault
//     site/hit, including while a SnapshotServer holds pins across the
//     crash.
//
// Fault-seed policy: RELBORG_FAULT_SEED (environment) pins the sweep to a
// single seed — the CI fault leg sweeps it; without it every (site, hit)
// pair of the first two hits is exercised. Seeds whose site never fires in
// a given configuration (e.g. the compute site under a non-speculating
// strategy) leave the faulted run complete, which recovery handles as the
// trivial tail — the differential still applies.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "gtest/gtest.h"
#include "ivm/ivm.h"
#include "ivm/update_stream.h"
#include "serve/snapshot_server.h"
#include "stream/checkpoint.h"
#include "stream/stream_scheduler.h"
#include "tests/test_util.h"
#include "util/fault.h"

namespace relborg {
namespace {

using testing::kPropertySeeds;
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

ExecPolicy MakePolicy(int threads) {
  ExecPolicy policy;
  policy.threads = threads;
  policy.partition_grain = 16;
  return policy;
}

// ShadowDb + feature map + strategy with tied lifetimes, built over an
// EMPTY database (the stream tests' convention: all rows arrive as
// updates).
template <typename Strategy>
struct Engine {
  ShadowDb shadow;
  FeatureMap fm;
  Strategy strategy;
  Engine(const RandomDb& db, int threads)
      : shadow(db.query, 0),
        fm(shadow.query(), db.features),
        strategy(&shadow, &fm, MakePolicy(threads)) {}
};

std::string CheckpointPath(const std::string& tag) {
  return ::testing::TempDir() + "relborg_ckpt_" +
#ifndef _WIN32
         std::to_string(::getpid()) + "_" +
#endif
         tag + ".bin";
}

void RemoveCheckpoint(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// Small epochs and a short checkpoint cadence so a modest stream crosses
// several checkpoints and faults land both before and after one.
StreamOptions CheckpointStreamOptions(const std::string& path) {
  StreamOptions options;
  options.epoch_batches = 4;
  options.epoch_rows = 256;
  options.checkpoint.path = path;
  options.checkpoint.every_epochs = 3;
  options.checkpoint.fsync = false;  // keep the suite I/O-light
  return options;
}

std::vector<UpdateBatch> MakeStream(const RandomDb& db, uint64_t seed) {
  MixedStreamOptions opts;
  opts.insert.batch_size = 17;
  opts.insert.seed = seed;
  opts.delete_probability = 0.3;
  return BuildMixedStream(db.query, opts);
}

// The full-state comparison behind "bit-identical": root aggregates, the
// row store (values AND signs in arrival order), and — for the strategy
// with served group-bys — every view's per-key count payload.
template <typename Strategy>
void ExpectEnginesIdentical(Engine<Strategy>& got, Engine<Strategy>& want) {
  ExpectCovarExact(got.strategy.Current(), want.strategy.Current());
  const int num_nodes = want.shadow.tree().num_nodes();
  for (int v = 0; v < num_nodes; ++v) {
    const Relation& g = got.shadow.relation(v);
    const Relation& w = want.shadow.relation(v);
    ASSERT_EQ(g.num_rows(), w.num_rows()) << "node " << v;
    ASSERT_EQ(g.num_attrs(), w.num_attrs()) << "node " << v;
    for (size_t row = 0; row < w.num_rows(); ++row) {
      EXPECT_EQ(got.shadow.sign(v, row), want.shadow.sign(v, row))
          << "node " << v << " row " << row;
      for (int a = 0; a < w.num_attrs(); ++a) {
        EXPECT_EQ(g.AsDouble(row, a), w.AsDouble(row, a))
            << "node " << v << " row " << row << " attr " << a;
      }
    }
  }
  if constexpr (std::is_same_v<Strategy, CovarFivm>) {
    auto got_pin = got.strategy.PinServe();
    auto want_pin = want.strategy.PinServe();
    for (int v = 0; v < num_nodes; ++v) {
      auto g = got.strategy.GroupByAt(v, got_pin);
      auto w = want.strategy.GroupByAt(v, want_pin);
      std::sort(g.begin(), g.end());
      std::sort(w.begin(), w.end());
      EXPECT_EQ(g, w) << "group-by of node " << v;
    }
    got.strategy.UnpinServe();
    want.strategy.UnpinServe();
  }
}

// One crash-recovery differential: reference replay, faulted run, restore
// into a fresh engine, tail replay, full-state comparison.
template <typename Strategy>
void CrashRecoveryDifferential(const RandomDb& db,
                               const std::vector<UpdateBatch>& stream,
                               int threads, int fault_seed,
                               const std::string& tag) {
  const std::string path = CheckpointPath(tag);
  RemoveCheckpoint(path);
  const StreamOptions options = CheckpointStreamOptions(path);

  // Uninterrupted serial reference; checkpointing off (it must not affect
  // results either way — the recovered run below has it on).
  Engine<Strategy> ref(db, /*threads=*/1);
  StreamOptions ref_options = options;
  ref_options.checkpoint = StreamCheckpointOptions{};
  const StreamStats ref_stats =
      ReplayStream(&ref.shadow, &ref.strategy, stream, ref_options);

  // Faulted run: arm, push everything (pushes after the failure are
  // reported and dropped — never aborted), finish, discard the engine.
  {
    Engine<Strategy> faulted(db, threads);
    StreamScheduler<Strategy> scheduler(&faulted.shadow, &faulted.strategy,
                                        options);
    FaultInjector::Global().ArmFromSeed(fault_seed);
    for (const UpdateBatch& batch : stream) (void)scheduler.Push(batch);
    const Status st = scheduler.Finish();
    FaultInjector::Global().Disarm();
    if (!st.ok()) {
      // A fired fault surfaces as the failing stage's status, never an
      // abort.
      EXPECT_EQ(st.code(), StatusCode::kAborted) << st.ToString();
      EXPECT_NE(st.message().find("injected fault"), std::string::npos)
          << st.ToString();
    }
  }

  // Recover: restore the last checkpoint into a FRESH engine and replay
  // the tail from the checkpoint's batch cursor. kNotFound (the fault hit
  // before the first checkpoint was written) degrades to a from-scratch
  // replay.
  Engine<Strategy> rec(db, threads);
  StreamCheckpointInfo info;
  const Status restored = StreamScheduler<Strategy>::RestoreFromCheckpoint(
      path, &rec.shadow, &rec.strategy, &info);
  size_t start = 0;
  const StreamCheckpointInfo* resume = nullptr;
  if (restored.ok()) {
    start = info.batches;
    resume = &info;
  } else {
    ASSERT_EQ(restored.code(), StatusCode::kNotFound) << restored.ToString();
  }
  ASSERT_LE(start, stream.size());
  StreamStats rec_stats;
  {
    StreamScheduler<Strategy> scheduler(&rec.shadow, &rec.strategy, options,
                                        resume);
    for (size_t i = start; i < stream.size(); ++i) {
      const Status st = scheduler.Push(stream[i]);
      ASSERT_TRUE(st.ok()) << "tail batch " << i << ": " << st.ToString();
    }
    const Status fin = scheduler.Finish(&rec_stats);
    ASSERT_TRUE(fin.ok()) << fin.ToString();
  }

  // Structural stats continue the uninterrupted run's exactly.
  EXPECT_EQ(rec_stats.batches, ref_stats.batches);
  EXPECT_EQ(rec_stats.rows, ref_stats.rows);
  EXPECT_EQ(rec_stats.epochs, ref_stats.epochs);
  EXPECT_EQ(rec_stats.ranges, ref_stats.ranges);
  ExpectEnginesIdentical(rec, ref);
  RemoveCheckpoint(path);
}

// RELBORG_FAULT_SEED pins the sweep to one seed (the CI fault leg);
// default covers the first two hits of every registered site.
std::vector<int> FaultSeedsToSweep() {
  if (const char* env = std::getenv("RELBORG_FAULT_SEED")) {
    return {std::atoi(env)};
  }
  std::vector<int> seeds;
  const int n = static_cast<int>(FaultSites().size());
  for (int s = 0; s < 2 * n; ++s) seeds.push_back(s);
  return seeds;
}

Topology TopologyFor(uint64_t seed) {
  switch (seed % 3) {
    case 0:
      return Topology::kStar;
    case 1:
      return Topology::kChain;
    default:
      return Topology::kBushy;
  }
}

class StreamCheckpointProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamCheckpointProperty, CrashRecoveryBitIdentical) {
  const uint64_t seed = GetParam();
  RandomDb db = MakeRandomDb(seed, TopologyFor(seed), /*fact_rows=*/40);
  const std::vector<UpdateBatch> stream = MakeStream(db, seed + 17);
  ASSERT_FALSE(stream.empty());
  const std::vector<int> fault_seeds = FaultSeedsToSweep();
  for (int threads : {1, 2, 4}) {
    for (int fault_seed : fault_seeds) {
      const std::string tag = "crash_s" + std::to_string(seed) + "_t" +
                              std::to_string(threads) + "_f" +
                              std::to_string(fault_seed);
      SCOPED_TRACE(tag);
      CrashRecoveryDifferential<CovarFivm>(db, stream, threads, fault_seed,
                                           tag + "_fivm");
      CrashRecoveryDifferential<HigherOrderIvm>(db, stream, threads,
                                                fault_seed, tag + "_hoi");
      CrashRecoveryDifferential<FirstOrderIvm>(db, stream, threads, fault_seed,
                                               tag + "_foi");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamCheckpointProperty,
                         ::testing::ValuesIn(kPropertySeeds));

// Checkpoint/restore with no fault at all: run to completion while
// checkpointing, then prove the LAST checkpoint + tail replay reproduces
// the run — the pure subsystem round trip.
TEST(StreamCheckpointTest, CompletedRunRestoresAndReplaysBitIdentical) {
  RandomDb db = MakeRandomDb(7, Topology::kChain, /*fact_rows=*/48);
  const std::vector<UpdateBatch> stream = MakeStream(db, 24);
  const std::string path = CheckpointPath("roundtrip");
  RemoveCheckpoint(path);
  const StreamOptions options = CheckpointStreamOptions(path);

  Engine<CovarFivm> full(db, /*threads=*/2);
  Status full_status;
  const StreamStats full_stats = ApplyStream(
      &full.shadow, &full.strategy, stream, options, &full_status);
  ASSERT_TRUE(full_status.ok()) << full_status.ToString();
  ASSERT_GT(full_stats.checkpoints_written, 0u);
  ASSERT_GT(full_stats.checkpoint_bytes, 0u);

  Engine<CovarFivm> rec(db, /*threads=*/2);
  StreamCheckpointInfo info;
  const Status restored = StreamScheduler<CovarFivm>::RestoreFromCheckpoint(
      path, &rec.shadow, &rec.strategy, &info);
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  ASSERT_GT(info.batches, 0u);
  ASSERT_LE(info.batches, stream.size());
  StreamOptions tail_options = options;
  tail_options.checkpoint = StreamCheckpointOptions{};
  StreamScheduler<CovarFivm> scheduler(&rec.shadow, &rec.strategy,
                                       tail_options, &info);
  for (size_t i = info.batches; i < stream.size(); ++i) {
    ASSERT_TRUE(scheduler.Push(stream[i]).ok());
  }
  StreamStats rec_stats;
  ASSERT_TRUE(scheduler.Finish(&rec_stats).ok());
  EXPECT_EQ(rec_stats.batches, full_stats.batches);
  EXPECT_EQ(rec_stats.rows, full_stats.rows);
  EXPECT_EQ(rec_stats.epochs, full_stats.epochs);
  EXPECT_EQ(rec_stats.ranges, full_stats.ranges);
  ExpectEnginesIdentical(rec, full);
  RemoveCheckpoint(path);
}

// The crash happens while a SnapshotServer client holds an open read
// transaction: the pinned snapshot stays readable through the failure,
// and a recovered pipeline (with a fresh server) serves the bit-identical
// final state.
TEST(StreamCheckpointTest, RecoveryBitIdenticalWhileServerHoldsPins) {
  RandomDb db = MakeRandomDb(42, Topology::kStar, /*fact_rows=*/48);
  const std::vector<UpdateBatch> stream = MakeStream(db, 59);
  const std::string path = CheckpointPath("serve_pins");
  RemoveCheckpoint(path);
  const StreamOptions options = CheckpointStreamOptions(path);

  Engine<CovarFivm> ref(db, /*threads=*/1);
  StreamOptions ref_options = options;
  ref_options.checkpoint = StreamCheckpointOptions{};
  ReplayStream(&ref.shadow, &ref.strategy, stream, ref_options);

  {
    Engine<CovarFivm> faulted(db, /*threads=*/4);
    StreamScheduler<CovarFivm> scheduler(&faulted.shadow, &faulted.strategy,
                                         options);
    SnapshotServer<CovarFivm> server(&scheduler, &faulted.shadow,
                                     &faulted.strategy);
    auto txn = server.BeginSnapshot();  // held across the crash
    // Seed 1 = site "stream/pre-publish-merge", hit 0: the applier dies
    // before its first fold while the server's pin is live.
    FaultInjector::Global().ArmFromSeed(1);
    for (const UpdateBatch& batch : stream) (void)scheduler.Push(batch);
    const Status st = scheduler.Finish();
    FaultInjector::Global().Disarm();
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.ToString().find("apply"), std::string::npos)
        << st.ToString();
    // The pinned (horizon 0, pre-crash) snapshot still reads cleanly.
    CovarMatrix pinned = server.Covar(txn);
    EXPECT_EQ(pinned.num_features(),
              static_cast<int>(db.features.size()));
    EXPECT_EQ(pinned.Moment(0, 0), 0.0);  // horizon 0 = empty database
    server.EndSnapshot(&txn);
  }

  Engine<CovarFivm> rec(db, /*threads=*/4);
  StreamCheckpointInfo info;
  const Status restored = StreamScheduler<CovarFivm>::RestoreFromCheckpoint(
      path, &rec.shadow, &rec.strategy, &info);
  size_t start = 0;
  const StreamCheckpointInfo* resume = nullptr;
  if (restored.ok()) {
    start = info.batches;
    resume = &info;
  } else {
    ASSERT_EQ(restored.code(), StatusCode::kNotFound) << restored.ToString();
  }
  {
    StreamScheduler<CovarFivm> scheduler(&rec.shadow, &rec.strategy, options,
                                         resume);
    SnapshotServer<CovarFivm> server(&scheduler, &rec.shadow, &rec.strategy);
    for (size_t i = start; i < stream.size(); ++i) {
      ASSERT_TRUE(scheduler.Push(stream[i]).ok());
    }
    ASSERT_TRUE(scheduler.Finish().ok());
    // The final snapshot covers the whole stream and serves the reference
    // bytes.
    auto txn = server.BeginSnapshot();
    ExpectCovarExact(server.Covar(txn), ref.strategy.Current());
    server.EndSnapshot(&txn);
  }
  ExpectEnginesIdentical(rec, ref);
  RemoveCheckpoint(path);
}

// A server built over a resumed scheduler, before any Push, serves the
// restored state: the initial snapshot's watermark is the restored
// committed rows, and its covariance the restored aggregate.
TEST(StreamCheckpointTest, ServerOverResumedSchedulerServesRestoredState) {
  RandomDb db = MakeRandomDb(7, Topology::kChain, /*fact_rows=*/48);
  const std::vector<UpdateBatch> stream = MakeStream(db, 24);
  const std::string path = CheckpointPath("serve_resume");
  RemoveCheckpoint(path);
  const StreamOptions options = CheckpointStreamOptions(path);
  {
    Engine<CovarFivm> full(db, /*threads=*/2);
    Status st;
    ApplyStream(&full.shadow, &full.strategy, stream, options, &st);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  Engine<CovarFivm> rec(db, /*threads=*/2);
  StreamCheckpointInfo info;
  const Status restored = StreamScheduler<CovarFivm>::RestoreFromCheckpoint(
      path, &rec.shadow, &rec.strategy, &info);
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  const CovarMatrix restored_covar = rec.strategy.Current();
  std::vector<size_t> committed(rec.shadow.tree().num_nodes());
  for (size_t v = 0; v < committed.size(); ++v) {
    committed[v] = rec.shadow.committed_rows(static_cast<int>(v));
  }
  ASSERT_GT(committed[0], 0u) << "the checkpoint restored no root rows";

  StreamOptions tail_options = options;
  tail_options.checkpoint = StreamCheckpointOptions{};
  StreamScheduler<CovarFivm> scheduler(&rec.shadow, &rec.strategy,
                                       tail_options, &info);
  SnapshotServer<CovarFivm> server(&scheduler, &rec.shadow, &rec.strategy);
  auto txn = server.BeginSnapshot();
  EXPECT_EQ(txn.watermark(), committed);
  ExpectCovarExact(server.Covar(txn), restored_covar);
  server.EndSnapshot(&txn);
  ASSERT_TRUE(scheduler.Finish().ok());
  RemoveCheckpoint(path);
}

// File-level failure modes of ReadCheckpointFile / RestoreFromCheckpoint:
// missing file, corrupt payload, truncation, strategy-tag mismatch.
TEST(StreamCheckpointTest, DetectsMissingCorruptAndMismatchedFiles) {
  RandomDb db = MakeRandomDb(3, Topology::kChain, /*fact_rows=*/32);
  const std::vector<UpdateBatch> stream = MakeStream(db, 11);
  const std::string path = CheckpointPath("corrupt");
  RemoveCheckpoint(path);
  // Tight cadence so even this short stream writes a checkpoint.
  auto write_checkpoint = [&](auto* engine) {
    StreamOptions options = CheckpointStreamOptions(path);
    options.epoch_batches = 2;
    options.checkpoint.every_epochs = 1;
    Status status;
    StreamStats stats =
        ApplyStream(&engine->shadow, &engine->strategy, stream, options,
                    &status);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_GT(stats.checkpoints_written, 0u);
  };

  {  // Missing file -> kNotFound.
    Engine<CovarFivm> e(db, 1);
    StreamCheckpointInfo info;
    EXPECT_EQ(StreamScheduler<CovarFivm>::RestoreFromCheckpoint(
                  path, &e.shadow, &e.strategy, &info)
                  .code(),
              StatusCode::kNotFound);
  }

  // Write a real checkpoint.
  {
    Engine<CovarFivm> e(db, 2);
    write_checkpoint(&e);
  }

  {  // Flip one payload byte -> kDataLoss (checksum).
    FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -1, SEEK_END);
    const int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_END);
    std::fputc(c ^ 0x5a, f);
    std::fclose(f);
    Engine<CovarFivm> e(db, 1);
    StreamCheckpointInfo info;
    EXPECT_EQ(StreamScheduler<CovarFivm>::RestoreFromCheckpoint(
                  path, &e.shadow, &e.strategy, &info)
                  .code(),
              StatusCode::kDataLoss);
  }

  // Rewrite a good checkpoint, then truncate it -> kDataLoss.
  {
    Engine<CovarFivm> e(db, 2);
    write_checkpoint(&e);
    FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_GT(size, 16);
    ASSERT_EQ(::truncate(path.c_str(), size / 2), 0);
    Engine<CovarFivm> e2(db, 1);
    StreamCheckpointInfo info;
    EXPECT_EQ(StreamScheduler<CovarFivm>::RestoreFromCheckpoint(
                  path, &e2.shadow, &e2.strategy, &info)
                  .code(),
              StatusCode::kDataLoss);
  }

  // Rewrite once more; restoring into the WRONG strategy is rejected
  // before any view state is touched.
  {
    Engine<CovarFivm> e(db, 2);
    write_checkpoint(&e);
    Engine<HigherOrderIvm> other(db, 1);
    StreamCheckpointInfo info;
    EXPECT_EQ(StreamScheduler<HigherOrderIvm>::RestoreFromCheckpoint(
                  path, &other.shadow, &other.strategy, &info)
                  .code(),
              StatusCode::kInvalidArgument);
  }
  RemoveCheckpoint(path);
}

// --- Corrupt stored lengths ------------------------------------------------
//
// Each crafted payload below is framed by WriteCheckpointFile with a valid
// checksum, so only a reader's length bound stands between a corrupt count
// and a huge allocation, an overflowing multiply or a 2^60-step read loop.
// Restore must fail with kDataLoss — no throw, no hang — in under a second.

// Writes `sink` as a checkpoint file and restores it into a fresh engine.
template <typename Strategy>
Status RestoreCrafted(const RandomDb& db, const std::string& path,
                      const ByteSink& sink) {
  EXPECT_TRUE(WriteCheckpointFile(path, sink, /*do_fsync=*/false).ok());
  Engine<Strategy> engine(db, 1);
  StreamCheckpointInfo info;
  WallTimer timer;
  const Status st = StreamScheduler<Strategy>::RestoreFromCheckpoint(
      path, &engine.shadow, &engine.strategy, &info);
  EXPECT_LT(timer.Seconds(), 1.0);
  RemoveCheckpoint(path);
  return st;
}

// The well-formed start of an empty run's checkpoint: the header with an
// all-zero watermark, then a ShadowDb prefix with no rows.
void AppendEmptyPrefix(const RandomDb& db, ByteSink* sink) {
  ShadowDb shadow(db.query, 0);
  StreamCheckpointInfo info;
  info.watermark.assign(shadow.tree().num_nodes(), 0);
  SerializeStreamCheckpointInfo(info, sink);
  SerializeShadowDbPrefix(shadow, info.watermark, sink);
}

TEST(StreamCheckpointCorruptLength, HeaderSizeFieldRejectedBeforeAllocating) {
  RandomDb db = MakeRandomDb(3, Topology::kStar, /*fact_rows=*/8);
  const std::string path = CheckpointPath("size_field");
  ByteSink sink;
  AppendEmptyPrefix(db, &sink);
  ASSERT_TRUE(WriteCheckpointFile(path, sink, /*do_fsync=*/false).ok());
  // The u64 size field follows the 8-byte magic; flipping a bit of its
  // byte 5 claims a payload of over 2^40 bytes.
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 8 + 5, SEEK_SET);
  const int c = std::fgetc(f);
  std::fseek(f, 8 + 5, SEEK_SET);
  std::fputc(c ^ 0x01, f);
  std::fclose(f);
  std::vector<uint8_t> payload;
  WallTimer timer;
  EXPECT_EQ(ReadCheckpointFile(path, &payload).code(), StatusCode::kDataLoss);
  EXPECT_LT(timer.Seconds(), 1.0);
  EXPECT_TRUE(payload.empty());
  RemoveCheckpoint(path);
}

TEST(StreamCheckpointCorruptLength, WatermarkCount) {
  RandomDb db = MakeRandomDb(3, Topology::kStar, /*fact_rows=*/8);
  // 2^61 + 1 overflows count * 8; 2^40 does not, but is far more than the
  // payload holds.
  for (const uint64_t n : {(uint64_t{1} << 61) + 1, uint64_t{1} << 40}) {
    SCOPED_TRACE(::testing::Message() << "watermark count " << n);
    ByteSink sink;
    for (int field = 0; field < 4; ++field) sink.U64(0);
    sink.U64(n);
    sink.U64(0);
    EXPECT_EQ(RestoreCrafted<CovarFivm>(db, CheckpointPath("watermark"), sink)
                  .code(),
              StatusCode::kDataLoss);
  }
}

TEST(StreamCheckpointCorruptLength, ShadowDbPrefixRows) {
  RandomDb db = MakeRandomDb(3, Topology::kStar, /*fact_rows=*/8);
  ShadowDb shadow(db.query, 0);
  StreamCheckpointInfo info;
  info.watermark.assign(shadow.tree().num_nodes(), 0);
  ByteSink sink;
  SerializeStreamCheckpointInfo(info, &sink);
  sink.U32(static_cast<uint32_t>(shadow.tree().num_nodes()));
  // rows * (arity + 1) * 8 wraps to 0 for rows = 2^61.
  sink.U64(uint64_t{1} << 61);
  sink.U32(static_cast<uint32_t>(shadow.relation(0).num_attrs()));
  EXPECT_EQ(RestoreCrafted<CovarFivm>(db, CheckpointPath("prefix"), sink)
                .code(),
            StatusCode::kDataLoss);
}

TEST(StreamCheckpointCorruptLength, CovarFivmViewCount) {
  RandomDb db = MakeRandomDb(3, Topology::kStar, /*fact_rows=*/8);
  ByteSink sink;
  AppendEmptyPrefix(db, &sink);
  sink.U32(CovarFivm::kCheckpointTag);
  // count * 8 * (1 + stride) wraps to 0 for count = 2^61.
  sink.U64(uint64_t{1} << 61);
  EXPECT_EQ(RestoreCrafted<CovarFivm>(db, CheckpointPath("fivm_view"), sink)
                .code(),
            StatusCode::kDataLoss);
}

TEST(StreamCheckpointCorruptLength, HigherOrderIvmViewCount) {
  RandomDb db = MakeRandomDb(3, Topology::kStar, /*fact_rows=*/8);
  ByteSink sink;
  AppendEmptyPrefix(db, &sink);
  sink.U32(HigherOrderIvm::kCheckpointTag);
  // count * 16 wraps to 0 for count = 2^60.
  sink.U64(uint64_t{1} << 60);
  EXPECT_EQ(RestoreCrafted<HigherOrderIvm>(db, CheckpointPath("hoivm_view"),
                                           sink)
                .code(),
            StatusCode::kDataLoss);
}

}  // namespace
}  // namespace relborg
