// Tests for the observability subsystem (src/obs/): metrics registry
// semantics and exposition format, the lock-free trace ring + Chrome
// export, structured events — and the two pipeline-level contracts:
//
//  1. StreamStats is a PROJECTION of the metrics registry: after a real
//     scheduler run, every flat-struct field equals the value re-derived
//     from the registry instruments, field by field.
//  2. Tracing never perturbs what the pipeline computes: the maintained
//     covariance is bit-identical with tracing on and off.
//
// The concurrency cases (counter hammering, recording racing TailString)
// run in the TSan CI leg (ci.sh matches the Obs* suites in its regex).
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/groupby_engine.h"
#include "gtest/gtest.h"
#include "ivm/ivm.h"
#include "ivm/update_stream.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/snapshot_server.h"
#include "stream/stream_scheduler.h"
#include "tests/test_util.h"

namespace relborg {
namespace {

using testing::MakeRandomDb;
using testing::RandomDb;
using testing::Topology;

// --- Metrics -------------------------------------------------------------

TEST(ObsMetrics, CounterAndGaugeBasics) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("relborg_test_total", "help");
  EXPECT_EQ(c->Value(), 0.0);
  c->Inc();
  c->Inc(2.5);
  EXPECT_EQ(c->Value(), 3.5);

  obs::Gauge* g = reg.GetGauge("relborg_test_gauge", "help");
  g->Set(7.0);
  EXPECT_EQ(g->Value(), 7.0);
  g->SetMax(3.0);  // no-op: smaller
  EXPECT_EQ(g->Value(), 7.0);
  g->SetMax(11.0);
  EXPECT_EQ(g->Value(), 11.0);
}

TEST(ObsMetrics, RegistryIsIdempotentPerName) {
  obs::MetricsRegistry reg;
  obs::Counter* a = reg.GetCounter("relborg_test_total", "help");
  obs::Counter* b = reg.GetCounter("relborg_test_total", "help");
  EXPECT_EQ(a, b);  // same instrument, stable pointer
  EXPECT_EQ(reg.FindCounter("relborg_test_total"), a);
  EXPECT_EQ(reg.FindCounter("relborg_absent_total"), nullptr);
  EXPECT_EQ(reg.FindHistogram("relborg_test_total"), nullptr);  // wrong kind
}

TEST(ObsMetrics, HistogramBucketsFollowLeSemantics) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.GetHistogram("relborg_test_seconds", "help");
  // Exact powers of two land in their own le="2^k" bucket (le is an upper
  // INCLUSIVE bound), values just above in the next.
  h->Observe(1.0);
  const int one = obs::Histogram::BucketIndex(1.0);
  EXPECT_EQ(obs::Histogram::BucketBound(one), 1.0);
  EXPECT_EQ(h->BucketCount(one), 1u);
  h->Observe(1.001);
  EXPECT_EQ(h->BucketCount(one + 1), 1u);
  // Tiny values fall into the first bucket; huge ones into +Inf.
  h->Observe(1e-12);
  EXPECT_EQ(h->BucketCount(0), 1u);
  h->Observe(1e12);
  EXPECT_EQ(h->BucketCount(obs::Histogram::kBuckets - 1), 1u);
  EXPECT_EQ(h->Count(), 4u);
  EXPECT_DOUBLE_EQ(h->Sum(), 1.0 + 1.001 + 1e-12 + 1e12);
}

TEST(ObsMetrics, HistogramQuantilesAreMonotone) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.GetHistogram("relborg_test_seconds", "help");
  for (int i = 0; i < 90; ++i) h->Observe(0.001);  // ~1ms
  for (int i = 0; i < 10; ++i) h->Observe(0.1);    // ~100ms tail
  const double p50 = h->Quantile(0.50);
  const double p95 = h->Quantile(0.95);
  EXPECT_LE(p50, 0.002);  // within the ~1ms bucket's bound
  EXPECT_GE(p95, 0.05);   // in the tail
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, h->Quantile(0.99));
}

TEST(ObsMetrics, QuantileStopsAtTheLowestPopulatedBucket) {
  // Regression: with empty leading buckets, q = 0 used to satisfy
  // `cum >= target` at target 0 on bucket 0 and report 2^-20 for data that
  // never touched it. Every quantile must land in a populated bucket.
  obs::Histogram h;
  for (int i = 0; i < 4; ++i) h.Observe(0.25);  // bucket bound 0.25
  const double min_bound = 0.25;
  EXPECT_EQ(h.Quantile(0.0), min_bound);
  EXPECT_EQ(h.Quantile(1e-9), min_bound);  // rounds below 1 observation
  EXPECT_EQ(h.Quantile(1.0), min_bound);   // all mass in one bucket
}

TEST(ObsMetrics, QuantileOfASingleObservation) {
  obs::Histogram h;
  h.Observe(0.01);  // bucket (2^-7, 2^-6]: bound 0.015625
  const double bound =
      obs::Histogram::BucketBound(obs::Histogram::BucketIndex(0.01));
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.Quantile(q), bound) << "q=" << q;
  }
}

TEST(ObsMetrics, QuantileSpansPopulatedBucketsOnly) {
  // 1 observation near 1ms, 99 near 100ms: q = 0 must report the minimum's
  // bucket, q >= 0.02 the tail's — and nothing in between, since no other
  // bucket holds observations.
  obs::Histogram h;
  h.Observe(0.001);
  for (int i = 0; i < 99; ++i) h.Observe(0.1);
  const double lo =
      obs::Histogram::BucketBound(obs::Histogram::BucketIndex(0.001));
  const double hi =
      obs::Histogram::BucketBound(obs::Histogram::BucketIndex(0.1));
  EXPECT_EQ(h.Quantile(0.0), lo);
  EXPECT_EQ(h.Quantile(0.01), lo);  // exactly the first observation's rank
  EXPECT_EQ(h.Quantile(0.02), hi);
  EXPECT_EQ(h.Quantile(1.0), hi);
  // Empty histogram stays the documented 0.
  obs::Histogram empty;
  EXPECT_EQ(empty.Quantile(0.0), 0.0);
  EXPECT_EQ(empty.Quantile(1.0), 0.0);
}

TEST(ObsMetrics, RegistryMergeAggregatesAndLabelsPerSource) {
  obs::MetricsRegistry a, b;
  a.GetCounter("relborg_test_total", "help")->Inc(3);
  b.GetCounter("relborg_test_total", "help")->Inc(4);
  a.GetGauge("relborg_test_gauge", "help")->Set(2.0);
  b.GetGauge("relborg_test_gauge", "help")->Set(5.0);
  a.GetHistogram("relborg_test_seconds", "help")->Observe(0.001);
  b.GetHistogram("relborg_test_seconds", "help")->Observe(0.1);

  obs::MetricsRegistry agg;
  agg.MergeFrom(a, "_shard0");
  agg.MergeFrom(b, "_shard1");
  EXPECT_EQ(agg.FindCounter("relborg_test_total")->Value(), 7.0);
  EXPECT_EQ(agg.FindCounter("relborg_test_total_shard0")->Value(), 3.0);
  EXPECT_EQ(agg.FindCounter("relborg_test_total_shard1")->Value(), 4.0);
  EXPECT_EQ(agg.FindGauge("relborg_test_gauge")->Value(), 5.0);  // max
  EXPECT_EQ(agg.FindGauge("relborg_test_gauge_shard0")->Value(), 2.0);
  obs::Histogram* h = agg.FindHistogram("relborg_test_seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->Count(), 2u);
  EXPECT_DOUBLE_EQ(h->Sum(), 0.101);
  EXPECT_EQ(agg.FindHistogram("relborg_test_seconds_shard1")->Count(), 1u);
}

TEST(ObsMetrics, ExpositionTextIsPrometheusShaped) {
  obs::MetricsRegistry reg;
  reg.GetCounter("relborg_test_total", "a counter")->Inc(3);
  reg.GetGauge("relborg_test_gauge", "a gauge")->Set(1.5);
  obs::Histogram* h = reg.GetHistogram("relborg_test_seconds", "a histogram");
  h->Observe(0.5);
  const std::string text = reg.ExpositionText();
  EXPECT_NE(text.find("# HELP relborg_test_total a counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE relborg_test_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("relborg_test_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE relborg_test_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE relborg_test_seconds histogram"),
            std::string::npos);
  // Cumulative le buckets: 0.5 is an exact power of two, so its own
  // bucket counts it, and every larger bound (incl. +Inf) includes it.
  EXPECT_NE(text.find("relborg_test_seconds_bucket{le=\"0.5\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("relborg_test_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("relborg_test_seconds_sum 0.5"), std::string::npos);
  EXPECT_NE(text.find("relborg_test_seconds_count 1"), std::string::npos);
}

TEST(ObsMetrics, ConcurrentIncrementsAreExact) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("relborg_test_total", "help");
  obs::Histogram* h = reg.GetHistogram("relborg_test_seconds", "help");
  obs::Gauge* g = reg.GetGauge("relborg_test_gauge", "help");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Inc();
        h->Observe(0.25);  // power of two: exact double accumulation
        g->SetMax(static_cast<double>(t * kPerThread + i));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c->Value(), static_cast<double>(kThreads * kPerThread));
  EXPECT_EQ(h->Count(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(h->Sum(), 0.25 * kThreads * kPerThread);
  EXPECT_EQ(g->Value(), static_cast<double>(kThreads * kPerThread - 1));
}

// --- Trace ---------------------------------------------------------------

// The recording-behavior suite only exists when spans record: under
// -DRELBORG_OBS_NO_TRACE every span/instant compiles to nothing (which
// IS the behavior under test there — nothing must be recorded, nothing
// must crash — covered by the two no-op cases kept outside the guard).
#ifndef RELBORG_OBS_NO_TRACE

TEST(ObsTrace, SpansAreNoOpsWithoutAScope) {
  EXPECT_FALSE(obs::TraceEnabledOnThisThread());
  obs::TraceSpan span("orphan", "test");  // must not crash or record
  RELBORG_TRACE_INSTANT("orphan-instant", "test", -1, -1);
}

TEST(ObsTrace, ScopeInstallsRecordsAndRestores) {
  obs::TraceRecorder recorder;
  {
    obs::ThreadTraceScope scope(&recorder, "worker");
    EXPECT_TRUE(obs::TraceEnabledOnThisThread());
    { obs::TraceSpan span("unit", "test", /*epoch=*/3, /*node=*/1); }
    RELBORG_TRACE_INSTANT("mark", "test", 4, -1);
  }
  EXPECT_FALSE(obs::TraceEnabledOnThisThread());
  EXPECT_EQ(recorder.thread_count(), 1u);
  const std::string json = recorder.ExportChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker\""), std::string::npos);  // ph:M
  EXPECT_NE(json.find("\"name\":\"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch\":3"), std::string::npos);
  EXPECT_NE(json.find("\"node\":1"), std::string::npos);
  EXPECT_NE(json.find("\"epoch\":4"), std::string::npos);  // the instant
}

TEST(ObsTrace, RepeatScopesOnSameRecorderReuseTheRing) {
  obs::TraceRecorder recorder;
  for (int i = 0; i < 5; ++i) {
    obs::ThreadTraceScope scope(&recorder, "reader");
    obs::TraceSpan span("read", "test");
  }
  EXPECT_EQ(recorder.thread_count(), 1u);  // one ring, not five
  // A DIFFERENT recorder must not alias the cached ring.
  obs::TraceRecorder other;
  {
    obs::ThreadTraceScope scope(&other, "reader");
    obs::TraceSpan span("read", "test");
  }
  EXPECT_EQ(other.thread_count(), 1u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(ObsTrace, NullRecorderDisablesTracingInScope) {
  obs::TraceRecorder recorder;
  obs::ThreadTraceScope outer(&recorder, "outer");
  {
    obs::ThreadTraceScope inner(nullptr, "inner");
    EXPECT_FALSE(obs::TraceEnabledOnThisThread());
    obs::TraceSpan span("dropped", "test");
  }
  EXPECT_TRUE(obs::TraceEnabledOnThisThread());  // restored
  const std::string json = recorder.ExportChromeJson();
  EXPECT_EQ(json.find("dropped"), std::string::npos);
}

TEST(ObsTrace, RingOverwritesOldestAndCountsDropped) {
  obs::TraceRecorder recorder(/*capacity_per_thread=*/4);
  obs::ThreadTraceScope scope(&recorder, "looper");
  for (int i = 0; i < 10; ++i) {
    obs::TraceSpan span(i % 2 == 0 ? "even" : "odd", "test", i);
  }
  EXPECT_EQ(recorder.dropped(), 6u);  // 10 recorded - 4 retained
  const std::string json = recorder.ExportChromeJson();
  // Only the newest four survive: epochs 6..9.
  EXPECT_EQ(json.find("\"epoch\":5,"), std::string::npos);
  EXPECT_NE(json.find("\"epoch\":6,"), std::string::npos);
  EXPECT_NE(json.find("\"epoch\":9,"), std::string::npos);
}

TEST(ObsTrace, JsonEscapesMetacharacters) {
  obs::TraceRecorder recorder;
  obs::ThreadTraceScope scope(&recorder, "na\"me\\with\nnoise");
  obs::TraceSpan span("plain", "test");
  span.End();
  const std::string json = recorder.ExportChromeJson();
  EXPECT_NE(json.find("na\\\"me\\\\with\\u000anoise"), std::string::npos);
}

TEST(ObsTrace, TailStringMergesThreadsByTime) {
  obs::TraceRecorder recorder;
  {
    obs::ThreadTraceScope scope(&recorder, "alpha");
    obs::TraceSpan span("first", "test", 1);
  }
  std::thread([&] {
    obs::ThreadTraceScope scope(&recorder, "beta");
    obs::TraceSpan span("second", "test", 2);
  }).join();
  const std::string tail = recorder.TailString(16);
  EXPECT_NE(tail.find("alpha"), std::string::npos);
  EXPECT_NE(tail.find("beta"), std::string::npos);
  EXPECT_NE(tail.find("test/first"), std::string::npos);
  EXPECT_LT(tail.find("test/first"), tail.find("test/second"));
}

TEST(ObsTrace, TailStringToleratesConcurrentRecording) {
  obs::TraceRecorder recorder(/*capacity_per_thread=*/64);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&recorder, &stop, t] {
      obs::ThreadTraceScope scope(&recorder,
                                  t == 0 ? "writer0" : "writer1");
      while (!stop.load(std::memory_order_relaxed)) {
        obs::TraceSpan span("spin", "test", t);
      }
    });
  }
  // The watchdog-style racy read: must be data-race-free (TSan) and never
  // touch invalid memory; torn/missing events are acceptable.
  for (int i = 0; i < 50; ++i) {
    (void)recorder.TailString(8);
    (void)recorder.dropped();
  }
  stop.store(true);
  for (auto& w : writers) w.join();
}

// The batch engines record on the calling thread, one span per relation
// scan: a group-by pass, single or batched, scans every relation once.
TEST(ObsTrace, GroupByRecordsOneScanSpanPerRelation) {
  RandomDb db = MakeRandomDb(5, Topology::kBushy);
  const RootedTree tree = db.query.Root(0);
  obs::TraceRecorder recorder;
  {
    obs::ThreadTraceScope scope(&recorder, "engine");
    (void)ComputeGroupBy(tree, GroupByAggregate{});
    (void)ComputeGroupByBatch(tree, {GroupByAggregate{}, GroupByAggregate{}});
  }
  const std::string json = recorder.ExportChromeJson();
  const std::string name = "\"name\":\"core/groupby-scan\"";
  int spans = 0;
  for (size_t at = json.find(name); at != std::string::npos;
       at = json.find(name, at + 1)) {
    ++spans;
  }
  EXPECT_EQ(spans, 2 * tree.num_nodes());
  EXPECT_EQ(recorder.dropped(), 0u);
}

#else  // RELBORG_OBS_NO_TRACE

TEST(ObsTrace, KilledSpansCompileToNoOpsAndRecordNothing) {
  obs::TraceRecorder recorder;
  obs::ThreadTraceScope scope(&recorder, "worker");
  EXPECT_FALSE(obs::TraceEnabledOnThisThread());
  { obs::TraceSpan span("unit", "test", 1, 2); }
  RELBORG_TRACE_INSTANT("mark", "test", 3, -1);
  EXPECT_EQ(recorder.ExportChromeJson().find("\"ph\":\"X\""),
            std::string::npos);
}

#endif  // RELBORG_OBS_NO_TRACE

// --- Structured events ---------------------------------------------------

TEST(ObsEvent, RendersOneLinePlusIndentedDetail) {
  obs::StructuredEvent ev("stream.stall");
  ev.Add("no_progress_s", 2.5);
  ev.Add("ingress", static_cast<int64_t>(12));
  ev.Detail("watermarks", "    node 0 committed_rows=5\n");
  const std::string text = ev.Render();
  EXPECT_EQ(text.find("[relborg] stream.stall"), 0u);
  EXPECT_NE(text.find(" no_progress_s=2.5"), std::string::npos);
  EXPECT_NE(text.find(" ingress=12"), std::string::npos);
  EXPECT_NE(text.find("  watermarks:\n    node 0 committed_rows=5\n"),
            std::string::npos);
  // Single-line header: the detail block starts on its own line.
  EXPECT_LT(text.find('\n'), text.find("watermarks"));
}

// --- Pipeline contracts --------------------------------------------------

std::vector<UpdateBatch> MakeStream(const RandomDb& db, uint64_t seed) {
  MixedStreamOptions opts;
  opts.insert.batch_size = 5;
  opts.insert.seed = seed;
  opts.delete_probability = 0.25;
  return BuildMixedStream(db.query, opts);
}

// Contract 1: the flat StreamStats a scheduler reports is exactly what the
// external registry's instruments derive to — the registry is the single
// source of truth and the struct is a projection of it.
TEST(ObsStream, StreamStatsEqualsRegistryDerivation) {
  RandomDb db = MakeRandomDb(7, Topology::kStar, /*fact_rows=*/40);
  const std::vector<UpdateBatch> stream = MakeStream(db, 11);
  ShadowDb shadow(db.query, 0);
  FeatureMap fm(shadow.query(), db.features);
  ExecPolicy policy;
  policy.threads = 2;
  policy.partition_grain = 16;
  CovarFivm strategy(&shadow, &fm, policy);

  obs::MetricsRegistry registry;
  StreamOptions options;
  options.epoch_batches = 3;
  options.metrics = &registry;
  StreamScheduler<CovarFivm> scheduler(&shadow, &strategy, options);
  for (const UpdateBatch& batch : stream) scheduler.Push(batch);
  StreamStats stats;
  ASSERT_TRUE(scheduler.Finish(&stats).ok());

  auto counter = [&](const char* name) {
    const obs::Counter* c = registry.FindCounter(name);
    return c != nullptr ? static_cast<size_t>(c->Value()) : SIZE_MAX;
  };
  auto hist_sum = [&](const char* name) {
    const obs::Histogram* h = registry.FindHistogram(name);
    return h != nullptr ? h->Sum() : -1.0;
  };
  auto gauge = [&](const char* name) {
    const obs::Gauge* g = registry.FindGauge(name);
    return g != nullptr ? g->Value() : -1.0;
  };
  EXPECT_EQ(stats.batches, counter("relborg_stream_batches_total"));
  EXPECT_EQ(stats.rows, counter("relborg_stream_rows_total"));
  EXPECT_EQ(stats.epochs, counter("relborg_stream_epochs_total"));
  EXPECT_EQ(stats.ranges, counter("relborg_stream_ranges_total"));
  EXPECT_EQ(stats.speculated_ranges,
            counter("relborg_stream_speculated_ranges_total"));
  EXPECT_EQ(stats.speculation_hits,
            counter("relborg_stream_speculation_hits_total"));
  EXPECT_EQ(stats.speculation_misses,
            counter("relborg_stream_speculation_misses_total"));
  EXPECT_EQ(stats.apply_seconds, hist_sum("relborg_stream_apply_seconds"));
  EXPECT_EQ(stats.commit_seconds, hist_sum("relborg_stream_commit_seconds"));
  EXPECT_EQ(stats.compute_seconds,
            hist_sum("relborg_stream_compute_seconds"));
  EXPECT_EQ(stats.commit_gate_wait_seconds,
            hist_sum("relborg_stream_commit_gate_wait_seconds"));
  EXPECT_EQ(stats.maintain_gate_wait_seconds,
            hist_sum("relborg_stream_maintain_gate_wait_seconds"));
  EXPECT_EQ(stats.compute_gate_wait_seconds,
            hist_sum("relborg_stream_compute_gate_wait_seconds"));
  EXPECT_EQ(static_cast<double>(stats.commit_ahead_max_epochs),
            gauge("relborg_stream_commit_ahead_epochs_max"));
  EXPECT_EQ(static_cast<double>(stats.compute_overlap_epochs_max),
            gauge("relborg_stream_compute_overlap_epochs_max"));
  EXPECT_EQ(stats.epoch_latency_max_seconds,
            gauge("relborg_stream_epoch_latency_max_seconds"));
  EXPECT_EQ(static_cast<double>(stats.ingress_high_water_rows),
            gauge("relborg_stream_ingress_high_water_rows"));
  EXPECT_EQ(static_cast<double>(stats.epoch_queue_high_water),
            gauge("relborg_stream_epoch_queue_high_water"));
  EXPECT_EQ(stats.rejected_batches,
            counter("relborg_stream_rejected_batches_total"));
  EXPECT_EQ(stats.rejected_rows,
            counter("relborg_stream_rejected_rows_total"));
  EXPECT_EQ(stats.quarantined_batches,
            counter("relborg_stream_quarantined_batches_total"));
  EXPECT_EQ(stats.quarantine_dropped_batches,
            counter("relborg_stream_quarantine_dropped_batches_total"));
  EXPECT_EQ(stats.dropped_batches,
            counter("relborg_stream_dropped_batches_total"));
  EXPECT_EQ(stats.try_push_timeouts,
            counter("relborg_stream_try_push_timeouts_total"));
  EXPECT_EQ(stats.watchdog_stalls,
            counter("relborg_stream_watchdog_stalls_total"));
  {
    const obs::Histogram* h =
        registry.FindHistogram("relborg_stream_checkpoint_write_seconds");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(stats.checkpoints_written, static_cast<size_t>(h->Count()));
    EXPECT_EQ(stats.checkpoint_seconds, h->Sum());
  }
  EXPECT_EQ(stats.checkpoint_bytes,
            counter("relborg_stream_checkpoint_bytes_total"));
  // The derived mean is the histogram sum over the epoch count.
  const obs::Histogram* latency =
      registry.FindHistogram("relborg_stream_epoch_latency_seconds");
  ASSERT_NE(latency, nullptr);
  ASSERT_GT(stats.epochs, 0u);
  EXPECT_EQ(stats.epoch_latency_mean_seconds,
            latency->Sum() / static_cast<double>(stats.epochs));
  EXPECT_EQ(latency->Count(), static_cast<uint64_t>(stats.epochs));
  // And DeriveStats() re-derives the same struct while the scheduler is
  // still alive (modulo nothing: the pipeline is drained).
  const StreamStats again = scheduler.DeriveStats();
  EXPECT_EQ(again.rows, stats.rows);
  EXPECT_EQ(again.apply_seconds, stats.apply_seconds);
  // The exposition text carries the documented catalog.
  const std::string text = scheduler.MetricsText();
  EXPECT_NE(text.find("relborg_stream_batches_total"), std::string::npos);
  EXPECT_NE(text.find("relborg_stream_epoch_latency_seconds_bucket"),
            std::string::npos);
}

// Contract 2: tracing on vs off is bit-identical in the maintained
// covariance and the structural stats; the traced run actually captures
// stage spans from every pipeline thread.
TEST(ObsStream, TracingOnOffIsBitIdentical) {
  RandomDb db = MakeRandomDb(42, Topology::kChain, /*fact_rows=*/40);
  const std::vector<UpdateBatch> stream = MakeStream(db, 13);

  auto run = [&](obs::TraceRecorder* trace, StreamStats* stats) {
    ShadowDb shadow(db.query, 0);
    FeatureMap fm(shadow.query(), db.features);
    ExecPolicy policy;
    policy.threads = 2;
    policy.partition_grain = 16;
    CovarFivm strategy(&shadow, &fm, policy);
    StreamOptions options;
    options.epoch_batches = 2;
    options.trace = trace;
    *stats = ApplyStream(&shadow, &strategy, stream, options);
    return strategy.Current();
  };

  StreamStats off_stats, on_stats;
  const CovarMatrix off = run(nullptr, &off_stats);
  obs::TraceRecorder recorder;
  const CovarMatrix on = run(&recorder, &on_stats);

  ASSERT_EQ(on.num_features(), off.num_features());
  const int n = off.num_features();
  for (int i = 0; i <= n; ++i) {
    for (int j = i; j <= n; ++j) {
      EXPECT_EQ(on.Moment(i, j), off.Moment(i, j))
          << "(" << i << "," << j << ")";
    }
  }
  EXPECT_EQ(on_stats.batches, off_stats.batches);
  EXPECT_EQ(on_stats.rows, off_stats.rows);
  EXPECT_EQ(on_stats.epochs, off_stats.epochs);
  EXPECT_EQ(on_stats.ranges, off_stats.ranges);

  // The traced run registered every pipeline stage thread (assemble,
  // commit, compute, apply, watchdog + the producer ring).
  EXPECT_GE(recorder.thread_count(), 5u);
#ifndef RELBORG_OBS_NO_TRACE
  const std::string json = recorder.ExportChromeJson();
  for (const char* name : {"assemble", "commit", "compute", "apply"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(name) + "\""),
              std::string::npos)
        << name;
  }
  EXPECT_NE(json.find("\"cat\":\"ivm\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"storage\""), std::string::npos);
#endif
}

// The serve layer registers its instruments in the scheduler's registry,
// so one exposition covers pipeline + serving, and serve reads observe
// their latency.
TEST(ObsStream, ServeMetricsShareTheSchedulerRegistry) {
  RandomDb db = MakeRandomDb(3, Topology::kStar, /*fact_rows=*/30);
  const std::vector<UpdateBatch> stream = MakeStream(db, 5);
  ShadowDb shadow(db.query, 0);
  FeatureMap fm(shadow.query(), db.features);
  ExecPolicy policy;
  policy.threads = 1;
  CovarFivm strategy(&shadow, &fm, policy);
  StreamOptions options;
  obs::TraceRecorder recorder;
  options.trace = &recorder;
  StreamScheduler<CovarFivm> scheduler(&shadow, &strategy, options);
  SnapshotServer<CovarFivm> server(&scheduler, &shadow, &strategy);
  for (const UpdateBatch& batch : stream) scheduler.Push(batch);
  {
    auto txn = server.BeginSnapshot();
    (void)server.Covar(txn);
    server.EndSnapshot(&txn);
  }
  StreamStats stats;
  ASSERT_TRUE(scheduler.Finish(&stats).ok());

  const obs::MetricsRegistry& reg = server.metrics();
  const obs::Counter* txns =
      reg.FindCounter("relborg_serve_transactions_total");
  const obs::Counter* reads = reg.FindCounter("relborg_serve_reads_total");
  const obs::Histogram* latency =
      reg.FindHistogram("relborg_serve_read_latency_seconds");
  ASSERT_NE(txns, nullptr);
  ASSERT_NE(reads, nullptr);
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(txns->Value(), 1.0);
  EXPECT_EQ(reads->Value(), 1.0);
  EXPECT_EQ(latency->Count(), 1u);
  const obs::Counter* published =
      reg.FindCounter("relborg_serve_snapshots_published_total");
  ASSERT_NE(published, nullptr);
  EXPECT_EQ(static_cast<size_t>(published->Value()),
            server.published_snapshots());
  // One exposition text covers both layers, served through the server.
  const std::string text = server.MetricsText();
  EXPECT_NE(text.find("relborg_stream_batches_total"), std::string::npos);
  EXPECT_NE(text.find("relborg_serve_read_latency_seconds_bucket"),
            std::string::npos);
#ifndef RELBORG_OBS_NO_TRACE
  // The serve read recorded a span in the shared recorder.
  EXPECT_NE(recorder.ExportChromeJson().find("serve/covar"),
            std::string::npos);
#endif
}

}  // namespace
}  // namespace relborg
