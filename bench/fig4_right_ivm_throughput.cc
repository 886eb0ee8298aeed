// Figure 4 (right) reproduction: maintaining the covariance matrix of the
// Retailer join under tuple insertions into an initially empty database.
//
//   F-IVM            one factorized view tree, compound covariance ring
//                    (maintenance shared across the aggregate batch),
//   higher-order IVM delta processing with intermediate views but one
//                    scalar view tree per aggregate (no sharing),
//   first-order IVM  classical delta processing: re-enumerates the delta
//                    join per batch, no intermediate views.
//
// The paper (Azure DS14, 1 thread, 1h timeout) shows F-IVM sustaining >1M
// tuples/s, orders of magnitude above both baselines, with first-order IVM
// degrading as the database grows. We report throughput at stream-fraction
// checkpoints; each strategy gets a wall-clock budget and is cut off when
// it exceeds it (mirroring the paper's timeout).
//
// The ASYNC mode re-runs the faster strategies through the stream
// scheduler (src/stream/): a bounded ingress queue feeds an epoch
// assembler that coalesces and stages batches off the maintenance thread,
// a committer splices epoch N+1's chunks concurrently with epoch N's
// propagation (watermark-overlapped commits), and an applier maintains
// the epochs over the same ExecPolicy. Results are bit-identical to the
// serial epoch replay; the mode reports whole-stream throughput, the
// async/serial ratio, and per-epoch latency.
//
// With --epoch-rows-sweep the harness additionally sweeps the F-IVM async
// path over epoch sizes (epoch_rows in multiples of the batch size),
// reporting throughput, async/serial ratio and latency per size — the
// epoch-size knob trades epoch latency against coalescing/overlap gain,
// and the sweep records that whole tradeoff curve in the trajectory.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/covar_engine.h"
#include "data/dataset.h"
#include "ivm/ivm.h"
#include "ivm/update_stream.h"
#include "obs/metrics.h"
#include "stream/stream_scheduler.h"
#include "util/timer.h"

namespace relborg {
namespace {

struct Checkpoint {
  double fraction;
  double tuples_per_sec;
};

struct DriveResult {
  std::vector<Checkpoint> checkpoints;
  size_t applied = 0;
  double seconds = 0;
  bool timed_out = false;

  double tuples_per_sec() const {
    return applied / std::max(1e-9, seconds);
  }
};

template <typename Strategy>
DriveResult Drive(const Dataset& ds, const std::vector<UpdateBatch>& stream,
                  double budget_secs, const ExecPolicy& policy) {
  ShadowDb shadow(ds.query, ds.query.IndexOf(ds.fact));
  FeatureMap fm(shadow.query(), ds.features);
  Strategy strategy(&shadow, &fm, policy);
  const size_t total = StreamRowCount(stream);
  DriveResult result;
  size_t next_mark = 1;
  size_t last_applied = 0;
  double last_elapsed = 0;
  WallTimer timer;
  for (const UpdateBatch& batch : stream) {
    size_t first = shadow.AppendRows(batch.node, batch.rows, batch.sign);
    strategy.ApplyBatch(batch.node, first, batch.rows.size());
    result.applied += batch.rows.size();
    double elapsed = timer.Seconds();
    if (result.applied * 10 >= next_mark * total) {
      // Incremental (per-decile) throughput, as the paper's plot reports
      // throughput at each point of the stream.
      result.checkpoints.push_back(
          {static_cast<double>(next_mark) / 10.0,
           (result.applied - last_applied) /
               std::max(1e-9, elapsed - last_elapsed)});
      last_applied = result.applied;
      last_elapsed = elapsed;
      ++next_mark;
    }
    if (elapsed > budget_secs) {
      result.timed_out = true;
      break;
    }
  }
  result.seconds = timer.Seconds();
  if (!result.timed_out && (result.checkpoints.empty() ||
                            result.checkpoints.back().fraction < 1.0)) {
    result.checkpoints.push_back(
        {1.0, (result.applied - last_applied) /
                  std::max(1e-9, result.seconds - last_elapsed)});
  }
  return result;
}

struct AsyncResult {
  StreamStats stats;
  double seconds = 0;
  bool timed_out = false;
  // Epoch-latency quantiles from the scheduler's registry histogram
  // (relborg_stream_epoch_latency_seconds); the flat StreamStats only
  // carries mean and max. Valid only when has_latency is set — a
  // zero-epoch run (e.g. a sweep config whose whole stream fits one
  // unsealed epoch at tiny scale) has an EMPTY histogram, and reporting
  // its 0.0 quantiles would poison the committed trajectory baseline.
  bool has_latency = false;
  double latency_p50 = 0;
  double latency_p95 = 0;
  double latency_p99 = 0;

  double tuples_per_sec() const {
    return stats.rows / std::max(1e-9, seconds);
  }
};

template <typename Strategy>
AsyncResult DriveAsync(const Dataset& ds,
                       const std::vector<UpdateBatch>& stream,
                       double budget_secs, const ExecPolicy& policy,
                       const StreamOptions& options) {
  ShadowDb shadow(ds.query, ds.query.IndexOf(ds.fact));
  FeatureMap fm(shadow.query(), ds.features);
  Strategy strategy(&shadow, &fm, policy);
  AsyncResult result;
  // The harness reuses `stream` across strategies, so hand the scheduler a
  // disposable copy made OUTSIDE the measured region: a live producer
  // moves batches into Push rather than keeping them, and the serial path
  // likewise reads the shared stream without duplicating it.
  std::vector<UpdateBatch> feed = stream;
  // External registry so the per-stage histograms survive the scheduler:
  // quantiles come from the registry, not from the flat StreamStats.
  obs::MetricsRegistry registry;
  StreamOptions instrumented = options;
  instrumented.metrics = &registry;
  WallTimer timer;
  {
    StreamScheduler<Strategy> scheduler(&shadow, &strategy, instrumented);
    for (UpdateBatch& batch : feed) {
      scheduler.Push(std::move(batch));
      if (timer.Seconds() > budget_secs) {
        result.timed_out = true;
        break;
      }
    }
    scheduler.Finish(&result.stats);
  }
  result.seconds = timer.Seconds();
  const obs::Histogram* latency =
      registry.FindHistogram("relborg_stream_epoch_latency_seconds");
  if (latency != nullptr && latency->Count() > 0) {
    result.has_latency = true;
    result.latency_p50 = latency->Quantile(0.50);
    result.latency_p95 = latency->Quantile(0.95);
    result.latency_p99 = latency->Quantile(0.99);
  }
  return result;
}

void Run(bool epoch_sweep) {
  const double scale = 0.1 * bench::ScaleMultiplier();
  GenOptions gen;
  gen.scale = scale;
  Dataset ds = MakeRetailer(gen);  // full 12-feature set: 91 aggregates

  UpdateStreamOptions stream_opts;
  stream_opts.batch_size = 1000;
  std::vector<UpdateBatch> stream = BuildInsertStream(ds.query, stream_opts);
  const size_t total = StreamRowCount(stream);
  const size_t num_aggs = CovarBatchSize(
      static_cast<int>(ds.features.size()));

  bench::PrintHeader(
      "FIG 4 (right)",
      "Covariance maintenance under inserts, Retailer (" +
          std::to_string(total) + " tuples, batches of 1000, " +
          std::to_string(num_aggs) + " aggregates)");

  // The exec policy (RELBORG_THREADS, default: hardware) parallelizes the
  // batched update application inside each strategy; results stay
  // bit-identical to a 1-thread run by construction. The default grain
  // (2048) would leave a 1000-row batch in one partition — i.e. F-IVM's
  // delta scan entirely serial — so size the grain to the batch: 128 rows
  // gives 8 partitions per batch, independent of the thread count.
  ExecPolicy policy = ExecPolicy::FromEnv();
  policy.partition_grain = 128;
  const double budget = 120.0;
  DriveResult fivm = Drive<CovarFivm>(ds, stream, budget, policy);
  DriveResult higher = Drive<HigherOrderIvm>(ds, stream, budget, policy);
  DriveResult first = Drive<FirstOrderIvm>(ds, stream, budget, policy);

  auto at = [](const std::vector<Checkpoint>& cps, size_t i) -> std::string {
    if (i < cps.size()) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%11.0f", cps[i].tuples_per_sec);
      return buf;
    }
    return "    timeout";
  };
  std::printf("%-9s %11s %11s %11s   (tuples/sec)\n", "fraction", "F-IVM",
              "higher-ord", "first-ord");
  size_t rows = std::max({fivm.checkpoints.size(), higher.checkpoints.size(),
                          first.checkpoints.size()});
  for (size_t i = 0; i < rows; ++i) {
    double frac = 0.1 * (i + 1);
    if (i < fivm.checkpoints.size()) frac = fivm.checkpoints[i].fraction;
    std::printf("%-9.1f %s %s %s\n", frac, at(fivm.checkpoints, i).c_str(),
                at(higher.checkpoints, i).c_str(),
                at(first.checkpoints, i).c_str());
  }
  if (!fivm.checkpoints.empty()) {
    bench::Report("fivm_final_tuples_per_sec",
                  fivm.checkpoints.back().tuples_per_sec, "tuples/s",
                  policy.threads);
  }
  if (!higher.checkpoints.empty()) {
    bench::Report("higher_order_final_tuples_per_sec",
                  higher.checkpoints.back().tuples_per_sec, "tuples/s",
                  policy.threads);
  }
  if (!first.checkpoints.empty()) {
    bench::Report("first_order_final_tuples_per_sec",
                  first.checkpoints.back().tuples_per_sec, "tuples/s",
                  policy.threads);
  }
  if (!fivm.checkpoints.empty() && !higher.checkpoints.empty()) {
    std::printf("\nFinal F-IVM / higher-order throughput ratio: %.1fx\n",
                fivm.checkpoints.back().tuples_per_sec /
                    higher.checkpoints.back().tuples_per_sec);
    bench::Report("fivm_over_higher_order",
                  fivm.checkpoints.back().tuples_per_sec /
                      higher.checkpoints.back().tuples_per_sec,
                  "x", policy.threads);
  }
  if (!fivm.checkpoints.empty() && !first.checkpoints.empty()) {
    std::printf("Final F-IVM / first-order throughput ratio: %.1fx%s\n",
                fivm.checkpoints.back().tuples_per_sec /
                    first.checkpoints.back().tuples_per_sec,
                first.timed_out ? " (first-order hit its time budget)" : "");
    bench::Report("fivm_over_first_order",
                  fivm.checkpoints.back().tuples_per_sec /
                      first.checkpoints.back().tuples_per_sec,
                  "x", policy.threads);
  }

  // --- Async pipelined mode (src/stream/) --------------------------------
  // The scheduler coalesces batches into epochs, stages ingestion off the
  // maintenance thread, and maintains independent view groups
  // concurrently; output is bit-identical to the serial epoch replay. The
  // first-order baseline is skipped — it times out already in serial mode
  // at default scale, so an async ratio would compare two truncations.
  StreamOptions stream_options;
  stream_options.epoch_rows = 8 * stream_opts.batch_size;
  AsyncResult fivm_async =
      DriveAsync<CovarFivm>(ds, stream, budget, policy, stream_options);
  AsyncResult higher_async = DriveAsync<HigherOrderIvm>(
      ds, stream, budget, policy, stream_options);

  std::printf("\nAsync pipelined mode (epochs of <=%zu rows / <=%zu "
              "batches):\n",
              stream_options.epoch_rows, stream_options.epoch_batches);
  auto report_async = [&](const char* name, const char* tag,
                          const AsyncResult& async, const DriveResult& serial) {
    std::printf(
        "  %-11s %11.0f tuples/s  (%zu epochs, %zu coalesced ranges, "
        "epoch latency mean %.2f ms / max %.2f ms)%s\n",
        name, async.tuples_per_sec(), async.stats.epochs, async.stats.ranges,
        async.stats.epoch_latency_mean_seconds * 1e3,
        async.stats.epoch_latency_max_seconds * 1e3,
        async.timed_out ? " [budget hit]" : "");
    bench::Report(std::string(tag) + "_async_tuples_per_sec",
                  async.tuples_per_sec(), "tuples/s", policy.threads);
    bench::Report(std::string(tag) + "_async_epoch_latency_mean_ms",
                  async.stats.epoch_latency_mean_seconds * 1e3, "ms",
                  policy.threads);
    bench::Report(std::string(tag) + "_async_epoch_latency_max_ms",
                  async.stats.epoch_latency_max_seconds * 1e3, "ms",
                  policy.threads);
    // Histogram-derived latency quantiles and per-stage time split (busy
    // vs gate wait) from the scheduler's metrics registry. Zero-epoch runs
    // have an empty latency histogram: no quantile records then, so a 0.0
    // "latency" can never become a diffable baseline value.
    if (async.has_latency) {
      std::printf(
          "  %-11s epoch latency p50 %.2f ms / p95 %.2f ms / p99 %.2f ms; "
          "stage seconds apply %.2f commit %.2f compute %.2f (gate waits "
          "%.2f/%.2f/%.2f)\n",
          name, async.latency_p50 * 1e3, async.latency_p95 * 1e3,
          async.latency_p99 * 1e3, async.stats.apply_seconds,
          async.stats.commit_seconds, async.stats.compute_seconds,
          async.stats.maintain_gate_wait_seconds,
          async.stats.commit_gate_wait_seconds,
          async.stats.compute_gate_wait_seconds);
      bench::Report(std::string(tag) + "_async_epoch_latency_p50_ms",
                    async.latency_p50 * 1e3, "ms", policy.threads);
      bench::Report(std::string(tag) + "_async_epoch_latency_p95_ms",
                    async.latency_p95 * 1e3, "ms", policy.threads);
      bench::Report(std::string(tag) + "_async_epoch_latency_p99_ms",
                    async.latency_p99 * 1e3, "ms", policy.threads);
    } else {
      std::printf(
          "  %-11s no sealed epochs (latency histogram empty); stage "
          "seconds apply %.2f commit %.2f compute %.2f\n",
          name, async.stats.apply_seconds, async.stats.commit_seconds,
          async.stats.compute_seconds);
    }
    bench::Report(std::string(tag) + "_async_apply_seconds",
                  async.stats.apply_seconds, "s", policy.threads);
    bench::Report(std::string(tag) + "_async_commit_seconds",
                  async.stats.commit_seconds, "s", policy.threads);
    bench::Report(std::string(tag) + "_async_compute_seconds",
                  async.stats.compute_seconds, "s", policy.threads);
    bench::Report(std::string(tag) + "_async_gate_wait_seconds",
                  async.stats.maintain_gate_wait_seconds +
                      async.stats.commit_gate_wait_seconds +
                      async.stats.compute_gate_wait_seconds,
                  "s", policy.threads);
    // Compute-overlap observability: how far the speculative compute stage
    // ran ahead of maintenance, and how its speculations settled.
    std::printf(
        "  %-11s compute lead <=%zu epochs, %zu speculated (%zu hits / %zu "
        "misses) of %zu ranges\n",
        name, async.stats.compute_overlap_epochs_max,
        async.stats.speculated_ranges, async.stats.speculation_hits,
        async.stats.speculation_misses, async.stats.ranges);
    bench::Report(std::string(tag) + "_compute_overlap_epochs_max",
                  static_cast<double>(async.stats.compute_overlap_epochs_max),
                  "epochs", policy.threads);
    if (!async.timed_out && !serial.timed_out) {
      const double ratio = async.tuples_per_sec() / serial.tuples_per_sec();
      std::printf("  %-11s async / serial stream throughput: %.2fx\n", name,
                  ratio);
      bench::Report(std::string(tag) + "_async_over_serial", ratio, "x",
                    policy.threads);
    }
  };
  report_async("F-IVM", "fivm", fivm_async, fivm);
  report_async("higher-ord", "higher_order", higher_async, higher);

  // --- Epoch-size sweep (--epoch-rows-sweep) -----------------------------
  // Small epochs minimize seal->applied latency but commit and propagate
  // often; large epochs coalesce more rows per delta and give the
  // committer more to overlap. The trajectory records throughput, the
  // epoch-latency distribution and how far the speculative compute stage
  // ran ahead at every point of the tradeoff curve.
  if (epoch_sweep && !fivm.timed_out) {
    std::printf("\nEpoch-size sweep (F-IVM async, epoch_rows x batch "
                "size):\n");
    for (size_t mult : {1, 2, 8, 32}) {
      StreamOptions mode;
      mode.epoch_rows = mult * stream_opts.batch_size;
      // mult == 8 is exactly the headline async configuration above —
      // reuse its measurement instead of re-driving the whole stream.
      AsyncResult swept =
          mode.epoch_rows == stream_options.epoch_rows
              ? fivm_async
              : DriveAsync<CovarFivm>(ds, stream, budget, policy, mode);
      const std::string suffix =
          "/epoch_rows=" + std::to_string(mode.epoch_rows);
      std::printf(
          "  epoch_rows=%-6zu %11.0f tuples/s  (%zu epochs, latency mean "
          "%.2f ms / max %.2f ms, compute lead <=%zu epochs)%s\n",
          mode.epoch_rows, swept.tuples_per_sec(), swept.stats.epochs,
          swept.stats.epoch_latency_mean_seconds * 1e3,
          swept.stats.epoch_latency_max_seconds * 1e3,
          swept.stats.compute_overlap_epochs_max,
          swept.timed_out ? " [budget hit]" : "");
      bench::Report("fivm_async_tuples_per_sec" + suffix,
                    swept.tuples_per_sec(), "tuples/s", policy.threads);
      bench::Report("fivm_async_epoch_latency_mean_ms" + suffix,
                    swept.stats.epoch_latency_mean_seconds * 1e3, "ms",
                    policy.threads);
      bench::Report("fivm_async_epoch_latency_max_ms" + suffix,
                    swept.stats.epoch_latency_max_seconds * 1e3, "ms",
                    policy.threads);
      bench::Report(
          "fivm_async_compute_overlap_epochs_max" + suffix,
          static_cast<double>(swept.stats.compute_overlap_epochs_max),
          "epochs", policy.threads);
      if (!swept.timed_out) {
        bench::Report("fivm_async_over_serial" + suffix,
                      swept.tuples_per_sec() / fivm.tuples_per_sec(), "x",
                      policy.threads);
      }
    }
  }

  std::printf("Paper: F-IVM >1M tuples/s, 1-2 orders of magnitude above "
              "higher-order IVM and further above first-order IVM, whose "
              "throughput decays as the database grows.\n");
}

}  // namespace
}  // namespace relborg

int main(int argc, char** argv) {
  relborg::bench::InitReporting(&argc, argv, "fig4_right_ivm_throughput");
  bool epoch_sweep = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--epoch-rows-sweep") == 0) epoch_sweep = true;
  }
  relborg::Run(epoch_sweep);
  return 0;
}
