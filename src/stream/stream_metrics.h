// The stream pipeline's instrument bundle: every StreamStats field is backed
// by exactly one registry instrument, and `Derive()` is the ONLY way a
// StreamStats is produced from a live scheduler — the flat struct and the
// registry can never disagree because the struct is a projection.
//
// Exactness: structural counters are integer-valued doubles (exact to 2^53);
// timing sums are accumulated by the same single writer thread in the same
// order as the `double +=` fields they replaced, and obs::AtomicDouble adds
// with a CAS of the full double, so the totals are bit-identical.
#ifndef RELBORG_STREAM_STREAM_METRICS_H_
#define RELBORG_STREAM_STREAM_METRICS_H_

#include <algorithm>
#include <cstddef>

#include "obs/metrics.h"

namespace relborg {

// Forward-declared here; defined in stream_scheduler.h.
struct StreamStats;

namespace stream_internal {

struct StreamMetrics {
  // Deterministic structural counters.
  obs::Counter* batches = nullptr;
  obs::Counter* rows = nullptr;
  obs::Counter* epochs = nullptr;
  obs::Counter* ranges = nullptr;
  obs::Counter* speculated_ranges = nullptr;
  obs::Counter* speculation_hits = nullptr;
  obs::Counter* speculation_misses = nullptr;
  // Per-epoch stage timings (histograms; the StreamStats seconds fields are
  // the histogram sums).
  obs::Histogram* apply_seconds = nullptr;
  obs::Histogram* commit_seconds = nullptr;
  obs::Histogram* compute_seconds = nullptr;
  obs::Histogram* commit_gate_wait = nullptr;
  obs::Histogram* maintain_gate_wait = nullptr;
  obs::Histogram* compute_gate_wait = nullptr;
  obs::Histogram* epoch_latency = nullptr;  // sealed -> applied, per epoch
  obs::Histogram* checkpoint_write = nullptr;  // per checkpoint file
  obs::Counter* checkpoint_bytes = nullptr;
  // Run-shape gauges.
  obs::Gauge* commit_ahead_max = nullptr;
  obs::Gauge* compute_overlap_max = nullptr;
  obs::Gauge* epoch_latency_max = nullptr;
  obs::Gauge* ingress_high_water = nullptr;
  obs::Gauge* epoch_queue_high_water = nullptr;
  // Ingress robustness + watchdog counters.
  obs::Counter* rejected_batches = nullptr;
  obs::Counter* rejected_rows = nullptr;
  obs::Counter* quarantined_batches = nullptr;
  obs::Counter* quarantine_dropped_batches = nullptr;
  obs::Counter* dropped_batches = nullptr;
  obs::Counter* try_push_timeouts = nullptr;
  obs::Counter* watchdog_stalls = nullptr;

  // Registers (or re-finds) every instrument in `registry`. The catalog
  // below is the documented metric surface (docs/OBSERVABILITY.md).
  static StreamMetrics Register(obs::MetricsRegistry* registry) {
    StreamMetrics m;
    m.batches = registry->GetCounter("relborg_stream_batches_total",
                                     "Source batches consumed");
    m.rows = registry->GetCounter("relborg_stream_rows_total",
                                  "Rows across consumed batches");
    m.epochs = registry->GetCounter("relborg_stream_epochs_total",
                                    "Sealed epochs applied");
    m.ranges = registry->GetCounter("relborg_stream_ranges_total",
                                    "Coalesced per-node ranges applied");
    m.speculated_ranges =
        registry->GetCounter("relborg_stream_speculated_ranges_total",
                             "Ranges with a precomputed delta");
    m.speculation_hits =
        registry->GetCounter("relborg_stream_speculation_hits_total",
                             "Precomputed deltas accepted at the serial point");
    m.speculation_misses =
        registry->GetCounter("relborg_stream_speculation_misses_total",
                             "Precomputed deltas invalidated and recomputed");
    m.apply_seconds =
        registry->GetHistogram("relborg_stream_apply_seconds",
                               "Per-epoch maintenance wall time (gate wait "
                               "included)");
    m.commit_seconds =
        registry->GetHistogram("relborg_stream_commit_seconds",
                               "Per-epoch chunk splice wall time (gate waits "
                               "excluded)");
    m.compute_seconds =
        registry->GetHistogram("relborg_stream_compute_seconds",
                               "Per-epoch speculative compute wall time "
                               "(gate waits excluded)");
    m.commit_gate_wait =
        registry->GetHistogram("relborg_stream_commit_gate_wait_seconds",
                               "Committer blocked on maintenance readers, "
                               "per epoch");
    m.maintain_gate_wait =
        registry->GetHistogram("relborg_stream_maintain_gate_wait_seconds",
                               "Applier blocked on in-flight commits, per "
                               "acquisition");
    m.compute_gate_wait =
        registry->GetHistogram("relborg_stream_compute_gate_wait_seconds",
                               "Compute stage blocked on gates, per range");
    m.epoch_latency =
        registry->GetHistogram("relborg_stream_epoch_latency_seconds",
                               "Epoch sealed -> applied latency");
    m.checkpoint_write =
        registry->GetHistogram("relborg_stream_checkpoint_write_seconds",
                               "Checkpoint serialize+write wall time");
    m.checkpoint_bytes =
        registry->GetCounter("relborg_stream_checkpoint_bytes_total",
                             "File bytes across written checkpoints");
    m.commit_ahead_max =
        registry->GetGauge("relborg_stream_commit_ahead_epochs_max",
                           "Committer's max epoch lead over the applier");
    m.compute_overlap_max =
        registry->GetGauge("relborg_stream_compute_overlap_epochs_max",
                           "Compute stage's max epoch lead over the applier");
    m.epoch_latency_max =
        registry->GetGauge("relborg_stream_epoch_latency_max_seconds",
                           "Max epoch sealed -> applied latency");
    m.ingress_high_water =
        registry->GetGauge("relborg_stream_ingress_high_water_rows",
                           "Ingress queue row high-water mark");
    m.epoch_queue_high_water =
        registry->GetGauge("relborg_stream_epoch_queue_high_water",
                           "Max depth across the epoch queues");
    m.rejected_batches =
        registry->GetCounter("relborg_stream_rejected_batches_total",
                             "Batches that failed ingress validation");
    m.rejected_rows =
        registry->GetCounter("relborg_stream_rejected_rows_total",
                             "Rows across rejected batches");
    m.quarantined_batches =
        registry->GetCounter("relborg_stream_quarantined_batches_total",
                             "Rejected batches retained for drain");
    m.quarantine_dropped_batches = registry->GetCounter(
        "relborg_stream_quarantine_dropped_batches_total",
        "Rejected batches dropped because the quarantine was full");
    m.dropped_batches =
        registry->GetCounter("relborg_stream_dropped_batches_total",
                             "Batches pushed after Finish or a failure");
    m.try_push_timeouts =
        registry->GetCounter("relborg_stream_try_push_timeouts_total",
                             "TryPush deadlines that expired");
    m.watchdog_stalls =
        registry->GetCounter("relborg_stream_watchdog_stalls_total",
                             "No-progress intervals the watchdog detected");
    return m;
  }

  // Defined in stream_scheduler.h (below StreamStats) to avoid a circular
  // include; declared here so call sites only need this header.
  inline StreamStats Derive() const;
};

}  // namespace stream_internal
}  // namespace relborg

#endif  // RELBORG_STREAM_STREAM_METRICS_H_
