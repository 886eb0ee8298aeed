// End-to-end benchmark driver: runs ONE named workload per process and
// prints its metrics, then one JSON result line.
//
//   relborg_bench --workload learn|ingest|serve|durable --seed N
//                 --seconds S [--trace-out FILE] [--work-dir DIR] [--smoke]
//
// Every workload sets up, runs one discarded warm-up repetition (the first
// repetition pays page faults), then repeats its fixed job until --seconds
// have elapsed, setting up again, from inputs of another seed derived from
// --seed, about every fifth of that time (setup_s is the median of the
// set-ups). It reports the median of each other metric over the timed
// repetitions, with work times scaled to a reference speed (HostSpeed).
// Every repetition's output must match the first one on the same inputs
// bit for bit, and after the timed repetitions that output is checked
// against an oracle; any mismatch makes "correct" false and the exit
// code 1.
//
// The layers are measured from outside only: by timing calls into each
// module's public functions and by reading the pipeline's metrics registry
// (StreamStats) after each repetition. Without --trace-out the run reports
// the end-to-end metrics; with it, repetitions alternate untraced and
// traced, the per-layer metrics come from the traced ones, and the last
// traced repetition's spans (the benchmark's own around every layer call,
// plus the pipeline's stage spans) are written as Chrome trace JSON.
//
// The workloads, the metric catalog and why each exists are documented in
// README.md next to this file; run.py builds this program and runs it.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/materializer.h"
#include "baseline/query_at_a_time.h"
#include "core/covar_engine.h"
#include "core/decision_node_engine.h"
#include "data/dataset.h"
#include "ivm/ivm.h"
#include "ivm/update_stream.h"
#include "ml/decision_tree.h"
#include "ml/kmeans.h"
#include "ml/linear_regression.h"
#include "obs/trace.h"
#include "serve/snapshot_server.h"
#include "shard/shard_map.h"
#include "shard/sharded_stream_scheduler.h"
#include "stream/stream_scheduler.h"

namespace relborg {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Ms(Clock::duration d) { return Seconds(d) * 1e3; }

// ---------------------------------------------------------------------------
// Metric catalog. Every workload reports every metric of both lists (a
// layer the workload does not exercise reads 0); run.py checks the names
// against BENCHMARK.json.
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"peak_rss_mb", "MB"}, {"job_s", "s"},
    {"fresh_p50_ms", "ms"}, {"op_p50_ms", "ms"},
};

// Busy times are "_frac": seconds spent in the layer over the repetition's
// job_s (stage threads: averaged over shards), so an idle layer reads 0.
constexpr MetricDef kPerLayer[] = {
    {"query.prep_frac", "fraction"},
    {"core.covar_batch_frac", "fraction"},
    {"core.split_root_frac", "fraction"},
    {"ml.ridge_gd_frac", "fraction"},
    {"ml.ridge_iters", "count"},
    {"ml.tree_frac", "fraction"},
    {"ml.tree_aggregates", "count"},
    {"ml.tree_nodes", "count"},
    {"ml.kmeans_frac", "fraction"},
    {"ml.kmeans_iters", "count"},
    {"ml.kmeans_coreset_points", "count"},
    {"stream.push_frac", "fraction"},
    {"stream.finish_frac", "fraction"},
    {"stream.apply_frac", "fraction"},
    {"stream.commit_frac", "fraction"},
    {"stream.compute_frac", "fraction"},
    {"stream.gate_wait_frac", "fraction"},
    {"stream.epochs", "count"},
    {"stream.ranges", "count"},
    {"stream.spec_hit_ratio", "ratio"},
    {"stream.spec_range_frac", "fraction"},
    {"stream.ingress_high_water_rows", "count"},
    {"stream.serial_replay_tps", "tuples/s"},
    {"stream.ckpt_write_frac", "fraction"},
    {"stream.ckpt_bytes_per_tuple", "B/tuple"},
    {"stream.ckpt_files", "count"},
    {"shard.push_frac", "fraction"},
    {"shard.finish_frac", "fraction"},
    {"shard.resume_frac", "fraction"},
    {"shard.replay_frac", "fraction"},
    {"serve.begin_frac", "fraction"},
    {"serve.covar_frac", "fraction"},
    {"serve.model_frac", "fraction"},
    {"serve.groupby_frac", "fraction"},
    {"serve.txns", "count"},
    {"serve.snapshots", "count"},
    {"serve.staleness_p99_batches", "count"},
    {"gen.push_late_frac", "ratio"},
    {"gen.read_late_frac", "ratio"},
    {"gen.fresh_p99_ms", "ms"},
    {"gen.op_p99_ms", "ms"},
    {"gen.host_speed", "ratio"},
    {"gen.loop_others_busy", "fraction"},
    {"obs.traced_over_untraced", "ratio"},
    {"obs.trace_spans", "count"},
    {"obs.trace_dropped", "count"},
};

using LayerValues = std::map<std::string, double>;

// Worker threads of the stream engines' parallel plans. The pipeline's
// four stage threads and the load generator share the host's CPUs with
// them; with two workers instead of four, repeated runs on a 4-CPU host
// spread about a third as much, while the partitioned parallel plan still
// runs.
constexpr int kEngineThreads = 2;

// The largest share of a HostSpeed loop's wall time that other threads of
// the process may spend on a CPU; more makes the run fail (README.md).
constexpr double kMaxOthersBusy = 0.1;

// Set-ups per run; setup_s is their median. A stream workload's set-up
// takes about half a second, so more of them would crowd out repetitions.
constexpr int kSetups = 5;

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// One reported metric: its value, and the count and first and third
// quartiles of the per-setup or per-repetition values behind it.
struct Reported {
  std::string name;
  std::string unit;
  double value = 0;
  size_t n = 0;
  double q1 = 0;
  double q3 = 0;
};

Reported Summarize(const std::string& name, const std::string& unit,
                   double value, const std::vector<double>& values) {
  return {name,
          unit,
          value,
          values.size(),
          Percentile(values, 0.25),
          Percentile(values, 0.75)};
}

double Frac(double part, double whole) {
  return whole > 0 ? part / whole : 0;
}

// ---------------------------------------------------------------------------
// Reference speed
// ---------------------------------------------------------------------------

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// The host shares its caches and memory with other tenants, and the same
// call can take a third longer from one second to the next (README.md,
// "Noise on this host"). So work times are reported at a reference speed:
// a fixed loop of random read-modify-writes over an 8 MiB buffer (more
// than a core's L2 cache, so it competes for the shared cache as the
// library's joins do) is timed between the measured intervals, and an
// interval's measured time is multiplied by kReferenceMs over the mean of
// the loop times just before and just after it. The loop is this file's
// own code: a change to the library cannot move it, as long as no thread
// of the library runs while it does, which every loop measures and the
// run checks.
class HostSpeed {
 public:
  HostSpeed() : buf_(kWords, 1) { last_ms_ = TimeLoop(); }

  // Times the loop and returns the factor for the interval since the
  // previous call: the measured time times the factor is the time at the
  // reference speed.
  double Lap() {
    const double ms = TimeLoop();
    const double factor = kReferenceMs / (0.5 * (last_ms_ + ms));
    last_ms_ = ms;
    return factor;
  }

  // The largest share of one loop's wall time that the process's other
  // threads spent on a CPU while it ran.
  double max_others_busy() const { return max_others_busy_; }

 private:
  static constexpr size_t kWords = (8u << 20) / sizeof(uint64_t);
  static constexpr long kSteps = 3'000'000;
  // About the loop's time on the host of README.md's baseline in its fast
  // state, so that factors stay near 1 there.
  static constexpr double kReferenceMs = 12.0;

  double TimeLoop() {
    const double cpu0 = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    const double own0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    const Clock::time_point t0 = Clock::now();
    const uint64_t n = buf_.size();
    uint64_t x = 7;
    for (long i = 0; i < kSteps; ++i) {
      x = x * 6364136223846793005ULL + 1;
      buf_[(x >> 20) % n] += static_cast<uint64_t>(i);
    }
    const double wall = Seconds(Clock::now() - t0);
    const double others = (CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0) -
                          (CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - own0);
    max_others_busy_ = std::max(max_others_busy_, Frac(others, wall));
    return wall * 1e3;
  }

  std::vector<uint64_t> buf_;
  double last_ms_ = 0;
  double max_others_busy_ = 0;
};

// ---------------------------------------------------------------------------
// Workload interface
// ---------------------------------------------------------------------------

// One timed repetition. The latency metrics (ms) are defined per workload
// in README.md: on the stream workloads they are percentiles over the
// repetition's batches (input available -> result readable) and calls
// (latency of the user's blocking calls), except that durable's
// freshness slot is its recovery time; on learn they are the training
// times of two of its models. The run reports the median of all values
// of its timed repetitions: a stream repetition gives one value of each,
// a learn repetition one per training. Work times are at the reference
// speed (HostSpeed); times an open loop's schedule sets are as measured.
struct RepOutcome {
  double job_s = 0;
  double measured_job_s = 0;  // job_s before scaling
  double speed = 1;           // the repetition's HostSpeed factor
  std::vector<double> fresh_p50_ms;
  std::vector<double> op_p50_ms;
  double fresh_p99_ms = 0;  // per-layer only: no bound (README.md)
  double op_p99_ms = 0;     // per-layer only: no bound (README.md)
  uint64_t attempted = 0;
  uint64_t failed = 0;
  LayerValues layers;
  std::string mismatch;  // non-empty: output differs from an earlier one
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Generates the inputs from `seed` and builds what every repetition
  // shares. Called several times during a run, each time with another
  // seed; the repetitions on one set of inputs must match the first of
  // them bit for bit.
  virtual void Setup(uint64_t seed) = 0;
  // One repetition of the job. `trace` is null for untraced repetitions.
  // `speed` has just timed its loop; the repetition ends with a Lap() that
  // closes its last measured interval.
  virtual RepOutcome Rep(obs::TraceRecorder* trace, HostSpeed* speed) = 0;
  // Checks the output of the first repetition on the current inputs
  // against the oracle; may add per-layer values measured while doing so.
  // Returns an error message or "".
  virtual std::string Verify(LayerValues* layers) = 0;
};

// Times `fn` and records it as a span of `layer` on the calling thread
// (a no-op span when tracing is off).
template <typename Fn>
double TimedCall(const char* name, const char* layer, Fn&& fn) {
  obs::TraceSpan span(name, layer);
  const Clock::time_point t0 = Clock::now();
  fn();
  return Seconds(Clock::now() - t0);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const CovarMatrix& a, const CovarMatrix& b) {
  return a.num_features() == b.num_features() &&
         SameBits(a.payload().count, b.payload().count) &&
         SameBits(a.payload().sum, b.payload().sum) &&
         SameBits(a.payload().quad, b.payload().quad);
}

bool SameBits(const LinearModel& a, const LinearModel& b) {
  return SameBits(a.weights, b.weights) && SameBits(a.bias, b.bias);
}

bool SameBits(const KMeansResult& a, const KMeansResult& b) {
  if (a.centroids.size() != b.centroids.size()) return false;
  for (size_t c = 0; c < a.centroids.size(); ++c) {
    if (!SameBits(a.centroids[c], b.centroids[c])) return false;
  }
  return true;
}

bool SameBits(const DecisionTree& a, const DecisionTree& b) {
  if (a.num_nodes() != b.num_nodes()) return false;
  for (int i = 0; i < a.num_nodes(); ++i) {
    const DecisionTree::Node& x = a.node(i);
    const DecisionTree::Node& y = b.node(i);
    if (x.feature != y.feature || x.yes_child != y.yes_child ||
        !SameBits(x.prediction, y.prediction) ||
        !SameBits(x.pred.threshold, y.pred.threshold)) {
      return false;
    }
  }
  return true;
}

// Stores the first output of a kind, or compares a later one bit for bit
// and records the first mismatch.
template <typename T>
void Remember(std::optional<T>* ref, const T& got, const char* what,
              std::string* mismatch) {
  if (!ref->has_value()) {
    ref->emplace(got);
  } else if (mismatch->empty() && !SameBits(**ref, got)) {
    *mismatch = std::string(what) + " differs from the first one";
  }
}

// "" when every moment of `got` is within 1e-9 relative of `want`.
std::string CompareMoments(const CovarMatrix& got, const CovarMatrix& want,
                           const char* what) {
  if (got.num_features() != want.num_features()) {
    return std::string(what) + ": feature count differs";
  }
  const int n = want.num_features();
  for (int i = 0; i <= n; ++i) {
    for (int j = i; j <= n; ++j) {
      const double a = got.Moment(i, j);
      const double b = want.Moment(i, j);
      if (!(std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)))) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%s: moment (%d,%d) = %.17g vs %.17g",
                      what, i, j, a, b);
        return buf;
      }
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// learn: the paper's batch path over the Retailer join.
// ---------------------------------------------------------------------------

class LearnWorkload : public Workload {
 public:
  explicit LearnWorkload(double scale) : scale_(scale) {}

  void Setup(uint64_t seed) override {
    GenOptions gen;
    gen.scale = scale_;
    gen.seed = seed;
    // The previous inputs go first, so that two copies never coexist and
    // the peak memory does not depend on when the last set-up happened.
    root_batch_.clear();
    ds_.reset();
    ref_covar_.reset();
    ref_ridge_.reset();
    ref_km_.reset();
    ref_tree_.reset();
    ds_ = std::make_unique<Dataset>(MakeRetailer(gen));
    tree_features_.clear();
    for (size_t f = 0; f + 1 < ds_->features.size(); ++f) {
      tree_features_.push_back(
          {ds_->features[f].relation, ds_->features[f].attr, false});
    }
    // The root node's candidate batch exactly as DecisionTree::Train
    // builds it: every candidate split plus the always-true base split.
    response_node_ = ds_->query.IndexOf(ds_->response.relation);
    response_attr_ = ds_->query.relation(response_node_)
                         ->schema()
                         .MustIndexOf(ds_->response.attr);
    root_batch_ = BuildSplitCandidates(ds_->query, tree_features_,
                                       DecisionTreeOptions{}, nullptr);
    SplitCandidate base;
    base.node = response_node_;
    base.pred = Predicate::Ge(response_attr_,
                              -std::numeric_limits<double>::infinity());
    root_batch_.push_back(base);
  }

  // One repetition's fixed job: kKMeansPerRep times kRidgePerKMeans ridge
  // trainings and one Rk-means training, then one regression tree. A
  // ridge model trains in about a fifteenth of a tree's time and an
  // Rk-means model in about a quarter, so both are trained more than once:
  // a short call timed once per repetition samples the host's speed at a
  // single instant, and that speed changes from second to second
  // (README.md). Each training is its own measured interval between two
  // HostSpeed loops, and job_s is the sum of the trainings' times.
  RepOutcome Rep(obs::TraceRecorder* trace, HostSpeed* speed) override {
    obs::ThreadTraceScope scope(trace, "bench");
    RepOutcome out;
    Busy busy;
    DecisionTree dt;
    std::vector<double> factors;
    for (int k = 0; k < kKMeansPerRep; ++k) {
      for (int r = 0; r < kRidgePerKMeans; ++r) {
        const double ms = TrainRidge(&busy, &out);
        factors.push_back(speed->Lap());
        out.fresh_p50_ms.push_back(ms * factors.back());
        AddJob(ms * 1e-3, factors.back(), &out);
      }
      const double ms = TrainKMeans(&busy, &out);
      factors.push_back(speed->Lap());
      out.op_p50_ms.push_back(ms * factors.back());
      AddJob(ms * 1e-3, factors.back(), &out);
    }
    busy.tree_s = TimedCall("ml/tree", "ml", [&] {
      dt = DecisionTree::TrainRegression(ds_->query, ds_->response,
                                         tree_features_);
    });
    factors.push_back(speed->Lap());
    AddJob(busy.tree_s, factors.back(), &out);
    out.speed = Median(factors);
    ++out.attempted;
    if (dt.num_nodes() < 1) ++out.failed;
    Remember(&ref_tree_, dt, "regression tree", &out.mismatch);

    if (trace != nullptr) {
      // The tree's root-node aggregate batch, called directly: the one
      // split batch whose input does not depend on earlier splits.
      const double split_s = TimedCall("core/split-root", "core", [&] {
        (void)ComputeSplitStats(ds_->query, response_node_, response_attr_,
                                FilterSet(ds_->query.num_relations()),
                                root_batch_);
      });
      LayerValues& l = out.layers;
      l["query.prep_frac"] = Frac(busy.prep_s, out.measured_job_s);
      l["core.covar_batch_frac"] = Frac(busy.covar_s, out.measured_job_s);
      l["core.split_root_frac"] = Frac(split_s, busy.tree_s);
      l["ml.ridge_gd_frac"] = Frac(busy.gd_s, out.measured_job_s);
      l["ml.ridge_iters"] = busy.ridge_info.iterations;
      l["ml.tree_frac"] = Frac(busy.tree_s, out.measured_job_s);
      l["ml.tree_aggregates"] = static_cast<double>(dt.aggregates_evaluated());
      l["ml.tree_nodes"] = dt.num_nodes();
      l["ml.kmeans_frac"] = Frac(busy.kmeans_s, out.measured_job_s);
      l["ml.kmeans_iters"] = busy.km.iterations;
      l["ml.kmeans_coreset_points"] = static_cast<double>(busy.km.coreset_size);
    }
    return out;
  }

  std::string Verify(LayerValues*) override {
    if (!ref_covar_) return "learn: no repetition ran";
    if (!(ref_covar_->count() > 0)) return "learn: the join is empty";
    // Oracle: one scan per aggregate over the materialized join.
    FeatureMap fm(ds_->query, ds_->features);
    DataMatrix matrix = MaterializeJoin(ds_->RootAtFact(), fm);
    return CompareMoments(*ref_covar_, CovarByQueryAtATime(matrix),
                          "learn covariance batch vs query-at-a-time");
  }

 private:
  static constexpr int kKMeansPerRep = 2;
  static constexpr int kRidgePerKMeans = 3;

  // Seconds spent in each layer during one repetition, and the last
  // trainings' counters.
  struct Busy {
    double prep_s = 0;
    double covar_s = 0;
    double gd_s = 0;
    double kmeans_s = 0;
    double tree_s = 0;
    TrainInfo ridge_info;
    KMeansResult km;
  };

  static void AddJob(double measured_s, double factor, RepOutcome* out) {
    out->measured_job_s += measured_s;
    out->job_s += measured_s * factor;
  }

  // Returns the time to a trained ridge model (ms, as measured): join-tree
  // prep, covariance batch and solver.
  double TrainRidge(Busy* busy, RepOutcome* out) {
    std::optional<FeatureMap> fm;
    std::optional<RootedTree> tree;
    std::optional<CovarMatrix> covar;
    LinearModel ridge;
    // The partitioned parallel plan, run by the calling thread alone: at
    // this scale two workers were no faster than one (about 92 ms either
    // way), and their allocator arenas made the peak memory of a run vary
    // by a fifth from run to run (README.md).
    CovarEngineOptions covar_opts;
    covar_opts.mode = ExecMode::kSharedParallel;
    covar_opts.policy.threads = 1;

    const Clock::time_point t0 = Clock::now();
    busy->prep_s += TimedCall("query/prep", "query", [&] {
      fm.emplace(ds_->query, ds_->features);
      tree.emplace(ds_->RootAtFact());
    });
    const int response = fm->num_features() - 1;
    busy->covar_s += TimedCall("core/covar-batch", "core", [&] {
      covar.emplace(ComputeCovarMatrix(*tree, *fm, {}, covar_opts));
    });
    busy->gd_s += TimedCall("ml/ridge-gd", "ml", [&] {
      ridge = TrainRidgeGd(*covar, response, {}, {}, &busy->ridge_info);
    });
    const double ms = Ms(Clock::now() - t0);
    ++out->attempted;
    out->failed += Degenerate(ridge);
    Remember(&ref_covar_, *covar, "covariance batch", &out->mismatch);
    Remember(&ref_ridge_, ridge, "ridge model", &out->mismatch);
    return ms;
  }

  // Returns the Rk-means training call's time (ms, as measured).
  double TrainKMeans(Busy* busy, RepOutcome* out) {
    const FeatureMap fm(ds_->query, ds_->features);
    const RootedTree tree = ds_->RootAtFact();
    const double s = TimedCall("ml/kmeans", "ml", [&] {
      busy->km = RelationalKMeans(tree, fm, KMeansOptions{});
    });
    busy->kmeans_s += s;
    ++out->attempted;
    if (busy->km.centroids.empty()) ++out->failed;
    Remember(&ref_km_, busy->km, "k-means", &out->mismatch);
    return s * 1e3;
  }

  static uint64_t Degenerate(const LinearModel& m) {
    if (m.weights.empty() || !std::isfinite(m.bias)) return 1;
    for (double w : m.weights) {
      if (!std::isfinite(w)) return 1;
    }
    return 0;
  }

  double scale_;
  std::unique_ptr<Dataset> ds_;
  std::vector<TreeFeature> tree_features_;
  int response_node_ = -1;
  int response_attr_ = -1;
  std::vector<SplitCandidate> root_batch_;
  // The first training's output of each kind; every later one must match
  // it bit for bit.
  std::optional<CovarMatrix> ref_covar_;
  std::optional<LinearModel> ref_ridge_;
  std::optional<KMeansResult> ref_km_;
  std::optional<DecisionTree> ref_tree_;
};

// ---------------------------------------------------------------------------
// Stream workloads: a Retailer insert/delete stream through the pipeline.
// ---------------------------------------------------------------------------

// Records when each epoch became maintained and the per-node committed
// rows it covers (runs on the applier thread; read after Finish). With a
// `next` observer (a SnapshotServer) it first forwards the epoch, so the
// time recorded is when the epoch's snapshot was published.
class EpochLog : public StreamEpochObserver {
 public:
  struct Entry {
    Clock::time_point at;
    std::vector<size_t> watermark;
  };

  explicit EpochLog(size_t reserve, StreamEpochObserver* next = nullptr)
      : next_(next) {
    entries.reserve(reserve);
  }

  void OnEpochMaintained(uint64_t id,
                         const std::vector<size_t>& watermark) override {
    if (next_ != nullptr) next_->OnEpochMaintained(id, watermark);
    entries.push_back({Clock::now(), watermark});
  }

  std::vector<Entry> entries;

 private:
  StreamEpochObserver* next_;
};

class StreamWorkload : public Workload {
 public:
  explicit StreamWorkload(double scale) : scale_(scale) {}

  void Setup(uint64_t seed) override {
    GenOptions gen;
    gen.scale = scale_;
    gen.seed = seed;
    // The previous inputs go first, as in LearnWorkload::Setup.
    fm_.reset();
    stream_.clear();
    ds_.reset();
    ref_.reset();
    ds_ = std::make_unique<Dataset>(MakeRetailer(gen));
    // At the default delete_probability of 0.25 the mixed stream deletes
    // Retailer's small dimension tables empty and the join COUNT reads 0
    // through the whole stream; at 0.05 about one seed in eight still
    // empties one. So the rate is 0.05 and a delete batch that would leave
    // its relation without live rows is dropped. The stream stays valid:
    // every later delete retracts rows no kept batch retracted before.
    MixedStreamOptions mixed;
    mixed.insert.batch_size = 1000;
    mixed.insert.seed = seed;
    mixed.delete_probability = 0.05;
    std::vector<size_t> live(ds_->query.num_relations(), 0);
    for (UpdateBatch& b : BuildMixedStream(ds_->query, mixed)) {
      if (b.sign < 0) {
        if (b.rows.size() >= live[b.node]) continue;
        live[b.node] -= b.rows.size();
      } else {
        live[b.node] += b.rows.size();
      }
      stream_.push_back(std::move(b));
    }
    root_ = ds_->query.IndexOf(ds_->fact);
    fm_ = std::make_unique<FeatureMap>(ds_->query, ds_->features);
    rows_ = StreamRowCount(stream_);
    // Visibility bookkeeping: batch i is readable once the node's
    // committed rows reach its cumulative rows through batch i.
    cum_rows_.assign(stream_.size(), 0);
    std::vector<size_t> per_node(ds_->query.num_relations(), 0);
    for (size_t i = 0; i < stream_.size(); ++i) {
      per_node[stream_[i].node] += stream_[i].rows.size();
      cum_rows_[i] = per_node[stream_[i].node];
    }
  }

  std::string Verify(LayerValues* layers) override {
    if (!ref_) return "stream: no repetition ran";
    // Oracle: the single-threaded serial replay of the same epochs.
    ShadowDb shadow(ds_->query, root_);
    CovarFivm oracle(&shadow, fm_.get(), Policy(1));
    const Clock::time_point t0 = Clock::now();
    ReplayStream(&shadow, &oracle, stream_, StreamOptions{});
    (*layers)["stream.serial_replay_tps"] =
        rows_ / Seconds(Clock::now() - t0);
    const CovarMatrix want = oracle.Current();
    if (!(want.count() > 0)) return "stream: the final join COUNT is 0";
    return CheckAgainstOracle(want);
  }

 protected:
  static ExecPolicy Policy(int threads) {
    ExecPolicy p;
    p.threads = threads;
    p.partition_grain = 128;
    return p;
  }

  virtual std::string CheckAgainstOracle(const CovarMatrix& want) {
    return SameBits(*ref_, want) ? ""
                                 : "final Current() differs from ReplayStream";
  }

  // Latency of every batch from `sent_at` (its push, or in an open loop its
  // due time) until the first epoch in one pipeline's log that covers it;
  // batches never covered count as failed.
  std::vector<double> Freshness(const EpochLog& log,
                                const std::vector<Clock::time_point>& sent_at,
                                RepOutcome* out) const {
    std::vector<double> fresh_ms;
    size_t e = 0;
    for (size_t i = 0; i < stream_.size(); ++i) {
      const int node = stream_[i].node;
      while (e < log.entries.size() &&
             log.entries[e].watermark[node] < cum_rows_[i]) {
        ++e;
      }
      if (e == log.entries.size()) {
        ++out->failed;
        continue;
      }
      fresh_ms.push_back(Ms(log.entries[e].at - sent_at[i]));
    }
    return fresh_ms;
  }

  static void SetLatencies(const std::vector<double>& fresh_ms,
                           const std::vector<double>& op_ms, RepOutcome* out) {
    out->fresh_p50_ms = {Percentile(fresh_ms, 0.5)};
    out->fresh_p99_ms = Percentile(fresh_ms, 0.99);
    out->op_p50_ms = {Percentile(op_ms, 0.5)};
    out->op_p99_ms = Percentile(op_ms, 0.99);
  }

  // Closes a closed-loop repetition's measured interval and scales its
  // work times to the reference speed.
  static void ScaleToReference(HostSpeed* speed, RepOutcome* out) {
    out->speed = speed->Lap();
    out->job_s = out->measured_job_s * out->speed;
    for (double& ms : out->fresh_p50_ms) ms *= out->speed;
    for (double& ms : out->op_p50_ms) ms *= out->speed;
    out->fresh_p99_ms *= out->speed;
    out->op_p99_ms *= out->speed;
  }

  static void StageLayers(const StreamStats& s, double shards, double job_s,
                          LayerValues* l) {
    const double per = job_s * shards;
    (*l)["stream.apply_frac"] = Frac(s.apply_seconds, per);
    (*l)["stream.commit_frac"] = Frac(s.commit_seconds, per);
    (*l)["stream.compute_frac"] = Frac(s.compute_seconds, per);
    (*l)["stream.gate_wait_frac"] =
        Frac(s.commit_gate_wait_seconds + s.maintain_gate_wait_seconds +
                 s.compute_gate_wait_seconds,
             per);
    (*l)["stream.epochs"] = static_cast<double>(s.epochs);
    (*l)["stream.ranges"] = static_cast<double>(s.ranges);
    (*l)["stream.spec_hit_ratio"] = Frac(
        static_cast<double>(s.speculation_hits),
        static_cast<double>(s.speculated_ranges));
    (*l)["stream.spec_range_frac"] =
        Frac(static_cast<double>(s.speculated_ranges),
             static_cast<double>(s.ranges));
    (*l)["stream.ingress_high_water_rows"] =
        static_cast<double>(s.ingress_high_water_rows);
  }

  double scale_;
  std::unique_ptr<Dataset> ds_;
  std::vector<UpdateBatch> stream_;
  int root_ = -1;
  std::unique_ptr<FeatureMap> fm_;
  size_t rows_ = 0;
  std::vector<size_t> cum_rows_;
  std::optional<CovarMatrix> ref_;  // the first result on these inputs
};

// ingest: closed loop, the producer pushes as fast as backpressure allows.
class IngestWorkload : public StreamWorkload {
 public:
  using StreamWorkload::StreamWorkload;

  RepOutcome Rep(obs::TraceRecorder* trace, HostSpeed* speed) override {
    obs::ThreadTraceScope scope(trace, "bench");
    RepOutcome out;
    ShadowDb shadow(ds_->query, root_);
    CovarFivm fivm(&shadow, fm_.get(), Policy(kEngineThreads));
    std::vector<UpdateBatch> feed = stream_;  // moved into Push below
    std::vector<Clock::time_point> pushed_at(stream_.size());
    std::vector<double> push_ms;
    EpochLog log(stream_.size() + 1);
    StreamOptions options;
    options.trace = trace;
    StreamStats stats;
    double push_s = 0;
    double finish_s = 0;
    {
      StreamScheduler<CovarFivm> scheduler(&shadow, &fivm, options);
      scheduler.SetEpochObserver(&log);
      const Clock::time_point t0 = Clock::now();
      for (size_t i = 0; i < feed.size(); ++i) {
        Status st;
        pushed_at[i] = Clock::now();
        const double s = TimedCall("stream/push", "stream", [&] {
          st = scheduler.Push(std::move(feed[i]));
        });
        push_s += s;
        push_ms.push_back(s * 1e3);
        if (!st.ok()) ++out.failed;
      }
      Status fin;
      finish_s = TimedCall("stream/finish", "stream",
                           [&] { fin = scheduler.Finish(&stats); });
      out.measured_job_s = Seconds(Clock::now() - t0);
      if (!fin.ok()) ++out.failed;
      scheduler.SetEpochObserver(nullptr);
    }
    out.attempted = stream_.size() + 1;
    SetLatencies(Freshness(log, pushed_at, &out), push_ms, &out);
    ScaleToReference(speed, &out);
    Remember(&ref_, fivm.Current(), "final aggregate", &out.mismatch);
    if (trace != nullptr) {
      out.layers["stream.push_frac"] = Frac(push_s, out.measured_job_s);
      out.layers["stream.finish_frac"] = Frac(finish_s, out.measured_job_s);
      StageLayers(stats, 1, out.measured_job_s, &out.layers);
    }
    return out;
  }
};

// serve: the same stream in an open loop at a fixed rate, with one
// open-loop reader. Every batch and every read is timed from its due time,
// so a stall also counts against the requests that fall due during it.
class ServeWorkload : public StreamWorkload {
 public:
  static constexpr double kTuplesPerSecond = 400e3;
  static constexpr double kReadsPerSecond = 1000;

  using StreamWorkload::StreamWorkload;

  RepOutcome Rep(obs::TraceRecorder* trace, HostSpeed* speed) override {
    obs::ThreadTraceScope scope(trace, "bench");
    RepOutcome out;
    ShadowDb shadow(ds_->query, root_);
    CovarFivm fivm(&shadow, fm_.get(), Policy(kEngineThreads));
    std::vector<UpdateBatch> feed = stream_;
    const size_t n = stream_.size();
    const int response = fm_->num_features() - 1;
    // Each read advances the warm-started model by a fixed number of
    // gradient steps, so every read does the same solver work and the
    // latency tail shows the pipeline (gate waits), not how close the
    // solver happened to be to convergence.
    RidgeOptions refresh;
    refresh.max_iters = 100;
    refresh.tolerance = 0;
    const std::vector<int>& children =
        shadow.tree().node(shadow.tree().root()).children;
    const int groupby_node = children.empty() ? shadow.tree().root()
                                              : children[0];
    StreamOptions options;
    options.trace = trace;
    StreamStats stats;
    double push_s = 0;
    double finish_s = 0;

    // Batch i is due when the rows before it have been sent at the rate.
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
    std::vector<Clock::time_point> due(n);
    size_t before = 0;
    for (size_t i = 0; i < n; ++i) {
      due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(before /
                                                      kTuplesPerSecond));
      before += stream_[i].rows.size();
    }
    std::vector<double> push_late_ms;
    Reader reader;

    {
      StreamScheduler<CovarFivm> scheduler(&shadow, &fivm, options);
      SnapshotServer<CovarFivm> server(&scheduler, &shadow, &fivm);
      // Logs when each snapshot is published: a batch is visible from the
      // first snapshot whose watermark covers it.
      EpochLog published(n + 1, &server);
      scheduler.SetEpochObserver(&published);
      std::atomic<size_t> pushed{0};
      std::atomic<bool> finished{false};

      std::thread reader_thread([&] {
        obs::ThreadTraceScope reader_scope(trace, "reader");
        PreciseSleeps();
        const auto period = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(1.0 / kReadsPerSecond));
        size_t visible = 0;  // batches the newest snapshot covers
        Clock::time_point prev_end = t0;
        for (uint64_t j = 0; !finished.load(std::memory_order_acquire);
             ++j) {
          const Clock::time_point txn_due = t0 + period * j;
          WaitUntil(txn_due);
          const Clock::time_point start = Clock::now();
          reader.late_ms.push_back(WakeLagMs(txn_due, prev_end, start));
          obs::TraceSpan txn_span("serve/txn", "serve");
          SnapshotServer<CovarFivm>::ReadTxn txn;
          reader.begin_s += TimedCall("serve/begin", "serve",
                                      [&] { txn = server.BeginSnapshot(); });
          const std::vector<size_t>& wm = txn.watermark();
          while (visible < n &&
                 wm[stream_[visible].node] >= cum_rows_[visible]) {
            ++visible;
          }
          const size_t sent = pushed.load(std::memory_order_acquire);
          reader.staleness.push_back(
              sent > visible ? static_cast<double>(sent - visible) : 0.0);
          std::optional<CovarMatrix> covar;
          reader.covar_s += TimedCall("serve/covar-read", "serve",
                                      [&] { covar.emplace(server.Covar(txn)); });
          if (covar->count() >= 100) {
            reader.model_s += TimedCall("serve/model", "serve", [&] {
              (void)server.TrainModel(txn, response, refresh);
            });
          }
          if (j % 8 == 7) {
            reader.groupby_s += TimedCall("serve/groupby", "serve", [&] {
              (void)server.GroupBy(txn, groupby_node);
            });
          }
          server.EndSnapshot(&txn);
          txn_span.End();
          prev_end = Clock::now();
          reader.service_s += Seconds(prev_end - start);
          reader.read_ms.push_back(Ms(prev_end - txn_due));
        }
      });

      PreciseSleeps();
      Clock::time_point prev_end = t0;
      for (size_t i = 0; i < n; ++i) {
        std::this_thread::sleep_until(due[i]);
        push_late_ms.push_back(WakeLagMs(due[i], prev_end, Clock::now()));
        Status st;
        push_s += TimedCall("stream/push", "stream",
                            [&] { st = scheduler.Push(std::move(feed[i])); });
        prev_end = Clock::now();
        pushed.store(i + 1, std::memory_order_release);
        if (!st.ok()) ++out.failed;
      }
      Status fin;
      finish_s = TimedCall("stream/finish", "stream",
                           [&] { fin = scheduler.Finish(&stats); });
      out.job_s = out.measured_job_s = Seconds(Clock::now() - t0);
      if (!fin.ok()) ++out.failed;
      finished.store(true, std::memory_order_release);
      reader_thread.join();
      scheduler.SetEpochObserver(nullptr);
      if (trace != nullptr) {
        out.layers["serve.snapshots"] =
            static_cast<double>(server.published_snapshots());
      }
      SetLatencies(Freshness(published, due, &out), reader.read_ms, &out);
    }
    // The open loop's schedule, more than the host's speed, sets these
    // times, so they stay as measured (README.md).
    out.speed = speed->Lap();

    out.attempted = n + 1 + reader.read_ms.size();
    Remember(&ref_, fivm.Current(), "final aggregate", &out.mismatch);
    if (trace != nullptr) {
      LayerValues& l = out.layers;
      l["stream.push_frac"] = Frac(push_s, out.job_s);
      l["stream.finish_frac"] = Frac(finish_s, out.job_s);
      StageLayers(stats, 1, out.job_s, &l);
      l["serve.begin_frac"] = Frac(reader.begin_s, reader.service_s);
      l["serve.covar_frac"] = Frac(reader.covar_s, reader.service_s);
      l["serve.model_frac"] = Frac(reader.model_s, reader.service_s);
      l["serve.groupby_frac"] = Frac(reader.groupby_s, reader.service_s);
      l["serve.txns"] = static_cast<double>(reader.read_ms.size());
      l["serve.staleness_p99_batches"] = Percentile(reader.staleness, 0.99);
      l["gen.push_late_frac"] =
          Frac(Percentile(push_late_ms, 0.99), out.fresh_p50_ms[0]);
      l["gen.read_late_frac"] =
          Frac(Percentile(reader.late_ms, 0.99), out.fresh_p50_ms[0]);
    }
    return out;
  }

 private:
  struct Reader {
    std::vector<double> read_ms;
    std::vector<double> late_ms;
    std::vector<double> staleness;
    double begin_s = 0;
    double covar_s = 0;
    double model_s = 0;
    double groupby_s = 0;
    double service_s = 0;
  };

  // How late a generator thread woke for a request: from when it could
  // have sent it (the later of its due time and the return of the previous
  // call into the system) until it did. The request's latency is timed
  // from its due time and includes this lag, which the generator reports
  // separately as a health check.
  static double WakeLagMs(Clock::time_point due, Clock::time_point prev_end,
                          Clock::time_point start) {
    return Ms(start - std::max(due, prev_end));
  }

  // Sleeps end at the due time rather than up to the default 50 us timer
  // slack after it: the generator's own imprecision would otherwise be a
  // large share of a read that takes tens of microseconds.
  static void PreciseSleeps() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

  // The reader sleeps until kSpin before a read is due and spins for the
  // rest: even with the least timer slack, a wake-up on this host came
  // 11-43 us late (10th to 90th percentile), about as long as a read
  // takes (README.md).
  static void WaitUntil(Clock::time_point due) {
    std::this_thread::sleep_until(due - kSpin);
    while (Clock::now() < due) {
    }
  }
  static constexpr std::chrono::microseconds kSpin{50};
};

// durable: the stream through two checkpointing shards, then a recovery
// from their checkpoint files (Resume + full-stream replay).
class DurableWorkload : public StreamWorkload {
 public:
  static constexpr int kShards = 2;

  DurableWorkload(double scale, const std::string& work_dir)
      : StreamWorkload(scale), prefix_(work_dir + "/ckpt-") {
    std::error_code ec;
    std::filesystem::create_directories(work_dir, ec);
  }

  ~DurableWorkload() override { RemoveCheckpoints(); }

  void Setup(uint64_t seed) override {
    map_.reset();
    StreamWorkload::Setup(seed);
    map_ = std::make_unique<ShardMap>(
        ShardMap::ForQuery(ds_->query, root_, kShards));
  }

  RepOutcome Rep(obs::TraceRecorder* trace, HostSpeed* speed) override {
    obs::ThreadTraceScope scope(trace, "bench");
    RepOutcome out;
    RemoveCheckpoints();
    ShardedStreamOptions options;
    options.stream.checkpoint.every_epochs = 32;
    options.stream.trace = trace;
    options.checkpoint_prefix = prefix_;
    const size_t n = stream_.size();
    std::vector<double> push_ms;
    StreamStats total;
    double push_s = 0;
    double finish_s = 0;
    std::optional<CovarMatrix> merged;

    double ingest_s = 0;
    {
      ShardedStreamScheduler<CovarFivm> fleet(ds_->query, root_, fm_.get(),
                                              *map_, Policy(1), options);
      const Clock::time_point t0 = Clock::now();
      for (size_t i = 0; i < n; ++i) {
        Status st;
        const double s = TimedCall("shard/push", "shard",
                                   [&] { st = fleet.Push(stream_[i]); });
        push_s += s;
        push_ms.push_back(s * 1e3);
        if (!st.ok()) ++out.failed;
      }
      Status fin;
      finish_s = TimedCall("shard/finish", "shard",
                           [&] { fin = fleet.Finish(&total); });
      ingest_s = Seconds(Clock::now() - t0);
      if (!fin.ok()) ++out.failed;
      merged.emplace(fleet.MergedCurrent());
    }

    // Recovery: restore every shard from its last checkpoint and replay
    // the whole stream until the merged result has caught up.
    const Clock::time_point t1 = Clock::now();
    std::unique_ptr<ShardedStreamScheduler<CovarFivm>> recovered;
    Status resumed;
    const double resume_s = TimedCall("shard/resume", "shard", [&] {
      resumed = ShardedStreamScheduler<CovarFivm>::Resume(
          ds_->query, root_, fm_.get(), *map_, Policy(1), options,
          &recovered);
    });
    double replay_s = 0;
    if (resumed.ok()) {
      replay_s = TimedCall("shard/replay", "shard", [&] {
        for (const UpdateBatch& batch : stream_) {
          if (!recovered->Push(batch).ok()) ++out.failed;
        }
        if (!recovered->Finish().ok()) ++out.failed;
      });
    } else {
      ++out.failed;
    }
    // job_s is the ingest. The freshness slot, which the other stream
    // workloads fill with a batch's time until it is readable, holds the
    // time until the result is fresh again after a restart.
    const double recover_s = Seconds(Clock::now() - t1);
    out.measured_job_s = ingest_s;
    out.fresh_p50_ms = {recover_s * 1e3};
    out.op_p50_ms = {Percentile(push_ms, 0.5)};
    out.op_p99_ms = Percentile(push_ms, 0.99);
    out.attempted = 2 * n + 3;
    ScaleToReference(speed, &out);

    Remember(&ref_, *merged, "merged result", &out.mismatch);
    if (out.mismatch.empty() && resumed.ok() &&
        !SameBits(recovered->MergedCurrent(), *merged)) {
      out.mismatch = "recovered result differs from the uninterrupted run";
    }
    if (trace != nullptr) {
      LayerValues& l = out.layers;
      StageLayers(total, kShards, out.measured_job_s, &l);
      l["stream.ckpt_write_frac"] =
          Frac(total.checkpoint_seconds, out.measured_job_s * kShards);
      l["stream.ckpt_bytes_per_tuple"] =
          Frac(static_cast<double>(total.checkpoint_bytes),
               static_cast<double>(rows_));
      l["stream.ckpt_files"] = static_cast<double>(total.checkpoints_written);
      l["shard.push_frac"] = Frac(push_s, out.measured_job_s);
      l["shard.finish_frac"] = Frac(finish_s, out.measured_job_s);
      l["shard.resume_frac"] = Frac(resume_s, recover_s);
      l["shard.replay_frac"] = Frac(replay_s, recover_s);
    }
    return out;
  }

 protected:
  // Sharded results agree with the unsharded oracle only up to rounding:
  // the merge re-associates the ring sums across shards.
  std::string CheckAgainstOracle(const CovarMatrix& want) override {
    return CompareMoments(*ref_, want, "merged result vs unsharded oracle");
  }

 private:
  void RemoveCheckpoints() const {
    std::error_code ec;
    for (int s = 0; s < kShards; ++s) {
      std::filesystem::remove(
          ShardedStreamScheduler<CovarFivm>::ShardCheckpointPath(prefix_, s),
          ec);
    }
  }

  std::string prefix_;
  std::unique_ptr<ShardMap> map_;
};

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string trace_out;
  std::string work_dir = ".";
  bool smoke = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "relborg_bench: %s\nusage: relborg_bench --workload "
               "learn|ingest|serve|durable [--seed N] [--seconds S] "
               "[--trace-out FILE] [--work-dir DIR] [--smoke]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds > 0)) {
        Usage("bad --seconds");
      }
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  return a;
}

std::unique_ptr<Workload> MakeWorkload(const Args& a) {
  const double learn_scale = a.smoke ? 0.01 : 0.1;
  const double stream_scale = a.smoke ? 0.02 : 0.5;
  // A durable repetition ingests the stream and then recovers it; on half
  // the stream a run holds about three times as many repetitions.
  const double durable_scale = a.smoke ? 0.02 : 0.25;
  if (a.workload == "learn") {
    return std::make_unique<LearnWorkload>(learn_scale);
  }
  if (a.workload == "ingest") {
    return std::make_unique<IngestWorkload>(stream_scale);
  }
  if (a.workload == "serve") {
    return std::make_unique<ServeWorkload>(stream_scale);
  }
  if (a.workload == "durable") {
    return std::make_unique<DurableWorkload>(durable_scale, a.work_dir);
  }
  Usage("unknown --workload");
}

size_t CountSpans(const std::string& chrome_json) {
  static const std::string kSpan = "\"ph\":\"X\"";
  size_t count = 0;
  for (size_t at = chrome_json.find(kSpan); at != std::string::npos;
       at = chrome_json.find(kSpan, at + kSpan.size())) {
    ++count;
  }
  return count;
}

bool WriteFile(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(data.data(), 1, data.size(), f) == data.size();
  return std::fclose(f) == 0 && wrote;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintJsonResult(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Reported>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Run(const Args& args) {
  std::unique_ptr<Workload> w = MakeWorkload(args);
  const bool tracing = !args.trace_out.empty();
  // Tracing alternates untraced and traced repetitions, so it needs two.
  const size_t min_reps = (args.smoke ? 1 : 3) * (tracing ? 2 : 1);
  const Clock::duration run_length =
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(args.seconds));

  // Per-metric values, one per set-up, timed repetition or (on learn)
  // training; percentiles are taken within each repetition, so a slow
  // stretch of the host spoils single repetitions rather than the pooled
  // tail.
  std::map<std::string, std::vector<double>> series;
  // setup_s and job_s as measured, before scaling to the reference speed.
  std::map<std::string, std::vector<double>> measured;
  HostSpeed speed;
  Clock::time_point last_setup;
  Clock::duration setup_time{};  // of the set-ups among the repetitions
  uint64_t datasets = 0;
  auto setup = [&] {
    (void)speed.Lap();
    last_setup = Clock::now();
    // Each set-up makes the inputs from its own seed, derived from --seed,
    // so that a run measures several inputs rather than one (README.md).
    w->Setup(args.seed + datasets++ * 0x9E3779B97F4A7C15ULL);
    const Clock::duration took = Clock::now() - last_setup;
    setup_time += took;
    series["setup_s"].push_back(Seconds(took) * speed.Lap());
    measured["setup_s"].push_back(Seconds(took));
  };
  setup();
  if (!args.smoke) (void)w->Rep(nullptr, &speed);  // warm-up, discarded
  setup_time = {};

  std::vector<double> untraced_job_s;
  std::vector<double> traced_job_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t dropped = 0;
  std::string mismatch;
  std::unique_ptr<obs::TraceRecorder> last_trace;

  // The repetitions get the whole --seconds: the deadline moves by the
  // time the set-ups among them take.
  const Clock::time_point deadline = Clock::now() + run_length;
  for (size_t rep = 0;
       rep < min_reps ||
       (!args.smoke && Clock::now() < deadline + setup_time);
       ++rep) {
    // The host has slow stretches of several seconds. Set-ups done back to
    // back would all land in one, so they are spread over the run: a fresh
    // one about every fifth of it.
    if (!args.smoke && Clock::now() - last_setup >= run_length / kSetups) {
      setup();
    }
    const bool traced = tracing && rep % 2 == 1;
    std::unique_ptr<obs::TraceRecorder> recorder;
    if (traced) recorder = std::make_unique<obs::TraceRecorder>(1u << 16);
    RepOutcome o = w->Rep(recorder.get(), &speed);
    attempted += o.attempted;
    failed += o.failed;
    if (mismatch.empty() && !o.mismatch.empty()) mismatch = o.mismatch;
    series["gen.host_speed"].push_back(o.speed);
    if (!tracing) {
      series["job_s"].push_back(o.job_s);
      measured["job_s"].push_back(o.measured_job_s);
      std::vector<double>& fresh = series["fresh_p50_ms"];
      fresh.insert(fresh.end(), o.fresh_p50_ms.begin(), o.fresh_p50_ms.end());
      std::vector<double>& op = series["op_p50_ms"];
      op.insert(op.end(), o.op_p50_ms.begin(), o.op_p50_ms.end());
    } else if (!traced) {
      untraced_job_s.push_back(o.job_s);
      // The latency tails follow the host's CPU contention far more than
      // the system (README.md), so they have no regression bound; they are
      // taken from the untraced repetitions, as the end-to-end metrics are.
      series["gen.fresh_p99_ms"].push_back(o.fresh_p99_ms);
      series["gen.op_p99_ms"].push_back(o.op_p99_ms);
    } else {
      traced_job_s.push_back(o.job_s);
      dropped += recorder->dropped();
      o.layers["obs.trace_spans"] =
          static_cast<double>(CountSpans(recorder->ExportChromeJson()));
      for (const auto& [name, value] : o.layers) {
        series[name].push_back(value);
      }
      last_trace = std::move(recorder);
    }
  }
  series["peak_rss_mb"] = {PeakRssMb()};
  series["gen.loop_others_busy"] = {speed.max_others_busy()};

  LayerValues verify_layers;
  std::string error = w->Verify(&verify_layers);
  if (error.empty() && !mismatch.empty()) {
    error = args.workload + ": " + mismatch;
  }
  // The reference-speed factors assume the loop ran alone.
  if (error.empty() && speed.max_others_busy() > kMaxOthersBusy) {
    error = "other threads kept a CPU busy while the HostSpeed loop ran";
  }
  const bool correct = error.empty();
  if (!correct) {
    std::fprintf(stderr, "relborg_bench: FAILED: %s\n", error.c_str());
  }

  std::vector<Reported> out;
  if (!tracing) {
    for (const MetricDef& m : kEndToEnd) {
      const std::vector<double>& v = series[m.name];
      out.push_back(Summarize(m.name, m.unit, Median(v), v));
    }
  } else {
    for (const auto& [name, value] : verify_layers) series[name] = {value};
    series["obs.traced_over_untraced"] = {
        Frac(Median(untraced_job_s), Median(traced_job_s))};
    series["obs.trace_dropped"] = {static_cast<double>(dropped)};
    for (const MetricDef& m : kPerLayer) {
      // A layer this workload does not exercise reads 0.
      std::vector<double>& v = series[m.name];
      if (v.empty()) v.push_back(0.0);
      out.push_back(Summarize(m.name, m.unit, Median(v), v));
    }
    if (last_trace != nullptr &&
        !WriteFile(args.trace_out, last_trace->ExportChromeJson())) {
      std::fprintf(stderr, "relborg_bench: cannot write %s\n",
                   args.trace_out.c_str());
      return 2;
    }
  }

  for (const Reported& r : out) {
    std::printf("%-8s %-32s %14.6g %-9s (n=%zu, q1=%.6g, q3=%.6g",
                args.workload.c_str(), r.name.c_str(), r.value, r.unit.c_str(),
                r.n, r.q1, r.q3);
    if (measured.count(r.name) != 0) {
      std::printf(", measured %.6g", Median(measured[r.name]));
    }
    std::printf(")\n");
  }
  PrintJsonResult(correct, attempted, failed, out);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace relborg

int main(int argc, char** argv) {
  const relborg::Args args = relborg::ParseArgs(argc, argv);
  if (args.workload.empty()) relborg::Usage("--workload is required");
  return relborg::Run(args);
}
