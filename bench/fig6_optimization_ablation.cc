// Figure 6 reproduction: the optimization ladder for covariance-matrix
// computation. Starting from an unspecialized per-aggregate engine (the
// AC/DC-style baseline, 1x), each step adds one optimization:
//
//   + specialization   static per-node code paths instead of interpreted
//                      expressions and generic hash tables,
//   + sharing          one pass with the covariance ring instead of one
//                      pass per aggregate, each view storing only its
//                      subtree's moments (scope-width payloads),
//   + parallelization  task parallelism across subtrees and domain
//                      parallelism over the root relation.
//
// The paper reports cumulative speedups up to ~128x (4 vCPUs); sharing is
// the dominant step there and here (it removes the factor of #aggregates).
// The parallel step's headroom is bounded by the thread count
// (RELBORG_THREADS, default: the host's hardware concurrency).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/covar_engine.h"
#include "data/dataset.h"
#include "util/timer.h"

namespace relborg {
namespace {

void Run() {
  const double scale = 0.02 * bench::ScaleMultiplier();
  bench::PrintHeader("FIG 6",
                     "Covariance computation: added optimizations, relative "
                     "speedup over unspecialized per-aggregate baseline");
  std::printf("%-10s %6s | %9s %9s %9s %9s | speedups (cumulative)\n",
              "dataset", "#aggs", "base(s)", "+spec(s)", "+share(s)",
              "+par(s)");

  for (const std::string& name : DatasetNames()) {
    GenOptions gen;
    gen.scale = scale;
    Dataset ds = MakeDataset(name, gen);
    // Cap the feature count so the per-aggregate baselines stay in budget;
    // the ladder's shape is unaffected.
    if (ds.features.size() > 8) {
      std::vector<FeatureRef> trimmed(ds.features.end() - 8,
                                      ds.features.end());
      ds.features = trimmed;
    }
    FeatureMap fm(ds.query, ds.features);
    RootedTree tree = ds.RootAtFact();

    auto time_mode = [&](ExecMode mode) {
      CovarEngineOptions options;
      options.mode = mode;
      double best = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        WallTimer t;
        CovarMatrix m = ComputeCovarMatrix(tree, fm, {}, options);
        best = std::min(best, t.Seconds());
        (void)m;
      }
      return best;
    };

    double interpreted = time_mode(ExecMode::kPerAggregateInterpreted);
    double specialized = time_mode(ExecMode::kPerAggregate);
    double shared = time_mode(ExecMode::kShared);
    double parallel = time_mode(ExecMode::kSharedParallel);
    const int par_threads = ExecPolicy::FromEnv().threads;

    bench::Report("interpreted_seconds/" + name, interpreted, "s");
    bench::Report("specialized_seconds/" + name, specialized, "s");
    bench::Report("shared_seconds/" + name, shared, "s");
    bench::Report("parallel_seconds/" + name, parallel, "s", par_threads);
    bench::Report("cumulative_speedup/" + name, interpreted / parallel, "x",
                  par_threads);
    std::printf(
        "%-10s %6zu | %9.3f %9.3f %9.3f %9.3f | 1x -> %.1fx -> %.1fx "
        "-> %.1fx\n",
        name.c_str(), CovarBatchSize(fm.num_features()), interpreted,
        specialized, shared, parallel, interpreted / specialized,
        interpreted / shared, interpreted / parallel);
  }
  std::printf("\nPaper (4 vCPUs): cumulative speedups of roughly 2-6x "
              "(specialization), 10-60x (+sharing), 30-128x "
              "(+parallelization) depending on dataset.\n");
}

}  // namespace
}  // namespace relborg

int main(int argc, char** argv) {
  relborg::bench::InitReporting(&argc, argv, "fig6_optimization_ablation");
  relborg::Run();
  return 0;
}
