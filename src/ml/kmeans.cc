#include "ml/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/multiplicity.h"
#include "obs/trace.h"
#include "query/join_slots.h"
#include "util/check.h"
#include "util/flat_hash_map.h"
#include "util/rng.h"

namespace relborg {
namespace {

double Sq(double x) { return x * x; }

double Weight(const WeightedPoints& pts, size_t i) {
  return pts.weights.empty() ? 1.0 : pts.weights[i];
}

// x * y rounded on its own, never fused into the add that uses it. GCC
// fuses a product whose only use is an add wherever the target has FMA,
// even under -std=c++17; an FMA whose addend is -0.0, the additive
// identity, rounds the product alone and still vectorises.
double RoundedProduct(double x, double y) {
#if defined(__FP_FAST_FMA)
  return std::fma(x, y, -0.0);
#else
  return x * y;
#endif
}

void CheckOptions(const KMeansOptions& options) {
  RELBORG_CHECK(options.k >= 1 && options.max_iters >= 0);
}

// The Lloyd kernel over flat k*dims centroid arrays. D > 0 fixes the
// dimension count at compile time, so the distance loop unrolls and the
// centroid stride is a constant; D == 0 is the generic loop over run-time
// dims. Every variant does the same per-point arithmetic in the same order
// (squared differences summed in dims order, a strict < so ties go to the
// lowest centroid index), so all of them produce the same bits.
template <int D>
struct Kernel {
  int dims;  // == D when D > 0

  int Dims() const { return D > 0 ? D : dims; }

  const double* Point(const WeightedPoints& pts, size_t i) const {
    return pts.coords.data() + i * Dims();
  }

  // Squared differences summed in dims order. Where the target has FMA,
  // GCC fuses each square into its add, except where it vectorises the
  // generic loop: a full vector of squares is rounded before the in-order
  // adds. Four dims fill one such vector, so Kernel<4> rounds its squares.
  double Dist2(const double* a, const double* b) const {
    double d = 0;
    for (int i = 0; i < Dims(); ++i) {
      const double t = a[i] - b[i];
      d += D == 4 ? RoundedProduct(t, t) : Sq(t);
    }
    return d;
  }

  // Calls fn(i, c, d2) for every point i in order, with c its nearest of
  // the first k centroids and d2 the squared distance to it. Each point
  // meets the centroids in index order and keeps the first strictly
  // closest one.
  template <typename Fn>
  void ForEachNearest(const WeightedPoints& pts, const double* centroids,
                      int k, Fn&& fn) const {
    constexpr size_t kBlock = 256;
    const size_t n = pts.num_points();
    int best[kBlock];
    double best_d[kBlock];
    // With fixed dims, points go in blocks with the centroids in the outer
    // loop, so the compiler vectorises across the points of a block.
    // Generic dims scan one point at a time.
    const size_t block = D > 0 ? kBlock : 1;
    for (size_t lo = 0; lo < n; lo += block) {
      const size_t m = std::min(block, n - lo);
      const double* p = Point(pts, lo);
      std::fill_n(best, m, 0);
      std::fill_n(best_d, m, std::numeric_limits<double>::infinity());
      for (int c = 0; c < k; ++c) {
        const double* centroid = centroids + static_cast<size_t>(c) * Dims();
        for (size_t j = 0; j < m; ++j) {
          const double d = Dist2(p + j * Dims(), centroid);
          const bool closer = d < best_d[j];
          best[j] = closer ? c : best[j];
          best_d[j] = closer ? d : best_d[j];
        }
      }
      for (size_t j = 0; j < m; ++j) fn(lo + j, best[j], best_d[j]);
    }
  }

  // Weighted sum of squared distances to the nearest centroid; also stores
  // each point's nearest centroid into `assign` when it is non-null.
  double Objective(const WeightedPoints& pts, const double* centroids, int k,
                   int* assign) const {
    double obj = 0;
    ForEachNearest(pts, centroids, k, [&](size_t i, int c, double d) {
      if (assign != nullptr) assign[i] = c;
      obj += d * Weight(pts, i);
    });
    return obj;
  }
};

// Runs fn(kernel) with the kernel specialised for `dims`. A count is
// specialised only where the unrolled kernel gives the generic loop's
// bits: 1 to 3 dims, where both fuse every square into its add, and 4,
// where both round every square (see Dist2). Above 4 the generic loop
// rounds some squares and fuses others, by vector width; unrolled 5, 6
// and 12 moved bits with GCC 12 and AVX-512. tests/kmeans_test.cc checks
// every count from 1 to 12 against a scalar reference, so a
// specialisation that moves a bit fails there.
template <typename Fn>
auto WithKernel(int dims, Fn&& fn) {
  switch (dims) {
    case 1:
      return fn(Kernel<1>{1});
    case 2:
      return fn(Kernel<2>{2});
    case 3:
      return fn(Kernel<3>{3});
    case 4:
      return fn(Kernel<4>{4});
    default:
      return fn(Kernel<0>{dims});
  }
}

// Weighted k-means++ seeding; returns k flat centroids. dmin[i] is point
// i's squared distance to its nearest centroid so far: each round measures
// only the distance to the newest centroid, and the strict < keeps the
// value a scan over all centroids in index order finds. The draw and the
// pick scan add the weighted distances rounded, as stored ones would be.
template <int D>
std::vector<double> Seed(const Kernel<D>& kern, const WeightedPoints& pts,
                         int k, Rng* rng) {
  const size_t n = pts.num_points();
  const int dims = kern.Dims();
  std::vector<double> centroids(static_cast<size_t>(k) * dims);
  auto centroid = [&](int c) {
    return centroids.data() + static_cast<size_t>(c) * dims;
  };
  auto place = [&](int c, const double* p) {
    std::copy(p, p + dims, centroid(c));
  };
  // First centroid: weight-proportional.
  double total = 0;
  for (size_t i = 0; i < n; ++i) total += Weight(pts, i);
  double target = rng->Uniform() * total;
  size_t first = 0;
  for (size_t i = 0; i < n; ++i) {
    target -= Weight(pts, i);
    if (target <= 0) {
      first = i;
      break;
    }
  }
  place(0, kern.Point(pts, first));
  if (k == 1) return centroids;
  std::vector<double> dmin(n, std::numeric_limits<double>::infinity());
  for (int have = 1; have < k; ++have) {
    double sum = 0;
    kern.ForEachNearest(pts, centroid(have - 1), 1,
                        [&](size_t i, int, double d) {
                          dmin[i] = d < dmin[i] ? d : dmin[i];
                          sum += RoundedProduct(dmin[i], Weight(pts, i));
                        });
    if (sum <= 0) {
      // All mass on the centroids already; duplicate the last one.
      place(have, centroid(have - 1));
      continue;
    }
    double t = rng->Uniform() * sum;
    size_t pick = n - 1;
    for (size_t i = 0; i < n; ++i) {
      t -= RoundedProduct(dmin[i], Weight(pts, i));
      if (t <= 0) {
        pick = i;
        break;
      }
    }
    place(have, kern.Point(pts, pick));
  }
  return centroids;
}

// Weighted Lloyd iterations. When `assign_out` is non-null it receives each
// point's nearest final centroid: Lloyd's last assignment when the loop
// stopped because no assignment changed, a fresh pass otherwise.
template <int D>
KMeansResult Lloyd(const Kernel<D>& kern, const WeightedPoints& pts,
                   const KMeansOptions& options, std::vector<int>* assign_out) {
  KMeansResult result;
  const size_t n = pts.num_points();
  std::vector<int> local_assign;
  std::vector<int>& assign = assign_out != nullptr ? *assign_out
                                                   : local_assign;
  assign.assign(n, -1);
  if (n == 0) return result;
  const int dims = kern.Dims();
  const int k = std::min<int>(options.k, static_cast<int>(n));
  Rng rng(options.seed);
  std::vector<double> centroids = Seed(kern, pts, k, &rng);
  std::vector<double> sums(centroids.size());
  std::vector<double> mass(k);
  bool converged = false;
  int it = 0;
  for (; it < options.max_iters; ++it) {
    bool changed = false;
    kern.ForEachNearest(pts, centroids.data(), k,
                        [&](size_t i, int c, double) {
                          changed |= c != assign[i];
                          assign[i] = c;
                        });
    if (!changed && it > 0) {
      converged = true;
      break;
    }
    // Recompute weighted means, accumulating in point order.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(mass.begin(), mass.end(), 0.0);
    for (size_t i = 0; i < n; ++i) {
      const double w = Weight(pts, i);
      const double* p = kern.Point(pts, i);
      double* s = sums.data() + static_cast<size_t>(assign[i]) * dims;
      mass[assign[i]] += w;
      for (int d = 0; d < dims; ++d) s[d] += w * p[d];
    }
    for (int c = 0; c < k; ++c) {
      double* centroid = centroids.data() + static_cast<size_t>(c) * dims;
      if (mass[c] <= 0) {
        // Empty cluster: reseed at a uniformly drawn point.
        const double* p = kern.Point(pts, rng.Below(n));
        std::copy(p, p + dims, centroid);
        continue;
      }
      const double* s = sums.data() + static_cast<size_t>(c) * dims;
      for (int d = 0; d < dims; ++d) centroid[d] = s[d] / mass[c];
    }
  }
  result.iterations = it;
  const bool reassign = assign_out != nullptr && !converged;
  result.objective = kern.Objective(pts, centroids.data(), k,
                                    reassign ? assign.data() : nullptr);
  result.centroids.reserve(k);
  for (int c = 0; c < k; ++c) {
    const double* centroid = centroids.data() + static_cast<size_t>(c) * dims;
    result.centroids.emplace_back(centroid, centroid + dims);
  }
  return result;
}

KMeansResult RunLloyd(const WeightedPoints& pts, const KMeansOptions& options,
                      std::vector<int>* assign_out) {
  CheckOptions(options);
  return WithKernel(pts.dims, [&](const auto& kern) {
    return Lloyd(kern, pts, options, assign_out);
  });
}

// The points of `pts` without a NaN coordinate: `pts` itself when it has
// none, else a copy of the others (with their weights) in `kept`.
const WeightedPoints& NanFreePoints(const WeightedPoints& pts,
                                    WeightedPoints* kept) {
  const size_t n = pts.num_points();
  auto has_nan = [&](size_t i) {
    const double* p = pts.Point(i);
    return std::any_of(p, p + pts.dims, [](double x) { return std::isnan(x); });
  };
  size_t i = 0;
  while (i < n && !has_nan(i)) ++i;
  if (i == n) return pts;
  kept->dims = pts.dims;
  for (i = 0; i < n; ++i) {
    if (has_nan(i)) continue;
    kept->coords.insert(kept->coords.end(), pts.Point(i),
                        pts.Point(i) + pts.dims);
    if (!pts.weights.empty()) kept->weights.push_back(pts.weights[i]);
  }
  return *kept;
}

}  // namespace

double KMeansObjective(const WeightedPoints& points,
                       const std::vector<std::vector<double>>& centroids) {
  std::vector<double> flat;
  flat.reserve(centroids.size() * points.dims);
  for (const std::vector<double>& c : centroids) {
    RELBORG_CHECK(static_cast<int>(c.size()) >= points.dims);
    flat.insert(flat.end(), c.begin(), c.begin() + points.dims);
  }
  WeightedPoints kept;
  const WeightedPoints& pts = NanFreePoints(points, &kept);
  return WithKernel(pts.dims, [&](const auto& kern) {
    return kern.Objective(pts, flat.data(),
                          static_cast<int>(centroids.size()), nullptr);
  });
}

KMeansResult LloydKMeans(const WeightedPoints& pts,
                         const KMeansOptions& options) {
  WeightedPoints kept;
  return RunLloyd(NanFreePoints(pts, &kept), options, nullptr);
}

KMeansResult LloydKMeans(const DataMatrix& data, const KMeansOptions& options) {
  WeightedPoints pts;
  pts.dims = data.num_cols();
  if (data.num_rows() > 0) {
    pts.coords.assign(data.Row(0), data.Row(0) + data.num_rows() * pts.dims);
  }
  return LloydKMeans(pts, options);
}

namespace {

// The counting pass that makes the coreset weights exact. Its payloads map
// packed coreset keys (one byte per feature-bearing relation, centroid id
// + 1) to join-tuple counts; the ring product ORs the disjoint bytes.
// Packed keys can never equal the hash map's ~0 sentinel: that would need
// eight feature relations all assigned centroid id 254, which the
// per_relation_k cap in RelationalKMeans rules out.
struct KeyCount {
  uint64_t key;
  double count;
};

// A view payload below the root: its distinct keys, sorted, so that merging
// a row's entries is a binary search. When every relation is keyed by its
// parent edge's key (dimensions by their primary keys) it holds one entry.
using AssignPayload = std::vector<KeyCount>;

void MergeInto(const KeyCount& e, AssignPayload* dst) {
  auto it = std::lower_bound(
      dst->begin(), dst->end(), e.key,
      [](const KeyCount& a, uint64_t key) { return a.key < key; });
  if (it != dst->end() && it->key == e.key) {
    it->count += e.count;
  } else {
    dst->insert(it, e);
  }
}

// One bottom-up pass whose lift encodes each row's local centroid id in its
// relation's byte of the coreset key; rows failing `filters` join nothing.
// Each view is one payload per slot of its node's parent edge. Returns the
// root's counts, added row by row in row order and payload order, so the
// coreset's point order (the map's slot order) only depends on the
// sequence of keys the root rows produce.
//
// While every child payload a row meets holds one key, the row's product
// is one entry: the keys OR into it and the counts multiply into it in
// child order, the order the general product uses. The first multi-key
// payload turns that entry into the general product's first operand.
FlatHashMap<double> CountCoreset(
    const JoinSlots& slots, const FilterSet& filters,
    const std::vector<int>& byte_of_node,
    const std::vector<std::vector<int>>& local_assign) {
  const RootedTree& tree = slots.tree();
  std::vector<std::vector<AssignPayload>> views(tree.num_nodes());
  FlatHashMap<double> root_counts;
  std::vector<KeyCount> cur, nxt;
  for (int v : tree.postorder()) {
    const Relation& rel = tree.relation(v);
    const RootedNode& node = tree.node(v);
    const std::vector<Predicate>& preds = NodeFilters(filters, v);
    const bool is_root = v == tree.root();
    views[v].resize(slots.num_slots(v));
    for (size_t row = 0; row < rel.num_rows(); ++row) {
      if (!preds.empty() && !RowPasses(rel, row, preds)) continue;
      KeyCount one{0, 1.0};
      if (byte_of_node[v] >= 0) {
        one.key = static_cast<uint64_t>(local_assign[v][row] + 1)
                  << (8 * byte_of_node[v]);
      }
      bool single = true;
      bool dangling = false;
      for (int c : node.children) {
        const uint32_t slot = slots.ChildSlots(c)[row];
        if (slot == kNoSlot || views[c][slot].empty()) {
          dangling = true;
          break;
        }
        const AssignPayload& payload = views[c][slot];
        if (single && payload.size() == 1) {
          one.key |= payload[0].key;
          one.count *= payload[0].count;
          continue;
        }
        if (single) {
          cur.assign(1, one);
          single = false;
        }
        nxt.clear();
        for (const KeyCount& a : cur) {
          for (const KeyCount& b : payload) {
            nxt.push_back({a.key | b.key, a.count * b.count});
          }
        }
        cur.swap(nxt);
      }
      if (dangling) continue;
      auto add = [&](const KeyCount& e) {
        if (is_root) {
          root_counts[e.key] += e.count;
        } else {
          MergeInto(e, &views[v][slots.ParentSlots(v)[row]]);
        }
      };
      if (single) {
        add(one);
      } else {
        for (const KeyCount& e : cur) add(e);
      }
    }
  }
  return root_counts;
}

// Rows with a NaN feature are left out of Rk-means the way filtered rows
// are: x >= -inf fails exactly when x is NaN. Returns no filters at all
// when every feature value is a number.
FilterSet NanFreeFilters(const RootedTree& tree, const FeatureMap& fm,
                         const std::vector<int>& nodes_with_features) {
  FilterSet filters;
  for (int v : nodes_with_features) {
    const Relation& rel = tree.relation(v);
    for (const auto& [attr, f] : fm.NodeFeatures(v)) {
      bool has_nan = false;
      for (size_t row = 0; row < rel.num_rows() && !has_nan; ++row) {
        has_nan = std::isnan(rel.Double(row, attr));
      }
      if (!has_nan) continue;
      filters.resize(tree.num_nodes());
      filters[v].push_back(
          Predicate::Ge(attr, -std::numeric_limits<double>::infinity()));
    }
  }
  return filters;
}

}  // namespace

KMeansResult RelationalKMeans(const RootedTree& tree, const FeatureMap& fm,
                              const KMeansOptions& options) {
  CheckOptions(options);
  const int num_nodes = tree.num_nodes();
  const int dims = fm.num_features();
  // Feature-bearing nodes get bytes in the coreset key.
  std::vector<int> byte_of_node(num_nodes, -1);
  std::vector<int> nodes_with_features;
  for (int v = 0; v < num_nodes; ++v) {
    if (!fm.NodeFeatures(v).empty()) {
      byte_of_node[v] = static_cast<int>(nodes_with_features.size());
      nodes_with_features.push_back(v);
    }
  }
  RELBORG_CHECK_MSG(nodes_with_features.size() <= 8,
                    "coreset keys support at most 8 feature relations");
  RELBORG_CHECK(options.per_relation_k >= 1 && options.per_relation_k <= 200);

  const FilterSet filters = NanFreeFilters(tree, fm, nodes_with_features);

  // Both passes over the join read one index of its keys.
  const JoinSlots slots = [&] {
    RELBORG_TRACE_SPAN("query/join-slots", "query", -1, -1);
    return JoinSlots(tree);
  }();

  // Join multiplicities weight the per-relation clustering problems.
  std::vector<std::vector<double>> mult;
  {
    RELBORG_TRACE_SPAN("ml/kmeans-mult", "ml", -1, -1);
    mult = ComputeRowMultiplicities(slots, filters);
  }

  // Per-relation weighted k-means over the rows the filters keep; record
  // each row's centroid id (-1 for a row left out).
  std::vector<std::vector<std::vector<double>>> local_centroids(num_nodes);
  std::vector<std::vector<int>> local_assign(num_nodes);
  for (int v : nodes_with_features) {
    RELBORG_TRACE_SPAN("ml/kmeans-local", "ml", -1, v);
    const Relation& rel = tree.relation(v);
    const auto& feats = fm.NodeFeatures(v);
    const std::vector<Predicate>& preds = NodeFilters(filters, v);
    auto keep = [&](size_t row) {
      return preds.empty() || RowPasses(rel, row, preds);
    };
    WeightedPoints pts;
    pts.dims = static_cast<int>(feats.size());
    pts.coords.reserve(rel.num_rows() * feats.size());
    if (preds.empty()) pts.weights = std::move(mult[v]);
    for (size_t row = 0; row < rel.num_rows(); ++row) {
      if (!keep(row)) continue;
      for (const auto& [attr, f] : feats) {
        pts.coords.push_back(rel.Double(row, attr));
      }
      if (!preds.empty()) pts.weights.push_back(mult[v][row]);
    }
    KMeansOptions local = options;
    local.k = options.per_relation_k;
    std::vector<int>& assign = local_assign[v];
    local_centroids[v] = RunLloyd(pts, local, &assign).centroids;
    if (pts.num_points() < rel.num_rows()) {
      // Spread the points' assignments back over the rows.
      const std::vector<int> by_point = std::move(assign);
      assign.assign(rel.num_rows(), -1);
      size_t i = 0;
      for (size_t row = 0; row < rel.num_rows(); ++row) {
        if (keep(row)) assign[row] = by_point[i++];
      }
    }
  }

  FlatHashMap<double> counts;
  {
    RELBORG_TRACE_SPAN("ml/kmeans-count", "ml", -1, -1);
    counts = CountCoreset(slots, filters, byte_of_node, local_assign);
  }

  // Decode the coreset: one weighted point per packed assignment key.
  RELBORG_TRACE_SPAN("ml/kmeans-coreset", "ml", -1, -1);
  WeightedPoints coreset;
  coreset.dims = dims;
  coreset.coords.reserve(counts.size() * dims);
  coreset.weights.reserve(counts.size());
  counts.ForEach([&](uint64_t key, double weight) {
    const size_t base = coreset.coords.size();
    coreset.coords.resize(base + dims, 0.0);
    for (int v : nodes_with_features) {
      int byte = static_cast<int>((key >> (8 * byte_of_node[v])) & 0xFF);
      RELBORG_CHECK(byte > 0);  // every tuple passes every relation
      const std::vector<double>& c = local_centroids[v][byte - 1];
      const auto& feats = fm.NodeFeatures(v);
      for (size_t d = 0; d < feats.size(); ++d) {
        coreset.coords[base + feats[d].second] = c[d];
      }
    }
    coreset.weights.push_back(weight);
  });

  KMeansResult result = LloydKMeans(coreset, options);
  result.coreset_size = coreset.num_points();
  return result;
}

}  // namespace relborg
