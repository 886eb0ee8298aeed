#include "ring/covar_arena.h"

#include <algorithm>
#include <utility>

namespace relborg {

CovarScope CovarScope::Over(int n, const std::vector<int>& features) {
  CovarScope scope;
  scope.n = n;
  scope.sum = features;
  std::sort(scope.sum.begin(), scope.sum.end());
  scope.sum.erase(std::unique(scope.sum.begin(), scope.sum.end()),
                  scope.sum.end());
  for (size_t a = 0; a < scope.sum.size(); ++a) {
    for (size_t b = a; b < scope.sum.size(); ++b) {
      const int i = scope.sum[a];
      const int j = scope.sum[b];
      scope.quad.push_back(
          {static_cast<uint32_t>(UpperTriIndex(n, i, j)), i, j});
    }
  }
  std::sort(scope.quad.begin(), scope.quad.end(),
            [](const QuadEntry& x, const QuadEntry& y) { return x.q < y.q; });
  return scope;
}

CovarScope CovarScope::Union(int n, const std::vector<int>& a,
                             const std::vector<int>& b) {
  std::vector<int> both = a;
  both.insert(both.end(), b.begin(), b.end());
  return Over(n, both);
}

namespace {

// Shared body of the scoped ring products: Assign selects = vs +=.
template <bool kAssign>
inline void ScopedMulImpl(const CovarScope& scope,
                          const double* RELBORG_RESTRICT a,
                          const double* RELBORG_RESTRICT b,
                          double* RELBORG_RESTRICT dst) {
  const double ca = a[kCovarCountOffset];
  const double cb = b[kCovarCountOffset];
  const double* RELBORG_RESTRICT as = a + kCovarSumOffset;
  const double* RELBORG_RESTRICT bs = b + kCovarSumOffset;
  double* RELBORG_RESTRICT ds = dst + kCovarSumOffset;
  if (kAssign) {
    dst[kCovarCountOffset] = ca * cb;
  } else {
    dst[kCovarCountOffset] += ca * cb;
  }
  for (int i : scope.sum) {
    const double v = cb * as[i] + ca * bs[i];
    if (kAssign) {
      ds[i] = v;
    } else {
      ds[i] += v;
    }
  }
  const size_t quad = CovarQuadOffset(scope.n);
  const double* RELBORG_RESTRICT aq = a + quad;
  const double* RELBORG_RESTRICT bq = b + quad;
  double* RELBORG_RESTRICT dq = dst + quad;
  for (const CovarScope::QuadEntry& e : scope.quad) {
    const double v =
        cb * aq[e.q] + ca * bq[e.q] + as[e.i] * bs[e.j] + bs[e.i] * as[e.j];
    if (kAssign) {
      dq[e.q] = v;
    } else {
      dq[e.q] += v;
    }
  }
}

}  // namespace

void CovarSpanMulScoped(const CovarScope& scope,
                        const double* RELBORG_RESTRICT a,
                        const double* RELBORG_RESTRICT b,
                        double* RELBORG_RESTRICT dst) {
  ScopedMulImpl<true>(scope, a, b, dst);
}

void CovarSpanMulAddScoped(const CovarScope& scope,
                           const double* RELBORG_RESTRICT a,
                           const double* RELBORG_RESTRICT b,
                           double* RELBORG_RESTRICT dst) {
  ScopedMulImpl<false>(scope, a, b, dst);
}

void CovarSpanLiftMulScoped(int n, const CovarScope& scope,
                            const std::pair<int, double>* feats,
                            size_t num_feats, double sign, const double* prod,
                            double* RELBORG_RESTRICT dst) {
  // Scoped copy of sign * prod (the lift's count is 1), then the sparse
  // lift corrections. The scope covers scope(prod) and the lifted
  // features, so every entry the corrections can make nonzero is assigned
  // first; outside the scope the corrections only ever add exact zeros to
  // zero entries.
  double* RELBORG_RESTRICT ds = dst + kCovarSumOffset;
  const double* RELBORG_RESTRICT ps = prod + kCovarSumOffset;
  dst[kCovarCountOffset] = sign * prod[kCovarCountOffset];
  for (int i : scope.sum) ds[i] = sign * ps[i];
  const size_t quad = CovarQuadOffset(n);
  const double* RELBORG_RESTRICT pq = prod + quad;
  double* RELBORG_RESTRICT dq = dst + quad;
  for (const CovarScope::QuadEntry& e : scope.quad) dq[e.q] = sign * pq[e.q];
  internal::LiftCorrections(n, feats, num_feats, sign, prod, dst);
}

void CovarSpanLiftMulAddScoped(int n, const CovarScope& scope,
                               const std::pair<int, double>* feats,
                               size_t num_feats, double sign,
                               const double* prod,
                               double* RELBORG_RESTRICT dst) {
  double* RELBORG_RESTRICT ds = dst + kCovarSumOffset;
  const double* RELBORG_RESTRICT ps = prod + kCovarSumOffset;
  dst[kCovarCountOffset] += sign * prod[kCovarCountOffset];
  for (int i : scope.sum) ds[i] += sign * ps[i];
  const size_t quad = CovarQuadOffset(n);
  const double* RELBORG_RESTRICT pq = prod + quad;
  double* RELBORG_RESTRICT dq = dst + quad;
  for (const CovarScope::QuadEntry& e : scope.quad) dq[e.q] += sign * pq[e.q];
  internal::LiftCorrections(n, feats, num_feats, sign, prod, dst);
}

CovarPayload CovarPayloadFromSpan(int n, const double* span) {
  CovarPayload p;
  p.count = span[kCovarCountOffset];
  p.sum.assign(span + kCovarSumOffset, span + kCovarSumOffset + n);
  p.quad.assign(span + CovarQuadOffset(n),
                span + CovarQuadOffset(n) + UpperTriSize(n));
  return p;
}

void CovarPayloadToSpan(const CovarPayload& p, double* span) {
  const int n = static_cast<int>(p.sum.size());
  span[kCovarCountOffset] = p.count;
  for (int i = 0; i < n; ++i) span[kCovarSumOffset + i] = p.sum[i];
  double* quad = span + CovarQuadOffset(n);
  for (size_t i = 0; i < p.quad.size(); ++i) quad[i] = p.quad[i];
}

void CovarArenaMergeInto(const CovarArenaView& src, CovarArenaView* dst) {
  RELBORG_CHECK(src.num_features() == dst->num_features());
  const size_t stride = src.stride();
  src.ForEach([&](uint64_t key, const double* span) {
    CovarSpanAdd(stride, dst->BeginMergeKey(key), span);
  });
  dst->PublishMerge();
}

}  // namespace relborg
