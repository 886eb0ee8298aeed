// Golden-equivalence suite for the arena-backed covariance payload storage
// (ring/covar_arena.h): every span kernel against the reference
// CovarPayload ops of ring/covariance.h over kPropertySeeds, ring axioms on
// spans, scoped kernels against their dense counterparts, arena/view
// mechanics and edge cases, a thread sweep of the arena-backed engine (run
// under the TSan sibling config in CI), and a hot-loop allocation-count
// guard proving a CovarEngine batch allocates per KEY structure, never per
// row or per payload.
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <tuple>
#include <utility>
#include <vector>

#include "baseline/materializer.h"
#include "core/covar_engine.h"
#include "core/feature_map.h"
#include "gtest/gtest.h"
#include "ring/covar_arena.h"
#include "ring/covariance.h"
#include "tests/test_util.h"
#include "util/rng.h"

// --- Global allocation counter (for the hot-loop guard) -------------------
//
// Every operator new in this binary bumps the counter; the guard measures
// the count across engine calls. Replacing the global operators is
// standard-conformant and composes with the sanitizers (malloc stays
// intercepted).

namespace {
std::atomic<size_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace relborg {
namespace {

using testing::MakeRandomDb;
using testing::RandomDb;
using testing::ReferenceCovar;
using testing::Topology;

constexpr int kN = 7;

CovarPayload RandomPayload(int n, Rng* rng) {
  CovarPayload p = CovarPayload::Zero(n);
  p.count = rng->Uniform(0.0, 3.0);
  for (auto& s : p.sum) s = rng->Uniform(-2.0, 2.0);
  for (auto& q : p.quad) q = rng->Uniform(-2.0, 2.0);
  return p;
}

std::vector<double> SpanOf(const CovarPayload& p) {
  std::vector<double> span(CovarStride(static_cast<int>(p.sum.size())));
  CovarPayloadToSpan(p, span.data());
  return span;
}

void ExpectSpanEqPayload(int n, const std::vector<double>& span,
                         const CovarPayload& want) {
  const CovarPayload got = CovarPayloadFromSpan(n, span.data());
  EXPECT_EQ(got.count, want.count);
  for (int i = 0; i < n; ++i) EXPECT_EQ(got.sum[i], want.sum[i]) << "i=" << i;
  for (size_t i = 0; i < want.quad.size(); ++i) {
    EXPECT_EQ(got.quad[i], want.quad[i]) << "q=" << i;
  }
}

// FMA-aware golden compare: the kernels are built with -O3 -march=native,
// where GCC/Clang default to -ffp-contract=fast and may contract an
// `a * b + c` in the span kernel into one fused multiply-add while leaving
// the reference op's syntactically different expression uncontracted (or
// vice versa). A contracted FMA skips the intermediate rounding of the
// product, so the two results can differ by at most one ULP per affected
// term — a compile-time codegen choice, identical on every run and every
// thread count, so it does not weaken the repo's run-to-run determinism
// contract (which is about reproducibility of ONE binary, not about which
// of two correctly-rounded expressions the compiler emits). Accepting
// <= 1 ULP here keeps the goldens green without masking real kernel bugs:
// any indexing or accumulation-order mistake is off by far more than the
// last couple of bits. The bound is 2 ULPs because a kernel term has two
// contractible operations (the product and the accumulate), each worth at
// most one skipped rounding.
constexpr int kMaxUlps = 2;

::testing::AssertionResult WithinUlps(double got, double want) {
  double w = want;
  for (int step = 0; step <= kMaxUlps; ++step) {
    if (got == w) return ::testing::AssertionSuccess();
    w = std::nextafter(w, got);
  }
  return ::testing::AssertionFailure()
         << got << " vs " << want << " differs by more than " << kMaxUlps
         << " ULPs";
}

void ExpectSpanUlpEqPayload(int n, const std::vector<double>& span,
                            const CovarPayload& want) {
  const CovarPayload got = CovarPayloadFromSpan(n, span.data());
  EXPECT_TRUE(WithinUlps(got.count, want.count));
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(WithinUlps(got.sum[i], want.sum[i])) << "i=" << i;
  }
  for (size_t i = 0; i < want.quad.size(); ++i) {
    EXPECT_TRUE(WithinUlps(got.quad[i], want.quad[i])) << "q=" << i;
  }
}

void ExpectSpanNearPayload(int n, const std::vector<double>& span,
                           const CovarPayload& want, double tol = 1e-12) {
  const CovarPayload got = CovarPayloadFromSpan(n, span.data());
  EXPECT_NEAR(got.count, want.count, tol * (1 + std::abs(want.count)));
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(got.sum[i], want.sum[i], tol * (1 + std::abs(want.sum[i])));
  }
  for (size_t i = 0; i < want.quad.size(); ++i) {
    EXPECT_NEAR(got.quad[i], want.quad[i], tol * (1 + std::abs(want.quad[i])))
        << "q=" << i;
  }
}

std::vector<std::pair<int, double>> RandomFeats(int n, size_t count,
                                                Rng* rng) {
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  // Distinct feature indices in random order (the lift contract).
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng->Below(i + 1)]);
  }
  std::vector<std::pair<int, double>> feats;
  for (size_t k = 0; k < count; ++k) {
    feats.push_back({order[k], rng->Uniform(-2.0, 2.0)});
  }
  return feats;
}

// --- Golden equivalence: span kernels vs reference CovarPayload ops -------

class CovarArenaKernelGolden : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CovarArenaKernelGolden, AddMatchesReferenceBitForBit) {
  Rng rng(GetParam());
  CovarPayload a = RandomPayload(kN, &rng);
  const CovarPayload b = RandomPayload(kN, &rng);
  std::vector<double> sa = SpanOf(a);
  const std::vector<double> sb = SpanOf(b);
  CovarSpanAdd(CovarStride(kN), sa.data(), sb.data());
  CovarAddInPlace(&a, b);
  ExpectSpanEqPayload(kN, sa, a);
}

TEST_P(CovarArenaKernelGolden, MulMatchesReferenceBitForBit) {
  Rng rng(GetParam());
  const CovarPayload a = RandomPayload(kN, &rng);
  const CovarPayload b = RandomPayload(kN, &rng);
  std::vector<double> dst(CovarStride(kN), 7.0);  // overwritten
  CovarSpanMul(kN, SpanOf(a).data(), SpanOf(b).data(), dst.data());
  CovarPayload want;
  CovarMulInto(kN, a, b, &want);
  ExpectSpanEqPayload(kN, dst, want);
}

TEST_P(CovarArenaKernelGolden, MulAddMatchesReferenceBitForBit) {
  Rng rng(GetParam());
  const CovarPayload a = RandomPayload(kN, &rng);
  const CovarPayload b = RandomPayload(kN, &rng);
  CovarPayload acc = RandomPayload(kN, &rng);
  std::vector<double> dst = SpanOf(acc);
  CovarSpanMulAdd(kN, SpanOf(a).data(), SpanOf(b).data(), dst.data());
  CovarPayload prod;
  CovarMulInto(kN, a, b, &prod);
  CovarAddInPlace(&acc, prod);
  // MulAdd's a*b+acc is FMA-contractible; see ExpectSpanUlpEqPayload.
  ExpectSpanUlpEqPayload(kN, dst, acc);
}

TEST_P(CovarArenaKernelGolden, LiftMatchesReferenceBitForBit) {
  Rng rng(GetParam());
  const auto feats = RandomFeats(kN, 3, &rng);
  std::vector<double> dst(CovarStride(kN), 5.0);  // lift must zero the rest
  CovarSpanLift(kN, feats.data(), feats.size(), dst.data());
  CovarPayload want;
  CovarLiftInto(kN, feats, &want);
  ExpectSpanEqPayload(kN, dst, want);
}

TEST_P(CovarArenaKernelGolden, FusedLiftMulAddMatchesReference) {
  Rng rng(GetParam());
  for (size_t num_feats : {size_t{0}, size_t{1}, size_t{3}}) {
    const auto feats = RandomFeats(kN, num_feats, &rng);
    const CovarPayload prod = RandomPayload(kN, &rng);
    CovarPayload acc = RandomPayload(kN, &rng);
    std::vector<double> dst = SpanOf(acc);
    CovarSpanLiftMulAdd(kN, feats.data(), feats.size(), /*sign=*/1.0,
                        SpanOf(prod).data(), dst.data());
    // Reference: materialize the lift, multiply, add.
    CovarPayload lift;
    CovarLiftInto(kN, feats, &lift);
    CovarPayload mul;
    CovarMulInto(kN, lift, prod, &mul);
    CovarAddInPlace(&acc, mul);
    ExpectSpanNearPayload(kN, dst, acc);
  }
}

TEST_P(CovarArenaKernelGolden, FusedLiftMulMatchesReference) {
  Rng rng(GetParam());
  const auto feats = RandomFeats(kN, 2, &rng);
  const CovarPayload prod = RandomPayload(kN, &rng);
  std::vector<double> dst(CovarStride(kN), -3.0);  // overwritten
  CovarSpanLiftMul(kN, feats.data(), feats.size(), /*sign=*/1.0,
                   SpanOf(prod).data(), dst.data());
  CovarPayload lift;
  CovarLiftInto(kN, feats, &lift);
  CovarPayload want;
  CovarMulInto(kN, lift, prod, &want);
  ExpectSpanNearPayload(kN, dst, want);
}

TEST_P(CovarArenaKernelGolden, LeafLiftAddMatchesReferenceBitForBit) {
  Rng rng(GetParam());
  const auto feats = RandomFeats(kN, 3, &rng);
  CovarPayload acc = RandomPayload(kN, &rng);
  std::vector<double> dst = SpanOf(acc);
  // prod == nullptr means "multiply by ring One", i.e. add the bare lift.
  CovarSpanLiftMulAdd(kN, feats.data(), feats.size(), /*sign=*/1.0, nullptr,
                      dst.data());
  CovarPayload lift;
  CovarLiftInto(kN, feats, &lift);
  CovarAddInPlace(&acc, lift);
  // The bare-lift add contracts xi*xj+acc; see ExpectSpanUlpEqPayload.
  ExpectSpanUlpEqPayload(kN, dst, acc);
}

TEST_P(CovarArenaKernelGolden, SignedLiftMatchesScaledReference) {
  Rng rng(GetParam());
  const auto feats = RandomFeats(kN, 2, &rng);
  const CovarPayload prod = RandomPayload(kN, &rng);
  for (double sign : {-1.0, 1.0}) {
    CovarPayload acc = CovarPayload::Zero(kN);
    std::vector<double> dst = SpanOf(acc);
    CovarSpanLiftMulAdd(kN, feats.data(), feats.size(), sign,
                        SpanOf(prod).data(), dst.data());
    // Reference scales the lift after materializing it (the old
    // CovarIvmOps::Lift behavior).
    CovarPayload lift;
    CovarLiftInto(kN, feats, &lift);
    lift.count *= sign;
    for (double& s : lift.sum) s *= sign;
    for (double& q : lift.quad) q *= sign;
    CovarPayload mul;
    CovarMulInto(kN, lift, prod, &mul);
    CovarAddInPlace(&acc, mul);
    ExpectSpanNearPayload(kN, dst, acc);
  }
}

// Deletions must cancel insertions exactly: +lift then -lift restores the
// accumulator bit for bit (the ring's additive inverse).
TEST_P(CovarArenaKernelGolden, OppositeSignsCancelExactly) {
  Rng rng(GetParam());
  const auto feats = RandomFeats(kN, 3, &rng);
  const CovarPayload prod = RandomPayload(kN, &rng);
  const CovarPayload acc = RandomPayload(kN, &rng);
  std::vector<double> dst = SpanOf(acc);
  CovarSpanLiftMulAdd(kN, feats.data(), feats.size(), 1.0,
                      SpanOf(prod).data(), dst.data());
  CovarSpanLiftMulAdd(kN, feats.data(), feats.size(), -1.0,
                      SpanOf(prod).data(), dst.data());
  ExpectSpanNearPayload(kN, dst, acc);
}

// --- Scoped kernels vs dense counterparts ---------------------------------

// A payload that is zero outside `scope_feats` (the invariant factorized
// views establish by construction).
CovarPayload ScopedPayload(int n, const std::vector<int>& scope_feats,
                           Rng* rng) {
  CovarPayload p = CovarPayload::Zero(n);
  p.count = rng->Uniform(0.1, 3.0);
  for (int f : scope_feats) p.sum[f] = rng->Uniform(-2.0, 2.0);
  for (size_t a = 0; a < scope_feats.size(); ++a) {
    for (size_t b = a; b < scope_feats.size(); ++b) {
      int i = scope_feats[a];
      int j = scope_feats[b];
      if (i > j) std::swap(i, j);
      p.quad[UpperTriIndex(n, i, j)] = rng->Uniform(-2.0, 2.0);
    }
  }
  return p;
}

TEST_P(CovarArenaKernelGolden, ScopedMulMatchesDenseBitForBit) {
  Rng rng(GetParam());
  const std::vector<int> sa = {1, 4};
  const std::vector<int> sb = {0, 4, 6};
  const CovarPayload a = ScopedPayload(kN, sa, &rng);
  const CovarPayload b = ScopedPayload(kN, sb, &rng);
  const CovarScope scope = CovarScope::Union(kN, sa, sb);

  std::vector<double> dense(CovarStride(kN), 0.0);
  CovarSpanMul(kN, SpanOf(a).data(), SpanOf(b).data(), dense.data());
  std::vector<double> scoped(CovarStride(kN), 0.0);
  CovarSpanMulScoped(scope, SpanOf(a).data(), SpanOf(b).data(),
                     scoped.data());
  for (size_t i = 0; i < dense.size(); ++i) {
    EXPECT_EQ(scoped[i], dense[i]) << "entry " << i;
  }

  // Accumulating variant.
  const CovarPayload acc = RandomPayload(kN, &rng);
  std::vector<double> dense_acc = SpanOf(acc);
  std::vector<double> scoped_acc = SpanOf(acc);
  CovarSpanMulAdd(kN, SpanOf(a).data(), SpanOf(b).data(), dense_acc.data());
  CovarSpanMulAddScoped(scope, SpanOf(a).data(), SpanOf(b).data(),
                        scoped_acc.data());
  for (size_t i = 0; i < dense_acc.size(); ++i) {
    EXPECT_EQ(scoped_acc[i], dense_acc[i]) << "entry " << i;
  }
}

TEST_P(CovarArenaKernelGolden, ScopedLiftKernelsMatchDenseBitForBit) {
  Rng rng(GetParam());
  const std::vector<int> sp = {0, 2, 5};
  const CovarPayload prod = ScopedPayload(kN, sp, &rng);
  const std::vector<std::pair<int, double>> feats = {
      {3, rng.Uniform(-2.0, 2.0)}, {5, rng.Uniform(-2.0, 2.0)}};
  const CovarScope scope = CovarScope::Union(kN, sp, {3, 5});

  std::vector<double> dense(CovarStride(kN), 0.0);
  CovarSpanLiftMul(kN, feats.data(), feats.size(), 1.0, SpanOf(prod).data(),
                   dense.data());
  std::vector<double> scoped(CovarStride(kN), 0.0);
  CovarSpanLiftMulScoped(kN, scope, feats.data(), feats.size(), 1.0,
                         SpanOf(prod).data(), scoped.data());
  for (size_t i = 0; i < dense.size(); ++i) {
    EXPECT_EQ(scoped[i], dense[i]) << "entry " << i;
  }

  const CovarPayload acc = RandomPayload(kN, &rng);
  std::vector<double> dense_acc = SpanOf(acc);
  std::vector<double> scoped_acc = SpanOf(acc);
  CovarSpanLiftMulAdd(kN, feats.data(), feats.size(), 1.0,
                      SpanOf(prod).data(), dense_acc.data());
  CovarSpanLiftMulAddScoped(kN, CovarScope::Over(kN, sp), feats.data(),
                            feats.size(), 1.0, SpanOf(prod).data(),
                            scoped_acc.data());
  for (size_t i = 0; i < dense_acc.size(); ++i) {
    EXPECT_EQ(scoped_acc[i], dense_acc[i]) << "entry " << i;
  }
}

// --- Ring axioms on spans -------------------------------------------------

TEST_P(CovarArenaKernelGolden, RingAxiomsHoldOnSpans) {
  Rng rng(GetParam());
  const CovarPayload pa = RandomPayload(kN, &rng);
  const CovarPayload pb = RandomPayload(kN, &rng);
  const CovarPayload pc = RandomPayload(kN, &rng);
  const std::vector<double> a = SpanOf(pa);
  const std::vector<double> b = SpanOf(pb);
  const std::vector<double> c = SpanOf(pc);
  const size_t stride = CovarStride(kN);
  const double tol = 1e-9;

  // Addition commutes (bitwise: per-element sums).
  std::vector<double> ab = a;
  CovarSpanAdd(stride, ab.data(), b.data());
  std::vector<double> ba = b;
  CovarSpanAdd(stride, ba.data(), a.data());
  for (size_t i = 0; i < stride; ++i) EXPECT_EQ(ab[i], ba[i]);

  // Multiplication commutes (to rounding: term order differs).
  std::vector<double> mab(stride), mba(stride);
  CovarSpanMul(kN, a.data(), b.data(), mab.data());
  CovarSpanMul(kN, b.data(), a.data(), mba.data());
  for (size_t i = 0; i < stride; ++i) EXPECT_NEAR(mab[i], mba[i], tol);

  // Associativity (to rounding).
  std::vector<double> t1(stride), lhs(stride), t2(stride), rhs(stride);
  CovarSpanMul(kN, a.data(), b.data(), t1.data());
  CovarSpanMul(kN, t1.data(), c.data(), lhs.data());
  CovarSpanMul(kN, b.data(), c.data(), t2.data());
  CovarSpanMul(kN, a.data(), t2.data(), rhs.data());
  for (size_t i = 0; i < stride; ++i) {
    EXPECT_NEAR(lhs[i], rhs[i], tol * (1 + std::abs(lhs[i])));
  }

  // Distributivity: a * (b + c) == a*b + a*c (to rounding).
  std::vector<double> bc = b;
  CovarSpanAdd(stride, bc.data(), c.data());
  std::vector<double> l(stride);
  CovarSpanMul(kN, a.data(), bc.data(), l.data());
  std::vector<double> r1(stride), r2(stride);
  CovarSpanMul(kN, a.data(), b.data(), r1.data());
  CovarSpanMul(kN, a.data(), c.data(), r2.data());
  CovarSpanAdd(stride, r1.data(), r2.data());
  for (size_t i = 0; i < stride; ++i) {
    EXPECT_NEAR(l[i], r1[i], tol * (1 + std::abs(l[i])));
  }

  // One is multiplicative identity, Zero is additive identity (bitwise).
  const std::vector<double> one = SpanOf(CovarPayload::One(kN));
  std::vector<double> a_one(stride);
  CovarSpanMul(kN, a.data(), one.data(), a_one.data());
  for (size_t i = 0; i < stride; ++i) EXPECT_EQ(a_one[i], a[i]);
  const std::vector<double> zero = SpanOf(CovarPayload::Zero(kN));
  std::vector<double> a_zero = a;
  CovarSpanAdd(stride, a_zero.data(), zero.data());
  for (size_t i = 0; i < stride; ++i) EXPECT_EQ(a_zero[i], a[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CovarArenaKernelGolden,
                         ::testing::ValuesIn(relborg::testing::kPropertySeeds));

// --- Arena and view mechanics ---------------------------------------------

TEST(CovarArenaTest, StrideAndOffsets) {
  for (int n : {0, 1, 4, 12, 128}) {
    EXPECT_EQ(CovarStride(n), 1 + static_cast<size_t>(n) + UpperTriSize(n));
    EXPECT_EQ(CovarQuadOffset(n), 1 + static_cast<size_t>(n));
  }
  CovarArena arena(4);
  EXPECT_EQ(arena.stride(), CovarStride(4));
  EXPECT_EQ(arena.num_slots(), 0u);
}

TEST(CovarArenaTest, SlotsAreZeroInitializedAndStable) {
  CovarArena arena(3);
  const uint32_t s0 = arena.Allocate();
  EXPECT_EQ(s0, 0u);
  for (size_t i = 0; i < arena.stride(); ++i) {
    EXPECT_EQ(arena.Slot(s0)[i], 0.0);
  }
  arena.Slot(s0)[0] = 42.0;
  // Growth may move the buffer but never loses content.
  for (int k = 0; k < 100; ++k) arena.Allocate();
  EXPECT_EQ(arena.Slot(s0)[0], 42.0);
  EXPECT_EQ(arena.num_slots(), 101u);
}

TEST(CovarArenaViewTest, GetOrAddFindAndForEach) {
  CovarArenaView view(2);
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.Find(7), nullptr);

  double* a = view.GetOrAdd(7);
  a[0] = 1.0;
  EXPECT_EQ(view.size(), 1u);
  // Same key, same slot.
  EXPECT_EQ(view.GetOrAdd(7)[0], 1.0);
  EXPECT_EQ(view.size(), 1u);

  view.GetOrAdd(9)[0] = 2.0;
  view.GetOrAdd(11)[0] = 3.0;
  ASSERT_NE(view.Find(9), nullptr);
  EXPECT_EQ(view.Find(9)[0], 2.0);
  EXPECT_EQ(view.Find(12345), nullptr);

  double total = 0;
  size_t entries = 0;
  view.ForEach([&](uint64_t key, const double* span) {
    EXPECT_TRUE(key == 7 || key == 9 || key == 11);
    total += span[0];
    ++entries;
  });
  EXPECT_EQ(entries, 3u);
  EXPECT_EQ(total, 6.0);
}

TEST(CovarArenaViewTest, PayloadSpanRoundTrip) {
  Rng rng(99);
  const CovarPayload p = RandomPayload(kN, &rng);
  std::vector<double> span(CovarStride(kN));
  CovarPayloadToSpan(p, span.data());
  const CovarPayload back = CovarPayloadFromSpan(kN, span.data());
  EXPECT_EQ(back.count, p.count);
  EXPECT_EQ(back.sum, p.sum);
  EXPECT_EQ(back.quad, p.quad);
}

TEST(CovarArenaViewTest, UnitKeyAndZeroWidthPayloads) {
  // n == 0 payloads are a bare count (stride 1) — the root view of a
  // feature-less query still works.
  CovarArenaView view(0);
  EXPECT_EQ(view.stride(), 1u);
  double* span = view.GetOrAdd(kUnitKey);
  span[0] += 1.0;
  EXPECT_EQ(view.Find(kUnitKey)[0], 1.0);
}

// Views over different feature scopes have different strides, so a merge
// between two of them would read past the end of a slot. The width check
// aborts in every build type, once per merge call.
TEST(CovarArenaViewDeathTest, MismatchedWidthsAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  CovarArenaView narrow(2);
  narrow.GetOrAdd(kUnitKey)[0] = 1.0;
  CovarArenaView wide(3);
  EXPECT_DEATH(CovarArenaMergeInto(narrow, &wide), "num_features");
  EXPECT_DEATH(CovarArenaMergeInto(wide, &narrow), "num_features");
  EXPECT_DEATH(wide.Init(2), "n_ == n");
  // Equal widths merge.
  CovarArenaView same(2);
  CovarArenaMergeInto(narrow, &same);
  EXPECT_EQ(same.Find(kUnitKey)[0], 1.0);
}

// --- Engine equivalence under the thread sweep (TSan-covered) -------------

class CovarArenaEngineSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, Topology>> {};

TEST_P(CovarArenaEngineSweep, ParallelMatchesSerialBitForBitAndReference) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology, /*fact_rows=*/300);
  FeatureMap fm(db.query, db.features);
  RootedTree tree = db.query.Root(0);
  const int n = fm.num_features();

  ExecPolicy serial_policy;
  serial_policy.threads = 1;
  serial_policy.partition_grain = 16;
  CovarEngineOptions serial;
  serial.mode = ExecMode::kSharedParallel;
  serial.policy = serial_policy;
  const CovarMatrix want = ComputeCovarMatrix(tree, fm, {}, serial);

  for (int threads : {2, 4}) {
    ExecPolicy policy;
    policy.threads = threads;
    policy.partition_grain = 16;
    CovarEngineOptions options;
    options.mode = ExecMode::kSharedParallel;
    options.policy = policy;
    const CovarMatrix got = ComputeCovarMatrix(tree, fm, {}, options);
    for (int i = 0; i <= n; ++i) {
      for (int j = i; j <= n; ++j) {
        EXPECT_EQ(got.Moment(i, j), want.Moment(i, j))
            << "threads=" << threads << " (" << i << "," << j << ")";
      }
    }
  }

  // And the arena engine agrees with the materialized reference.
  DataMatrix matrix = MaterializeJoin(tree, fm);
  const CovarPayload ref = ReferenceCovar(matrix);
  ASSERT_NEAR(want.count(), ref.count, 1e-6 * (1 + std::abs(ref.count)));
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      const double r = ref.quad[UpperTriIndex(n, i, j)];
      EXPECT_NEAR(want.Moment(i, j), r, 1e-6 * (1 + std::abs(r)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomDbs, CovarArenaEngineSweep,
    ::testing::Combine(
        ::testing::ValuesIn(relborg::testing::kPropertySeedsSmall),
        ::testing::Values(Topology::kStar, Topology::kChain,
                          Topology::kBushy)));

// --- Hot-loop allocation guard --------------------------------------------

size_t AllocationsDuringBatch(const RootedTree& tree, const FeatureMap& fm) {
  CovarEngineOptions options;
  options.mode = ExecMode::kShared;
  const size_t before = g_alloc_count.load(std::memory_order_relaxed);
  CovarMatrix m = ComputeCovarMatrix(tree, fm, {}, options);
  const size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_GT(m.count(), 0.0);
  return after - before;
}

TEST(CovarArenaAllocGuard, BatchAllocatesPerKeyStructureNotPerRow) {
  // Same key domain, 8x the rows: the scan loop itself must not allocate,
  // so the allocation count may only move by a little map/arena growth
  // noise (the generated dimension tables differ slightly between the two
  // databases).
  RandomDb small = MakeRandomDb(3, Topology::kStar, /*fact_rows=*/500,
                                /*domain=*/16);
  RandomDb large = MakeRandomDb(3, Topology::kStar, /*fact_rows=*/4000,
                                /*domain=*/16);
  FeatureMap fm_small(small.query, small.features);
  FeatureMap fm_large(large.query, large.features);
  RootedTree tree_small = small.query.Root(0);
  RootedTree tree_large = large.query.Root(0);

  const size_t allocs_small = AllocationsDuringBatch(tree_small, fm_small);
  const size_t allocs_large = AllocationsDuringBatch(tree_large, fm_large);
  EXPECT_LE(allocs_large, allocs_small + 64)
      << "8x rows must not mean more allocations: the hot loop allocates";
}

TEST(CovarArenaAllocGuard, BatchAllocatesFarLessThanOnePerPayload) {
  // A wide key domain materializes ~1300 payload keys across the views.
  // The AoS representation paid >= 2 vector allocations per key (plus
  // rehash copies); the arena pays O(log) buffer growths per view.
  RandomDb db = MakeRandomDb(7, Topology::kStar, /*fact_rows=*/4000,
                             /*domain=*/512);
  FeatureMap fm(db.query, db.features);
  RootedTree tree = db.query.Root(0);
  size_t keys = 0;  // distinct join keys = payloads materialized
  for (int d = 1; d <= 3; ++d) {
    const Relation& rel = *db.query.relation(d);
    std::vector<bool> seen(512, false);
    for (size_t r = 0; r < rel.num_rows(); ++r) {
      seen[static_cast<size_t>(rel.AsDouble(r, 0))] = true;
    }
    for (bool s : seen) keys += s ? 1 : 0;
  }
  ASSERT_GT(keys, 1000u);

  const size_t allocs = AllocationsDuringBatch(tree, fm);
  EXPECT_LT(allocs, keys / 2)
      << "payload storage must be arena-backed, not one heap block per key";
}

}  // namespace
}  // namespace relborg
