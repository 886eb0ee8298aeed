// Arena-backed storage for covariance-ring payloads.
//
// FlatHashMap<CovarPayload> keeps two heap-allocated std::vectors inside
// every map slot, so the engines' inner loops chase pointers and pay an
// allocation per materialized key (plus vector copies on every rehash).
// Since every payload of one view has the SAME width n, the arena lays all
// of a view's payloads out in one contiguous buffer with a fixed stride of
//
//   CovarStride(n) = 1 + n + n(n+1)/2   doubles per slot:
//
//   span[0]                      count        SUM(1)
//   span[1 .. n]                 sum          SUM(x_i)
//   span[1+n .. CovarStride(n))  quad         SUM(x_i * x_j), packed upper
//                                             triangle (UpperTriIndex)
//
// and the per-key hash map shrinks to FlatHashMap<uint32_t> over arena slot
// ids. Slots are allocated append-only and never freed or compacted — views
// only ever accumulate keys (payloads may reach ring zero but their slots
// stay), mirroring FlatHashMap's no-erase contract — so a span pointer stays
// valid until the NEXT allocation from the same arena (growth may move the
// buffer). The ring kernels below operate on raw double spans in plain
// contiguous loops the compiler can autovectorize; the per-element
// expressions of CovarSpanAdd/Mul/Lift match ring/covariance.h's reference
// ops exactly, so the two representations agree bit for bit (the fused
// CovarSpanLiftMulAdd re-associates sums and agrees to rounding).
#ifndef RELBORG_RING_COVAR_ARENA_H_
#define RELBORG_RING_COVAR_ARENA_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "ring/covariance.h"
#include "util/check.h"
#include "util/flat_hash_map.h"

#if defined(__GNUC__) || defined(__clang__)
#define RELBORG_RESTRICT __restrict__
#else
#define RELBORG_RESTRICT
#endif

namespace relborg {

// Doubles per payload slot for n features.
inline size_t CovarStride(int n) {
  return 1 + static_cast<size_t>(n) + UpperTriSize(n);
}

// Offsets of the three sections within a slot.
inline constexpr size_t kCovarCountOffset = 0;
inline constexpr size_t kCovarSumOffset = 1;
inline size_t CovarQuadOffset(int n) { return 1 + static_cast<size_t>(n); }

// --- Span kernels ---------------------------------------------------------
//
// All dense kernels are defined inline: the decision-node engine calls
// them with the compile-time width n == 1, and inlining lets the compiler
// collapse the loops to straight-line scalar code there while still
// autovectorizing the runtime-n covariance paths.

// dst += src over a whole payload. count, sum and quad are contiguous, so
// the entire ring addition is one vectorizable loop.
inline void CovarSpanAdd(size_t stride, double* RELBORG_RESTRICT dst,
                         const double* RELBORG_RESTRICT src) {
  for (size_t i = 0; i < stride; ++i) dst[i] += src[i];
}

// dst = a * b (ring product). dst must not alias a or b. Element
// expressions are identical to CovarMulInto.
inline void CovarSpanMul(int n, const double* RELBORG_RESTRICT a,
                         const double* RELBORG_RESTRICT b,
                         double* RELBORG_RESTRICT dst) {
  const double ca = a[kCovarCountOffset];
  const double cb = b[kCovarCountOffset];
  const double* RELBORG_RESTRICT as = a + kCovarSumOffset;
  const double* RELBORG_RESTRICT bs = b + kCovarSumOffset;
  double* RELBORG_RESTRICT ds = dst + kCovarSumOffset;
  dst[kCovarCountOffset] = ca * cb;
  for (int i = 0; i < n; ++i) {
    ds[i] = cb * as[i] + ca * bs[i];
  }
  const size_t quad = CovarQuadOffset(n);
  const double* RELBORG_RESTRICT aq = a + quad;
  const double* RELBORG_RESTRICT bq = b + quad;
  double* RELBORG_RESTRICT dq = dst + quad;
  size_t idx = 0;
  for (int i = 0; i < n; ++i) {
    const double asi = as[i];
    const double bsi = bs[i];
    for (int j = i; j < n; ++j, ++idx) {
      dq[idx] = cb * aq[idx] + ca * bq[idx] + asi * bs[j] + bsi * as[j];
    }
  }
}

// dst += a * b (ring product folded straight into the accumulator — the
// tail of a child-product chain never materializes its last intermediate).
// dst must not alias a or b.
inline void CovarSpanMulAdd(int n, const double* RELBORG_RESTRICT a,
                            const double* RELBORG_RESTRICT b,
                            double* RELBORG_RESTRICT dst) {
  const double ca = a[kCovarCountOffset];
  const double cb = b[kCovarCountOffset];
  const double* RELBORG_RESTRICT as = a + kCovarSumOffset;
  const double* RELBORG_RESTRICT bs = b + kCovarSumOffset;
  double* RELBORG_RESTRICT ds = dst + kCovarSumOffset;
  dst[kCovarCountOffset] += ca * cb;
  for (int i = 0; i < n; ++i) {
    ds[i] += cb * as[i] + ca * bs[i];
  }
  const size_t quad = CovarQuadOffset(n);
  const double* RELBORG_RESTRICT aq = a + quad;
  const double* RELBORG_RESTRICT bq = b + quad;
  double* RELBORG_RESTRICT dq = dst + quad;
  size_t idx = 0;
  for (int i = 0; i < n; ++i) {
    const double asi = as[i];
    const double bsi = bs[i];
    for (int j = i; j < n; ++j, ++idx) {
      dq[idx] += cb * aq[idx] + ca * bq[idx] + asi * bs[j] + bsi * as[j];
    }
  }
}

// dst = lift of one tuple (count 1, sum[f] = v, quad(f, g) = v_f * v_g for
// the given (feature, value) pairs, zero elsewhere). Matches CovarLiftInto.
inline void CovarSpanLift(int n, const std::pair<int, double>* feats,
                          size_t num_feats, double* RELBORG_RESTRICT dst) {
  const size_t stride = CovarStride(n);
  for (size_t i = 0; i < stride; ++i) dst[i] = 0.0;
  dst[kCovarCountOffset] = 1.0;
  double* RELBORG_RESTRICT sum = dst + kCovarSumOffset;
  double* RELBORG_RESTRICT quad = dst + CovarQuadOffset(n);
  for (size_t k = 0; k < num_feats; ++k) {
    sum[feats[k].first] = feats[k].second;
  }
  for (size_t a = 0; a < num_feats; ++a) {
    for (size_t b = a; b < num_feats; ++b) {
      int i = feats[a].first;
      int j = feats[b].first;
      if (i > j) {
        int t = i;
        i = j;
        j = t;
      }
      quad[UpperTriIndex(n, i, j)] = feats[a].second * feats[b].second;
    }
  }
}

namespace internal {

// Sparse corrections shared by the fused lift kernels: adds the terms of
// sign * lift(feats) * prod that a dense sign * prod pass does not cover
// (see the derivation at CovarSpanLiftMulAdd).
inline void LiftCorrections(int n, const std::pair<int, double>* feats,
                            size_t num_feats, double sign, const double* prod,
                            double* RELBORG_RESTRICT dst) {
  double* RELBORG_RESTRICT sum = dst + kCovarSumOffset;
  double* RELBORG_RESTRICT quad = dst + CovarQuadOffset(n);
  const double cp = prod[kCovarCountOffset];
  const double* RELBORG_RESTRICT ps = prod + kCovarSumOffset;
  for (size_t k = 0; k < num_feats; ++k) {
    const int f = feats[k].first;
    const double v = sign * feats[k].second;
    sum[f] += cp * v;
    // Cross moments v_f * s_P[j] land in column f of the triangle for
    // j < f and in row f for j >= f; the diagonal term appears twice in
    // s_L * s_P^T + s_P * s_L^T.
    size_t idx = UpperTriIndex(n, 0, f);
    for (int j = 0; j < f; ++j) {
      quad[idx] += v * ps[j];
      idx += static_cast<size_t>(n - j - 1);
    }
    double* RELBORG_RESTRICT row = quad + UpperTriIndex(n, f, f);
    const double* RELBORG_RESTRICT tail = ps + f;
    const int len = n - f;
    for (int j = 0; j < len; ++j) {
      row[j] += v * tail[j];
    }
    quad[UpperTriIndex(n, f, f)] += v * ps[f];
    // Lifted-pair quads scale by prod's count.
    for (size_t b = k; b < num_feats; ++b) {
      int i = f;
      int j = feats[b].first;
      if (i > j) {
        int t = i;
        i = j;
        j = t;
      }
      quad[UpperTriIndex(n, i, j)] += cp * v * feats[b].second;
    }
  }
}

}  // namespace internal

// Fused lift-multiply-accumulate: dst += sign * lift(feats) * prod, where
// `prod` is the (dense) product of the row's child payloads, or the ring
// One when nullptr (leaf nodes). No intermediate payload is materialized;
// the lift's sparsity turns the O(n^2) ring product into one contiguous
// dst += sign * prod pass plus O(num_feats * n) sparse corrections:
//
//   count += sign * c_P
//   sum    += sign * s_P            and   sum[f] += sign * c_P * v_f
//   quad   += sign * q_P            and   quad(f, j) += sign * v_f * s_P[j]
//                                         (doubled at j == f),
//                                         quad(f, g) += sign * c_P * v_f*v_g
//
// which is exactly sign * (lift * prod) by the ring product rule, summed in
// a fixed, data-dependent order (deterministic for any thread count).
inline void CovarSpanLiftMulAdd(int n, const std::pair<int, double>* feats,
                                size_t num_feats, double sign,
                                const double* prod,
                                double* RELBORG_RESTRICT dst) {
  if (prod == nullptr) {
    // Leaf: dst += sign * lift. Only the lift's sparse entries move —
    // O(num_feats^2) work per row instead of O(n^2).
    double* RELBORG_RESTRICT sum = dst + kCovarSumOffset;
    double* RELBORG_RESTRICT quad = dst + CovarQuadOffset(n);
    dst[kCovarCountOffset] += sign;
    for (size_t k = 0; k < num_feats; ++k) {
      sum[feats[k].first] += sign * feats[k].second;
    }
    for (size_t a = 0; a < num_feats; ++a) {
      for (size_t b = a; b < num_feats; ++b) {
        int i = feats[a].first;
        int j = feats[b].first;
        if (i > j) {
          int t = i;
          i = j;
          j = t;
        }
        quad[UpperTriIndex(n, i, j)] +=
            sign * feats[a].second * feats[b].second;
      }
    }
    return;
  }

  // Dense part: lift.count == 1 contributes sign * prod across the whole
  // slot (count, sum and quad at once) — one contiguous loop — then the
  // lift's nonzeros add their sparse corrections.
  const size_t stride = CovarStride(n);
  for (size_t i = 0; i < stride; ++i) dst[i] += sign * prod[i];
  internal::LiftCorrections(n, feats, num_feats, sign, prod, dst);
}

// dst = sign * lift(feats) * prod (overwriting dst; prod must not alias
// dst and must be non-null). The head of a multi-child product chain: the
// lift folds into the first child payload for O(stride + num_feats * n)
// instead of a dense O(n^2) ring product.
inline void CovarSpanLiftMul(int n, const std::pair<int, double>* feats,
                             size_t num_feats, double sign, const double* prod,
                             double* RELBORG_RESTRICT dst) {
  const size_t stride = CovarStride(n);
  for (size_t i = 0; i < stride; ++i) dst[i] = sign * prod[i];
  internal::LiftCorrections(n, feats, num_feats, sign, prod, dst);
}

// --- Scoped kernels -------------------------------------------------------
//
// A factorized view's payload is nonzero only on the features of its
// subtree (its SCOPE) — e.g. a dimension view over 1 of n features carries
// n - 1 structurally-zero sums and almost n(n+1)/2 zero quads. Scopes are a
// pure function of the join tree and the feature map, so the engines
// precompute one CovarScope per product step at plan time and the scoped
// kernels only touch the live entries. The per-element expressions are the
// ones of the dense kernels, so computed entries agree bit for bit; skipped
// entries are exact zeros in both representations. Invariant required of
// all inputs (and preserved for all outputs): payload entries outside a
// span's scope are exactly 0.0 — arena slots are born zero-filled and the
// kernels only ever add zero outside their scope, so the invariant holds by
// construction.

// One product step's live entries: the union of the operand scopes.
struct CovarScope {
  struct QuadEntry {
    uint32_t q;  // packed UpperTriIndex(n, i, j)
    int32_t i;
    int32_t j;
  };
  int n = 0;                    // feature width of the payloads
  std::vector<int> sum;         // live feature indices, ascending
  std::vector<QuadEntry> quad;  // live (i <= j) pairs, ascending by q

  // A scope covering every feature: the contiguous dense kernels beat the
  // scoped (gather-indexed) ones, so callers dispatch on this.
  bool IsDense() const { return sum.size() == static_cast<size_t>(n); }

  // Builds the scope over the given (possibly unsorted) feature set.
  static CovarScope Over(int n, const std::vector<int>& features);
  // Union of two feature sets, as a scope.
  static CovarScope Union(int n, const std::vector<int>& a,
                          const std::vector<int>& b);
};

// dst = a * b restricted to the scope's entries (assign; entries outside
// the scope are left untouched — they must already be zero).
void CovarSpanMulScoped(const CovarScope& scope, const double* RELBORG_RESTRICT a,
                        const double* RELBORG_RESTRICT b,
                        double* RELBORG_RESTRICT dst);

// dst += a * b restricted to the scope's entries.
void CovarSpanMulAddScoped(const CovarScope& scope,
                           const double* RELBORG_RESTRICT a,
                           const double* RELBORG_RESTRICT b,
                           double* RELBORG_RESTRICT dst);

// dst = sign * lift(feats) * prod with the dense copy restricted to the
// scope (which must cover scope(prod) UNION the lifted features).
void CovarSpanLiftMulScoped(int n, const CovarScope& scope,
                            const std::pair<int, double>* feats,
                            size_t num_feats, double sign, const double* prod,
                            double* RELBORG_RESTRICT dst);

// dst += sign * lift(feats) * prod with the dense add restricted to the
// scope (which must cover scope(prod); the lift's terms are sparse
// corrections regardless).
void CovarSpanLiftMulAddScoped(int n, const CovarScope& scope,
                               const std::pair<int, double>* feats,
                               size_t num_feats, double sign,
                               const double* prod,
                               double* RELBORG_RESTRICT dst);

// Conversions between the two representations (result extraction, tests).
CovarPayload CovarPayloadFromSpan(int n, const double* span);
void CovarPayloadToSpan(const CovarPayload& p, double* span);

// --- Arena and arena-backed view ------------------------------------------

// Append-only slab of fixed-stride payload slots, addressed by 32-bit ids.
class CovarArena {
 public:
  CovarArena() = default;
  explicit CovarArena(int n) { Init(n); }

  // Sets the feature width. Must be called before the first Allocate; a
  // repeated Init with the same n is a no-op, a different n aborts.
  void Init(int n) {
    RELBORG_CHECK(n_ < 0 || n_ == n);
    n_ = n;
    stride_ = CovarStride(n);
  }

  bool initialized() const { return n_ >= 0; }
  int num_features() const { return n_; }
  size_t stride() const { return stride_; }
  size_t num_slots() const { return num_slots_; }
  size_t bytes() const { return data_.capacity() * sizeof(double); }

  // Appends one zero-initialized slot and returns its id. Invalidates span
  // pointers previously handed out by Slot (the buffer may move).
  uint32_t Allocate() {
    RELBORG_DCHECK(initialized());
    data_.resize(data_.size() + stride_, 0.0);
    return static_cast<uint32_t>(num_slots_++);
  }

  double* Slot(uint32_t id) {
    RELBORG_DCHECK(id < num_slots_);
    return data_.data() + static_cast<size_t>(id) * stride_;
  }
  const double* Slot(uint32_t id) const {
    RELBORG_DCHECK(id < num_slots_);
    return data_.data() + static_cast<size_t>(id) * stride_;
  }

 private:
  int n_ = -1;
  size_t stride_ = 0;
  size_t num_slots_ = 0;
  std::vector<double> data_;
};

// A version snapshot of a CovarArenaView: the pair (published slot count,
// publication counter) read in one atomic acquire. Because slots are
// allocated append-only and ids ascend by allocation time, `slots` is a
// watermark: exactly the slots with id < slots existed when the snapshot
// was taken. `version` counts published merges and backs the stream
// scheduler's speculation validity check — equal versions imply an
// unchanged view, hence bit-identical reads.
struct CovarViewSnapshot {
  uint32_t slots = 0;
  uint32_t version = 0;
};

// A factorized view over arena storage: FlatHashMap from packed join key to
// arena slot id (stored as id + 1 so the map's zero-initialized default
// means "no slot yet"). Drop-in replacement for FlatHashMap<CovarPayload>
// in the engines, with payload access via raw spans.
//
// SNAPSHOT PROTOCOL (the per-view analogue of ShadowDb's row watermarks).
// A maintained view is written only through published merges: the writer
// folds a delta via BeginMergeKey per key, then calls PublishMerge, which
// release-stores the packed (version + 1, slot count) pair AFTER every
// payload write of the merge. Snapshot() is one acquire load, so a reader
// that observes a snapshot also observes every payload write of every
// merge published at or before it — snapshot readers never see a torn
// payload. Two read modes build on this:
//
//  * VERSION VALIDATION (lock-free, the production path): a speculative
//    reader records Snapshot().version before reading and revalidates it
//    at the serial point; equality proves the view never changed in
//    between, so whatever was read is exactly what a serial reader would
//    have read. Map probes and payload reads still require that no merge
//    runs CONCURRENTLY with the reads themselves (a merge can rehash the
//    map and reallocate the arena) — the stream scheduler's ViewGate
//    provides that exclusion.
//  * PINNED SNAPSHOT READS (copy-on-write): Pin() returns a snapshot and
//    switches subsequent merges to copy-on-write for every slot at an id
//    below the pin point — the old payload stays untouched, the new slot
//    chains to it — so FindAt(key, snap) keeps reading the exact pre-merge
//    bytes (stable slot ids included) until Unpin. COW only runs while
//    pins are active, so the maintenance hot path never pays for it.
class CovarArenaView {
 public:
  CovarArenaView() = default;
  explicit CovarArenaView(int n) : arena_(n) {}

  // Movable, not copyable (the published watermark is an atomic). Moves
  // may not race with readers of the moved-from view; relaxed transfer of
  // the watermark is therefore enough.
  CovarArenaView(CovarArenaView&& other) noexcept { MoveFrom(&other); }
  CovarArenaView& operator=(CovarArenaView&& other) noexcept {
    if (this != &other) MoveFrom(&other);
    return *this;
  }

  void Init(int n) { arena_.Init(n); }
  bool initialized() const { return arena_.initialized(); }
  int num_features() const { return arena_.num_features(); }
  size_t stride() const { return arena_.stride(); }
  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  const CovarArena& arena() const { return arena_; }

  // Span of `key`, allocating a zeroed slot on first access. The returned
  // pointer is valid until the next GetOrAdd of a NEW key. Delta-building
  // path: writes through GetOrAdd are NOT published (snapshots never cover
  // them); maintained views use BeginMergeKey + PublishMerge instead.
  double* GetOrAdd(uint64_t key) {
    uint32_t& slot = map_[key];
    if (slot == 0) {
      slot = arena_.Allocate() + 1;
      prev_.push_back(0);
    }
    return arena_.Slot(slot - 1);
  }

  // Span of `key`, or nullptr when absent.
  const double* Find(uint64_t key) const {
    const uint32_t* slot = map_.Find(key);
    return slot == nullptr ? nullptr : arena_.Slot(*slot - 1);
  }

  // Arena slot id of `key` (arena().Slot(id) is its span), or kNoSlot when
  // absent. In a view built by GetOrAdd alone, ids are dense in
  // [0, arena().num_slots()), one per key.
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  uint32_t FindSlot(uint64_t key) const {
    const uint32_t* slot = map_.Find(key);
    return slot == nullptr ? kNoSlot : *slot - 1;
  }

  // --- Published merges (writer side of the snapshot protocol) -----------

  // Writable span of `key` for one merge: in place normally; a fresh slot
  // carrying a copy of the old payload (chained for FindAt) when a pin
  // protects the existing slot. Call PublishMerge once after all of the
  // merge's keys are folded.
  double* BeginMergeKey(uint64_t key) {
    uint32_t& slot = map_[key];
    if (slot == 0) {
      slot = arena_.Allocate() + 1;
      prev_.push_back(0);
      return arena_.Slot(slot - 1);
    }
    if (slot - 1 < cow_floor_.load(std::memory_order_acquire)) {
      const uint32_t fresh = arena_.Allocate();
      prev_.push_back(slot);  // chain to the pinned payload
      double* dst = arena_.Slot(fresh);
      const double* src = arena_.Slot(slot - 1);  // after Allocate: may move
      std::copy(src, src + arena_.stride(), dst);
      slot = fresh + 1;
      return dst;
    }
    return arena_.Slot(slot - 1);
  }

  // Publishes every payload write since the previous publish: one release
  // store of the packed (version, slot count) watermark pair.
  void PublishMerge() {
    ++next_version_;
    published_.store((static_cast<uint64_t>(next_version_) << 32) |
                         static_cast<uint64_t>(arena_.num_slots()),
                     std::memory_order_release);
  }

  // Checkpoint-restore hook: publishes the CURRENT slot count under the
  // given publication counter, so a view rebuilt from a checkpoint resumes
  // the exact version sequence of the run that wrote it (speculation
  // validity and serve snapshots compare versions across epochs). Only
  // valid on a quiescent view with no readers — restore runs before any
  // pipeline thread exists.
  void RestorePublished(uint32_t version) {
    next_version_ = version;
    published_.store((static_cast<uint64_t>(version) << 32) |
                         static_cast<uint64_t>(arena_.num_slots()),
                     std::memory_order_release);
  }

  // --- Snapshot readers --------------------------------------------------

  // The current published watermark; one atomic acquire, safe to call
  // concurrently with merges.
  CovarViewSnapshot Snapshot() const {
    const uint64_t p = published_.load(std::memory_order_acquire);
    return {static_cast<uint32_t>(p), static_cast<uint32_t>(p >> 32)};
  }

  // Publication counter alone (speculation validity checks).
  uint32_t version() const { return Snapshot().version; }

  // Span of `key` as of `snap`: the newest chained slot the snapshot
  // covers, nullptr if the key did not exist yet. Reads the exact
  // pre-merge bytes for any merge published after the snapshot, provided a
  // pin covering the snapshot was active across those merges.
  const double* FindAt(uint64_t key, const CovarViewSnapshot& snap) const {
    const uint32_t* s = map_.Find(key);
    uint32_t id1 = s == nullptr ? 0 : *s;
    while (id1 != 0 && id1 - 1 >= snap.slots) id1 = prev_[id1 - 1];
    return id1 == 0 ? nullptr : arena_.Slot(id1 - 1);
  }

  // Protects every currently published slot from in-place modification
  // (merges copy-on-write instead) and returns the snapshot the pin
  // covers. Pins nest; each Pin must be matched by one Unpin, in ANY order
  // across any threads. Pin itself is a writer-side call (it must not race
  // with merges — the serve layer pins on the applier thread between
  // epochs); Unpin is safe from any thread, concurrently with merges.
  //
  // PIN TABLE. Each pin records its COW floor (the slot count at pin time)
  // in a mutex-guarded table; the atomic cow_floor_ mirrors the table's
  // maximum and is the only word BeginMergeKey reads. Because slots grow
  // monotonically, floors are recorded in non-decreasing order, so a
  // token-less Unpin can release the SMALLEST floor: the surviving entries
  // then over-approximate every surviving pin's true floor (protection is
  // only ever too wide, never too narrow — a stale-high floor costs one
  // extra COW copy, a low one would corrupt a pinned read). The floor
  // drops only when the last pin releases. The release-store on a drop
  // pairs with BeginMergeKey's acquire: the writer's in-place overwrite is
  // ordered after every payload read the unpinning client performed.
  CovarViewSnapshot Pin() {
    const uint32_t floor = static_cast<uint32_t>(arena_.num_slots());
    std::lock_guard<std::mutex> lock(pin_mu_);
    pin_floors_.push_back(floor);
    if (floor > cow_floor_.load(std::memory_order_relaxed)) {
      cow_floor_.store(floor, std::memory_order_release);
    }
    return Snapshot();
  }

  void Unpin() {
    std::lock_guard<std::mutex> lock(pin_mu_);
    RELBORG_DCHECK(!pin_floors_.empty());
    // Floors are appended in non-decreasing order; the minimum is at the
    // front. Erasing it keeps the maximum (and thus cow_floor_) intact
    // unless this was the last active pin.
    pin_floors_.erase(pin_floors_.begin());
    cow_floor_.store(pin_floors_.empty() ? 0 : pin_floors_.back(),
                     std::memory_order_release);
  }

  bool pinned() const {
    std::lock_guard<std::mutex> lock(pin_mu_);
    return !pin_floors_.empty();
  }

  // fn(key, const double* span) over all entries; iteration order depends
  // only on the inserted key set, never on the thread count.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    map_.ForEach(
        [&](uint64_t key, const uint32_t& slot) { fn(key, arena_.Slot(slot - 1)); });
  }

 private:
  void MoveFrom(CovarArenaView* other) {
    map_ = std::move(other->map_);
    arena_ = std::move(other->arena_);
    prev_ = std::move(other->prev_);
    published_.store(other->published_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    next_version_ = other->next_version_;
    pin_floors_ = std::move(other->pin_floors_);
    cow_floor_.store(other->cow_floor_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  }

  FlatHashMap<uint32_t> map_;
  CovarArena arena_;
  // Per slot: previous chained slot id + 1 (0 = chain end). A COW merge
  // chains the fresh slot to the payload it superseded; ids descend
  // strictly along a chain, so FindAt's walk terminates.
  std::vector<uint32_t> prev_;
  // Packed (version << 32 | published slot count); see Snapshot().
  std::atomic<uint64_t> published_{0};
  uint32_t next_version_ = 0;  // writer-side shadow of the version half
  // Pin table (see Pin/Unpin): per-pin COW floors, non-decreasing order,
  // guarded by pin_mu_; cow_floor_ mirrors the maximum (0 = no pins) and
  // is the writer's single acquire-read per BeginMergeKey.
  mutable std::mutex pin_mu_;
  std::vector<uint32_t> pin_floors_;
  std::atomic<uint32_t> cow_floor_{0};
};

// --- Cross-arena merges ---------------------------------------------------
//
// Ring-adds every entry of `src` into `dst` (dst[key] += src[key], allocating
// absent keys) as ONE published merge on dst. Per-key additions are
// independent, so the result is a pure function of the two views' contents —
// never of iteration order — and merging shard-local views in ascending
// shard order yields the same bytes on every run. Both views must have the
// same feature width (checked once per call: views of different scopes have
// different strides); the caller must exclude concurrent merges on BOTH
// views for the duration (a merge can rehash the map / move the arena).
void CovarArenaMergeInto(const CovarArenaView& src, CovarArenaView* dst);

}  // namespace relborg

#endif  // RELBORG_RING_COVAR_ARENA_H_
