#include "core/decision_node_engine.h"

#include <cmath>
#include <utility>

#include "obs/trace.h"
#include "ring/group_ring.h"
#include "util/check.h"

namespace relborg {
namespace {

// --- Payload rings ---------------------------------------------------------
//
// The message plan below is written once over a Ring, which supplies the
// message payload, the per-row lift and product, and the per-candidate
// result.

// The regression batch maintains the n=1 covariance ring over the response:
// (count, sum, sum of squares). Decision-node batches are hot, so the
// per-row ring math runs on a register-resident Triple instead of the
// generic span kernels; the formulas are the n=1 covariance ring product
// and lift.
struct Triple {
  double c = 0;
  double s = 0;
  double q = 0;
};

inline Triple Mul(const Triple& a, const Triple& b) {
  return Triple{a.c * b.c, b.c * a.s + a.c * b.s,
                b.c * a.q + a.c * b.q + 2 * a.s * b.s};
}

struct TripleRing {
  using Payload = Triple;
  using Value = Triple;
  using Result = SplitStats;
  struct Scratch {};

  // A present payload joins, even the ring zero of NaN-response rows.
  static bool Joins(const Triple&) { return true; }
  // A row whose response is NaN lifts to the ring zero, so it is left out
  // of every candidate alike, the count included.
  static Triple Lift(const Relation& rel, size_t row, int response_attr) {
    if (response_attr < 0) return Triple{1, 0, 0};
    const double y = rel.Double(row, response_attr);
    if (std::isnan(y)) return Triple{};
    return Triple{1, y, y * y};
  }
  // lift * in[0] * ... * in[deg-1] without in[skip], folded left.
  static Triple Product(const Triple& lift, const Triple* const* in, int deg,
                        int skip, Scratch*) {
    Triple p = lift;
    for (int i = 0; i < deg; ++i) {
      if (i != skip) p = Mul(p, *in[i]);
    }
    return p;
  }
  static void Add(Triple* dst, const Triple& p) {
    dst->c += p.c;
    dst->s += p.s;
    dst->q += p.q;
  }
  static void AddToResult(Result* result, const Triple& p) {
    result->count += p.c;
    result->sum += p.s;
    result->sum_sq += p.q;
  }
  static void MergeResult(Result* out, const Result& partial) {
    out->count += partial.count;
    out->sum += partial.sum;
    out->sum_sq += partial.sum_sq;
  }
};

// The classification batch: group payloads keyed by the response class; a
// candidate's result maps class code -> count.
struct ClassRing {
  using Payload = GroupPayload;
  using Value = GroupPayload;
  using Result = FlatHashMap<double>;
  struct Scratch {
    GroupPayload buf_a;
    GroupPayload buf_b;
  };

  // An empty payload joins nothing, exactly like a missing key.
  static bool Joins(const GroupPayload& p) { return !p.empty(); }
  static GroupPayload Lift(const Relation& rel, size_t row,
                           int response_attr) {
    if (response_attr < 0) return GroupPayload::One();
    return GroupPayload::Single(GroupKeyHigh(rel.Cat(row, response_attr)),
                                1.0);
  }
  // Same fold as TripleRing::Product, through two scratch buffers.
  static const GroupPayload& Product(const GroupPayload& lift,
                                     const GroupPayload* const* in, int deg,
                                     int skip, Scratch* scratch) {
    const GroupPayload* cur = &lift;
    GroupPayload* nxt = &scratch->buf_a;
    for (int i = 0; i < deg; ++i) {
      if (i == skip) continue;
      GroupMulInto(*cur, *in[i], nxt);
      cur = nxt;
      nxt = nxt == &scratch->buf_a ? &scratch->buf_b : &scratch->buf_a;
    }
    return *cur;
  }
  static void Add(GroupPayload* dst, const GroupPayload& p) {
    dst->AddInPlace(p);
  }
  static void AddToResult(Result* result, const GroupPayload& p) {
    for (const GroupPayload::Entry& e : p.entries()) {
      (*result)[PackKey1(UnpackHigh(e.key))] += e.value;
    }
  }
  static void MergeResult(Result* out, const Result& partial) {
    partial.ForEach([&](uint64_t key, const double& value) {
      (*out)[key] += value;
    });
  }
};

// --- Slot-indexed messages -------------------------------------------------
//
// A message along one join-tree edge is keyed by the edge's slots
// (query/join_slots.h). The message a scan returns holds one payload and
// one presence flag per slot. A slot is present once a row has added to
// it, whatever the payload, just as a view keyed by join keys holds a key
// once a row has added to it. A partition of a partitioned scan fills a
// partial that maps only the slots its rows touch, so partials grow with
// their rows, not with the edge's slot count; partials merge into the full
// message in ascending partition order.
template <typename P>
class Message {
 public:
  // Makes this the full message over `num_slots` slots. A message not
  // made full is a partial.
  void InitFull(uint32_t num_slots) {
    full_ = true;
    payloads_.assign(num_slots, P{});
    present_.assign(num_slots, 0);
  }

  // The payload of `slot`, for accumulation; marks it present.
  P& At(uint32_t slot) {
    if (!full_) return partial_[slot];
    present_[slot] = 1;
    return payloads_[slot];
  }

  // The payload of `slot` of a full message; nullptr when it is absent.
  const P* Find(uint32_t slot) const {
    return slot == kNoSlot || !present_[slot] ? nullptr : &payloads_[slot];
  }

  // Adds a partial's payloads into this full message.
  template <typename AddFn>
  void Merge(const Message& partial, AddFn&& add) {
    partial.partial_.ForEach([&](uint64_t slot, const P& p) {
      add(&At(static_cast<uint32_t>(slot)), p);
    });
  }

 private:
  bool full_ = false;
  std::vector<P> payloads_;
  std::vector<uint8_t> present_;
  FlatHashMap<P> partial_;
};

// --- The message plan ------------------------------------------------------

template <typename Ring>
class MessagePlan {
 public:
  using Payload = typename Ring::Payload;
  using Result = typename Ring::Result;

  MessagePlan(const JoinSlots& slots, int response_node, int response_attr,
              const FilterSet& path_filters,
              const std::vector<SplitCandidate>& candidates,
              const ExecPolicy& policy, std::vector<Result>* results)
      : query_(slots.tree().query()),
        tree_(slots.tree()),
        response_node_(response_node),
        response_attr_(response_attr),
        path_filters_(path_filters),
        candidates_(candidates),
        ctx_(policy),
        results_(results) {
    const int n = query_.num_relations();
    owned_.resize(n);
    for (size_t i = 0; i < candidates.size(); ++i) {
      RELBORG_CHECK(candidates[i].node >= 0 && candidates[i].node < n);
      owned_[candidates[i].node].push_back(i);
    }
    // Neighbors of v in the order every rooting multiplies v's incoming
    // messages in: Root(p).node(v).children is Root(v).node(v).children
    // without p, in the same order. An edge's slots are those of its end
    // below in the sweep's rooting: that end reads its own parent-edge
    // slots, the end above the slots it probes the one below with.
    neighbors_.resize(n);
    row_slots_.resize(n);
    num_slots_.resize(n);
    in_.resize(n);
    for (int v = 0; v < n; ++v) {
      neighbors_[v] = query_.Root(v).node(v).children;
      for (int u : neighbors_[v]) {
        const bool up = tree_.node(v).parent == u;
        const int below = up ? v : u;
        row_slots_[v].push_back(up ? slots.ParentSlots(v).data()
                                   : slots.ChildSlots(u).data());
        num_slots_[v].push_back(slots.num_slots(below));
      }
      in_[v].resize(neighbors_[v].size());
    }
  }

  // Two sweeps over the join tree the slots were built on, rooted at the
  // pivot. A message is needed when a candidate-owning relation lies on
  // the side it points to. The up sweep builds the needed messages toward
  // the pivot, deepest view group first. The down sweep then scans each
  // relation once for its needed messages away from the pivot and its own
  // candidates, pivot first. Relations in one view group are independent.
  void Run() {
    const int n = query_.num_relations();
    const int pivot = tree_.root();
    // roots_below[v]: candidate-owning relations in v's subtree.
    std::vector<int> roots_below(n, 0);
    for (int v : tree_.postorder()) {
      if (!owned_[v].empty()) ++roots_below[v];
      if (v != pivot) roots_below[tree_.node(v).parent] += roots_below[v];
    }
    const std::vector<std::vector<int>> groups = IndependentViewGroups(tree_);
    for (const std::vector<int>& group : groups) {
      ctx_.ParallelFor(group.size(), [&](size_t i) {
        const int v = group[i];
        if (v != pivot && roots_below[v] < roots_below[pivot]) {
          Scan(v, {IndexOf(v, tree_.node(v).parent)}, false);
        }
      });
    }
    for (auto group = groups.rbegin(); group != groups.rend(); ++group) {
      ctx_.ParallelFor(group->size(), [&](size_t i) {
        const int v = (*group)[i];
        std::vector<int> targets;
        for (int c : tree_.node(v).children) {
          if (roots_below[c] > 0) targets.push_back(IndexOf(v, c));
        }
        const bool root = !owned_[v].empty();
        if (!targets.empty() || root) Scan(v, targets, root);
      });
    }
  }

 private:
  // What one scan of a relation produces: its outgoing messages and its
  // own candidates' statistics.
  struct Outputs {
    std::vector<Message<Payload>> messages;
    std::vector<Result> results;
  };

  // Position of neighbor u in neighbors_[v].
  int IndexOf(int v, int u) const {
    for (size_t i = 0; i < neighbors_[v].size(); ++i) {
      if (neighbors_[v][i] == u) return static_cast<int>(i);
    }
    RELBORG_CHECK_MSG(false, "not a join-tree neighbor");
    return -1;
  }

  // Scans relation v once, building the messages v -> neighbors_[v][t] for
  // t in `targets` and, when `root`, the statistics of v's candidates.
  void Scan(int v, const std::vector<int>& targets, bool root) {
    RELBORG_TRACE_SPAN("core/split-scan", "core", -1, v);
    const size_t n_results = root ? owned_[v].size() : 0;
    auto prepare = [&](Outputs* o) {
      o->messages.resize(targets.size());
      o->results.resize(n_results);
    };
    Outputs out;
    prepare(&out);
    for (size_t t = 0; t < targets.size(); ++t) {
      out.messages[t].InitFull(num_slots_[v][targets[t]]);
    }
    PartitionedScan<Outputs>(
        ctx_, query_.relation(v)->num_rows(), &out,
        [&](size_t begin, size_t end, Outputs* acc) {
          prepare(acc);
          ScanRows(v, targets, root, begin, end, acc);
        },
        [&](Outputs* o, Outputs* partial) {
          for (size_t t = 0; t < targets.size(); ++t) {
            o->messages[t].Merge(partial->messages[t], &Ring::Add);
          }
          for (size_t k = 0; k < n_results; ++k) {
            Ring::MergeResult(&o->results[k], partial->results[k]);
          }
        });
    for (size_t t = 0; t < targets.size(); ++t) {
      const int u = neighbors_[v][targets[t]];
      in_[u][IndexOf(u, v)] = std::move(out.messages[t]);
    }
    for (size_t k = 0; k < n_results; ++k) {
      (*results_)[owned_[v][k]] = std::move(out.results[k]);
    }
  }

  void ScanRows(int v, const std::vector<int>& targets, bool root,
                size_t row_begin, size_t row_end, Outputs* acc) const {
    const Relation& rel = *query_.relation(v);
    const std::vector<Predicate>& preds = NodeFilters(path_filters_, v);
    const int response_attr = v == response_node_ ? response_attr_ : -1;
    const int deg = static_cast<int>(neighbors_[v].size());
    const std::vector<const uint32_t*>& row_slots = row_slots_[v];
    const std::vector<Message<Payload>>& incoming = in_[v];
    // A lone outgoing message does not read the message coming back.
    const int unprobed = targets.size() == 1 && !root ? targets[0] : -1;
    std::vector<uint8_t> is_target(deg, 0);
    for (int t : targets) is_target[t] = 1;
    std::vector<const Payload*> in(deg, nullptr);
    std::vector<uint32_t> slot(deg);
    typename Ring::Scratch scratch;
    for (size_t row = row_begin; row < row_end; ++row) {
      if (!preds.empty() && !RowPasses(rel, row, preds)) continue;
      // Each output multiplies all incoming messages but at most one, so a
      // row missing two dangles everywhere and one missing message leaves
      // only the message sent back along that edge.
      int missing = -1;
      bool dangling = false;
      for (int i = 0; i < deg; ++i) {
        slot[i] = row_slots[i][row];
        if (i == unprobed) continue;
        in[i] = incoming[i].Find(slot[i]);
        if (in[i] != nullptr && !Ring::Joins(*in[i])) in[i] = nullptr;
        if (in[i] != nullptr) continue;
        if (missing >= 0 || !is_target[i]) {
          dangling = true;
          break;
        }
        missing = i;
      }
      if (dangling) continue;
      const typename Ring::Value lift = Ring::Lift(rel, row, response_attr);
      for (size_t t = 0; t < targets.size(); ++t) {
        const int j = targets[t];
        if (missing >= 0 && missing != j) continue;
        // A key no row across the edge holds is never probed.
        if (slot[j] == kNoSlot) continue;
        Ring::Add(&acc->messages[t].At(slot[j]),
                  Ring::Product(lift, in.data(), deg, j, &scratch));
      }
      if (!root || missing >= 0) continue;
      const typename Ring::Value& p =
          Ring::Product(lift, in.data(), deg, -1, &scratch);
      for (size_t k = 0; k < acc->results.size(); ++k) {
        if (candidates_[owned_[v][k]].pred.Matches(rel, row)) {
          Ring::AddToResult(&acc->results[k], p);
        }
      }
    }
  }

  const JoinQuery& query_;
  const RootedTree& tree_;
  const int response_node_;
  const int response_attr_;
  const FilterSet& path_filters_;
  const std::vector<SplitCandidate>& candidates_;
  ExecContext ctx_;
  std::vector<Result>* results_;

  // Per relation v, indexed like neighbors_[v] where nested: the
  // candidates v owns, v's neighbors (see the constructor), the slot of
  // each row's key on each edge, each edge's slot count, and the message
  // each neighbor sends to v.
  std::vector<std::vector<size_t>> owned_;
  std::vector<std::vector<int>> neighbors_;
  std::vector<std::vector<const uint32_t*>> row_slots_;
  std::vector<std::vector<uint32_t>> num_slots_;
  std::vector<std::vector<Message<Payload>>> in_;
};

}  // namespace

RootedTree DecisionNodeRooting(const JoinQuery& query) {
  int pivot = 0;
  for (int v = 1; v < query.num_relations(); ++v) {
    if (query.relation(v)->num_rows() > query.relation(pivot)->num_rows()) {
      pivot = v;
    }
  }
  return query.Root(pivot);
}

std::vector<SplitStats> ComputeSplitStats(
    const JoinSlots& slots, int response_node, int response_attr,
    const FilterSet& path_filters,
    const std::vector<SplitCandidate>& candidates, const ExecPolicy& policy) {
  std::vector<SplitStats> stats(candidates.size());
  MessagePlan<TripleRing>(slots, response_node, response_attr, path_filters,
                          candidates, policy, &stats)
      .Run();
  return stats;
}

std::vector<SplitStats> ComputeSplitStats(
    const JoinQuery& query, int response_node, int response_attr,
    const FilterSet& path_filters,
    const std::vector<SplitCandidate>& candidates, const ExecPolicy& policy) {
  return ComputeSplitStats(JoinSlots(DecisionNodeRooting(query)),
                           response_node, response_attr, path_filters,
                           candidates, policy);
}

std::vector<FlatHashMap<double>> ComputeSplitClassCounts(
    const JoinSlots& slots, int response_node, int response_attr,
    const FilterSet& path_filters,
    const std::vector<SplitCandidate>& candidates, const ExecPolicy& policy) {
  std::vector<FlatHashMap<double>> counts(candidates.size());
  MessagePlan<ClassRing>(slots, response_node, response_attr, path_filters,
                         candidates, policy, &counts)
      .Run();
  return counts;
}

std::vector<FlatHashMap<double>> ComputeSplitClassCounts(
    const JoinQuery& query, int response_node, int response_attr,
    const FilterSet& path_filters,
    const std::vector<SplitCandidate>& candidates, const ExecPolicy& policy) {
  return ComputeSplitClassCounts(JoinSlots(DecisionNodeRooting(query)),
                                 response_node, response_attr, path_filters,
                                 candidates, policy);
}

}  // namespace relborg
