#include "core/decision_node_engine.h"

#include <utility>

#include "obs/trace.h"
#include "ring/covar_arena.h"
#include "ring/group_ring.h"
#include "util/check.h"

namespace relborg {
namespace {

// --- Payload rings ---------------------------------------------------------
//
// The message plan below is written once over a Ring, which supplies the
// view type (join key -> payload), the per-row lift and product, and the
// per-candidate result slot.

// The regression batch maintains the n=1 covariance ring over the response:
// (count, sum, sum of squares), i.e. payload spans of kTripleStride doubles
// in arena storage (CovarArenaView keeps all of a view's triples in one
// contiguous buffer behind a FlatHashMap<uint32_t>). Decision-node batches
// are hot, so the per-row ring math runs on a register-resident Triple
// instead of the generic span kernels; the formulas are the n=1 covariance
// ring product and lift.
constexpr int kTripleN = 1;
constexpr size_t kTripleStride = 3;  // == CovarStride(kTripleN)

struct Triple {
  double c = 0;
  double s = 0;
  double q = 0;
};

inline Triple Mul(const Triple& a, const double* RELBORG_RESTRICT b) {
  return Triple{a.c * b[0], b[0] * a.s + a.c * b[1],
                b[0] * a.q + a.c * b[2] + 2 * a.s * b[1]};
}

struct TripleRing {
  using View = CovarArenaView;
  using Payload = double;  // a view payload is a kTripleStride span
  using Value = Triple;
  using Slot = SplitStats;
  struct Scratch {};

  static void InitView(View* view) { view->Init(kTripleN); }
  static const double* Find(const View& view, uint64_t key) {
    return view.Find(key);
  }
  static Triple Lift(const Relation& rel, size_t row, int response_attr) {
    if (response_attr < 0) return Triple{1, 0, 0};
    const double y = rel.Double(row, response_attr);
    return Triple{1, y, y * y};
  }
  // lift * in[0] * ... * in[deg-1] without in[skip], folded left.
  static Triple Product(const Triple& lift, const double* const* in, int deg,
                        int skip, Scratch*) {
    Triple p = lift;
    for (int i = 0; i < deg; ++i) {
      if (i != skip) p = Mul(p, in[i]);
    }
    return p;
  }
  static void AddToView(View* view, uint64_t key, const Triple& p) {
    double* RELBORG_RESTRICT dst = view->GetOrAdd(key);
    dst[0] += p.c;
    dst[1] += p.s;
    dst[2] += p.q;
  }
  static void AddToSlot(Slot* slot, const Triple& p) {
    slot->count += p.c;
    slot->sum += p.s;
    slot->sum_sq += p.q;
  }
  static void MergeView(View* out, const View& partial) {
    partial.ForEach([&](uint64_t key, const double* span) {
      CovarSpanAdd(kTripleStride, out->GetOrAdd(key), span);
    });
  }
  static void MergeSlot(Slot* out, const Slot& partial) {
    out->count += partial.count;
    out->sum += partial.sum;
    out->sum_sq += partial.sum_sq;
  }
};

// The classification batch: group payloads keyed by the response class; a
// candidate's slot maps class code -> count.
struct ClassRing {
  using View = FlatHashMap<GroupPayload>;
  using Payload = GroupPayload;
  using Value = GroupPayload;
  using Slot = FlatHashMap<double>;
  struct Scratch {
    GroupPayload buf_a;
    GroupPayload buf_b;
  };

  static void InitView(View*) {}
  // An empty payload joins nothing, exactly like a missing key.
  static const GroupPayload* Find(const View& view, uint64_t key) {
    const GroupPayload* p = view.Find(key);
    return p == nullptr || p->empty() ? nullptr : p;
  }
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
  static void AddToView(View* view, uint64_t key, const GroupPayload& p) {
    (*view)[key].AddInPlace(p);
  }
  static void AddToSlot(Slot* slot, const GroupPayload& p) {
    for (const GroupPayload::Entry& e : p.entries()) {
      (*slot)[PackKey1(UnpackHigh(e.key))] += e.value;
    }
  }
  static void MergeView(View* out, const View& partial) {
    partial.ForEach([&](uint64_t key, const GroupPayload& p) {
      (*out)[key].AddInPlace(p);
    });
  }
  static void MergeSlot(Slot* out, const Slot& partial) {
    partial.ForEach([&](uint64_t key, const double& value) {
      (*out)[key] += value;
    });
  }
};

// --- The message plan ------------------------------------------------------

const std::vector<Predicate>& NodeFilters(const FilterSet& filters, int v) {
  static const std::vector<Predicate> kNone;
  if (filters.empty()) return kNone;
  return filters[v];
}

template <typename Ring>
class MessagePlan {
 public:
  using View = typename Ring::View;
  using Slot = typename Ring::Slot;

  MessagePlan(const JoinQuery& query, int response_node, int response_attr,
              const FilterSet& path_filters,
              const std::vector<SplitCandidate>& candidates,
              const ExecPolicy& policy, std::vector<Slot>* results)
      : query_(query),
        response_node_(response_node),
        response_attr_(response_attr),
        path_filters_(path_filters),
        candidates_(candidates),
        ctx_(policy),
        results_(results) {
    const int n = query.num_relations();
    owned_.resize(n);
    for (size_t i = 0; i < candidates.size(); ++i) {
      RELBORG_CHECK(candidates[i].node >= 0 && candidates[i].node < n);
      owned_[candidates[i].node].push_back(i);
    }
    // Neighbors of v in the order every rooting multiplies v's incoming
    // messages in: Root(p).node(v).children is Root(v).node(v).children
    // without p, in the same order.
    neighbors_.resize(n);
    edge_attrs_.resize(n);
    in_.resize(n);
    for (int v = 0; v < n; ++v) {
      const RootedTree tree = query.Root(v);
      neighbors_[v] = tree.node(v).children;
      for (int u : neighbors_[v]) {
        edge_attrs_[v].push_back(tree.node(u).parent_key_attrs);
      }
      in_[v].resize(neighbors_[v].size());
    }
  }

  // Two sweeps over the join tree rooted at the largest relation (the
  // pivot). A message is needed when a candidate-owning relation lies on
  // the side it points to. The up sweep builds the needed messages toward
  // the pivot, deepest view group first. The down sweep then scans each
  // relation once for its needed messages away from the pivot and its own
  // candidates, pivot first. Relations in one view group are independent.
  void Run() {
    const int n = query_.num_relations();
    int pivot = 0;
    for (int v = 1; v < n; ++v) {
      if (query_.relation(v)->num_rows() >
          query_.relation(pivot)->num_rows()) {
        pivot = v;
      }
    }
    const RootedTree tree = query_.Root(pivot);
    // roots_below[v]: candidate-owning relations in v's subtree.
    std::vector<int> roots_below(n, 0);
    for (int v : tree.postorder()) {
      if (!owned_[v].empty()) ++roots_below[v];
      if (v != pivot) roots_below[tree.node(v).parent] += roots_below[v];
    }
    const std::vector<std::vector<int>> groups = IndependentViewGroups(tree);
    for (const std::vector<int>& group : groups) {
      ctx_.ParallelFor(group.size(), [&](size_t i) {
        const int v = group[i];
        if (v != pivot && roots_below[v] < roots_below[pivot]) {
          Scan(v, {IndexOf(v, tree.node(v).parent)}, false);
        }
      });
    }
    for (auto group = groups.rbegin(); group != groups.rend(); ++group) {
      ctx_.ParallelFor(group->size(), [&](size_t i) {
        const int v = (*group)[i];
        std::vector<int> targets;
        for (int c : tree.node(v).children) {
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
    std::vector<View> messages;
    std::vector<Slot> slots;
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
    const size_t n_slots = root ? owned_[v].size() : 0;
    auto prepare = [&](Outputs* o) {
      o->messages.resize(targets.size());
      for (View& m : o->messages) Ring::InitView(&m);
      o->slots.resize(n_slots);
    };
    Outputs out;
    prepare(&out);
    PartitionedScan<Outputs>(
        ctx_, query_.relation(v)->num_rows(), &out,
        [&](size_t begin, size_t end, Outputs* acc) {
          prepare(acc);
          ScanRows(v, targets, root, begin, end, acc);
        },
        [&](Outputs* o, Outputs* partial) {
          for (size_t t = 0; t < targets.size(); ++t) {
            Ring::MergeView(&o->messages[t], partial->messages[t]);
          }
          for (size_t k = 0; k < n_slots; ++k) {
            Ring::MergeSlot(&o->slots[k], partial->slots[k]);
          }
        });
    for (size_t t = 0; t < targets.size(); ++t) {
      const int u = neighbors_[v][targets[t]];
      in_[u][IndexOf(u, v)] = std::move(out.messages[t]);
    }
    for (size_t k = 0; k < n_slots; ++k) {
      (*results_)[owned_[v][k]] = std::move(out.slots[k]);
    }
  }

  void ScanRows(int v, const std::vector<int>& targets, bool root,
                size_t row_begin, size_t row_end, Outputs* acc) const {
    const Relation& rel = *query_.relation(v);
    const std::vector<Predicate>& preds = NodeFilters(path_filters_, v);
    const int response_attr = v == response_node_ ? response_attr_ : -1;
    const int deg = static_cast<int>(neighbors_[v].size());
    // A lone outgoing message does not read the message coming back.
    const int unprobed = targets.size() == 1 && !root ? targets[0] : -1;
    std::vector<uint8_t> is_target(deg, 0);
    for (int t : targets) is_target[t] = 1;
    std::vector<const typename Ring::Payload*> in(deg, nullptr);
    std::vector<uint64_t> keys(deg);
    typename Ring::Scratch scratch;
    for (size_t row = row_begin; row < row_end; ++row) {
      if (!preds.empty() && !RowPasses(rel, row, preds)) continue;
      // Each output multiplies all incoming messages but at most one, so a
      // row missing two dangles everywhere and one missing message leaves
      // only the message sent back along that edge.
      int missing = -1;
      bool dangling = false;
      for (int i = 0; i < deg; ++i) {
        keys[i] = PackRowKey(rel, row, edge_attrs_[v][i]);
        if (i == unprobed) continue;
        in[i] = Ring::Find(in_[v][i], keys[i]);
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
        Ring::AddToView(&acc->messages[t], keys[j],
                        Ring::Product(lift, in.data(), deg, j, &scratch));
      }
      if (!root || missing >= 0) continue;
      const typename Ring::Value& p =
          Ring::Product(lift, in.data(), deg, -1, &scratch);
      for (size_t k = 0; k < acc->slots.size(); ++k) {
        if (candidates_[owned_[v][k]].pred.Matches(rel, row)) {
          Ring::AddToSlot(&acc->slots[k], p);
        }
      }
    }
  }

  const JoinQuery& query_;
  const int response_node_;
  const int response_attr_;
  const FilterSet& path_filters_;
  const std::vector<SplitCandidate>& candidates_;
  ExecContext ctx_;
  std::vector<Slot>* results_;

  // Per relation v, indexed like neighbors_[v] where nested: the
  // candidates v owns, v's neighbors (see the constructor), v's key
  // attributes on each edge, and the message each neighbor sends to v.
  std::vector<std::vector<size_t>> owned_;
  std::vector<std::vector<int>> neighbors_;
  std::vector<std::vector<std::vector<int>>> edge_attrs_;
  std::vector<std::vector<View>> in_;
};

}  // namespace

std::vector<SplitStats> ComputeSplitStats(
    const JoinQuery& query, int response_node, int response_attr,
    const FilterSet& path_filters,
    const std::vector<SplitCandidate>& candidates, const ExecPolicy& policy) {
  std::vector<SplitStats> stats(candidates.size());
  MessagePlan<TripleRing>(query, response_node, response_attr, path_filters,
                          candidates, policy, &stats)
      .Run();
  return stats;
}

std::vector<FlatHashMap<double>> ComputeSplitClassCounts(
    const JoinQuery& query, int response_node, int response_attr,
    const FilterSet& path_filters,
    const std::vector<SplitCandidate>& candidates, const ExecPolicy& policy) {
  std::vector<FlatHashMap<double>> counts(candidates.size());
  MessagePlan<ClassRing>(query, response_node, response_attr, path_filters,
                         candidates, policy, &counts)
      .Run();
  return counts;
}

}  // namespace relborg
