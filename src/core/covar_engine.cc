#include "core/covar_engine.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "ring/covar_arena.h"
#include "util/check.h"
#include "util/flat_hash_map.h"

namespace relborg {
namespace {

// ---------------------------------------------------------------------------
// Shared execution: one pass, covariance-ring payloads in arena storage.
// Each view keeps its payloads in one contiguous CovarArena buffer; the
// per-row work is the fused CovarSpanLiftMulAdd kernel, so the hot loop
// never allocates and never materializes a lift payload.
//
// Scope-width views. A payload of view v is nonzero only on the features of
// v's subtree, its scope S_v, so the view stores it in the compact layout of
// width |S_v|: local index a is the a-th smallest feature id in S_v (on
// Retailer, 15 doubles per Weather key instead of 91). The root's scope is
// every feature, so its layout is the full-width one. Each node's product
// chain runs in the node's own index space: lifted features carry local
// indices, and each child's payload is placed into the node's layout through
// a plan-time entry table. Every entry in scope is the same expression over
// the same operands as at full width and the dropped entries are exact
// zeros, so narrowing the views does not move the result.
// ---------------------------------------------------------------------------

using CovarView = CovarArenaView;

// Plan-time kernel metadata of one product chain dst += lift * c_1 * ... *
// c_k: the feature scope of each step. Payloads are nonzero only on their
// subtree's features, so the scoped kernels skip the structural zeros; the
// scopes depend on the tree and the feature map only — never on rows or the
// thread count.
struct ChainScopes {
  // chain[i] = scope after folding child i into the running product
  // (chain[0] additionally covers the lifted features). Only used with two
  // or more children.
  std::vector<CovarScope> chain;
  // Single-child chains: scope of the child's payload for the fused add.
  CovarScope single;
};

ChainScopes MakeChainScopes(int n, std::vector<int> lifted,
                            const std::vector<std::vector<int>>& children) {
  ChainScopes scopes;
  if (children.size() == 1) {
    scopes.single = CovarScope::Over(n, children[0]);
  } else if (children.size() >= 2) {
    for (const std::vector<int>& child : children) {
      lifted.insert(lifted.end(), child.begin(), child.end());
      scopes.chain.push_back(CovarScope::Over(n, lifted));
    }
  }
  return scopes;
}

// Position of each of `features` in the ascending `scope`.
std::vector<int> LocalIndices(const std::vector<int>& scope,
                              const std::vector<int>& features) {
  std::vector<int> out;
  out.reserve(features.size());
  for (int f : features) {
    out.push_back(static_cast<int>(
        std::lower_bound(scope.begin(), scope.end(), f) - scope.begin()));
  }
  return out;
}

// Places a compact payload into a wider compact layout whose ascending
// indices `at` hold the payload's features: entry e of the payload goes to
// entry to[e]. `to` stays empty when the two layouts coincide, and the
// payload is then read in place.
struct Placement {
  std::vector<size_t> to;

  static Placement Into(int width, const std::vector<int>& at) {
    Placement p;
    if (static_cast<int>(at.size()) == width) return p;
    // Count, sums, then the packed upper triangle row by row.
    p.to.push_back(kCovarCountOffset);
    for (int i : at) p.to.push_back(kCovarSumOffset + i);
    for (size_t a = 0; a < at.size(); ++a) {
      for (size_t b = a; b < at.size(); ++b) {
        p.to.push_back(CovarQuadOffset(width) +
                       UpperTriIndex(width, at[a], at[b]));
      }
    }
    return p;
  }

  // Zero buffer of the wider layout for Apply (none when read in place).
  std::vector<double> Buffer(int width) const {
    return std::vector<double>(to.empty() ? 0 : CovarStride(width), 0.0);
  }
  static std::vector<std::vector<double>> Buffers(
      const std::vector<Placement>& places, int width) {
    std::vector<std::vector<double>> bufs;
    for (const Placement& p : places) bufs.push_back(p.Buffer(width));
    return bufs;
  }

  // The span to read: `src` itself, or `buf` after copying src into it.
  // Each call writes the same entries, so the rest of buf stays zero.
  const double* Apply(const double* src, std::vector<double>* buf) const {
    if (to.empty()) return src;
    double* dst = buf->data();
    for (size_t e = 0; e < to.size(); ++e) dst[to[e]] = src[e];
    return dst;
  }
};

// Grouped scan of one node (see ComputeGroupedNodeView). A child whose join
// key contains the node's parent key can ANCHOR the grouping: rows with the
// same anchor key share the parent key and the payload of every OUTER child
// (one whose key is a subset of the anchor's). The other children are
// INNER. The sum over a group's rows of lift(row) * inner payloads lives on
// the compact feature set own ∪ inner subtrees, of width `width`.
struct GroupPlan {
  int anchor = -1;         // child node id; -1: per-row path
  std::vector<int> outer;  // child node ids, in node.children order
  std::vector<int> inner;  // child node ids, in node.children order
  int width = 0;
  // Compact index of each of the node's lifted features (NodeFeatures order).
  std::vector<int> own;
  std::vector<Placement> inner_place;   // inner payload -> compact sum
  Placement head;                       // compact sum -> the node's layout
  std::vector<Placement> outer_place;   // outer payload -> the node's layout
  ChainScopes inner_chain;              // lift * inner children, compact
  std::vector<CovarScope> outer_chain;  // after each outer child
};

struct NodePlan {
  std::vector<int> scope;           // S_v: feature ids, ascending
  std::vector<int> own;             // local index of each lifted feature
  std::vector<Placement> children;  // child payload -> v's layout
  ChainScopes rows;                 // per-row product over all children
  GroupPlan group;

  int width() const { return static_cast<int>(scope.size()); }
};

std::vector<int> SortedAttrs(std::vector<int> attrs) {
  std::sort(attrs.begin(), attrs.end());
  return attrs;
}

bool ContainsAll(const std::vector<int>& sorted, const std::vector<int>& sub) {
  return std::includes(sorted.begin(), sorted.end(), sub.begin(), sub.end());
}

// Picks the anchor with the most outer children, derived from join
// attributes alone. A node is grouped only when that is at least two, so a
// group shares a product of payloads; a star over distinct single keys
// (Yelp, TPC-DS) keeps the per-row scan. `children[i]` holds the local
// indices of child i's scope in the node's layout.
GroupPlan BuildGroupPlan(const RootedTree& tree, int v,
                         const NodePlan& node_plan,
                         const std::vector<std::vector<int>>& children) {
  GroupPlan plan;
  const RootedNode& node = tree.node(v);
  const std::vector<int> parent_key = SortedAttrs(node.key_attrs);
  auto key_of = [&](int c) {
    return SortedAttrs(tree.node(c).parent_key_attrs);
  };
  for (int a : node.children) {
    const std::vector<int> anchor_key = key_of(a);
    if (!ContainsAll(anchor_key, parent_key)) continue;
    std::vector<int> outer;
    for (int c : node.children) {
      if (ContainsAll(anchor_key, key_of(c))) outer.push_back(c);
    }
    if (outer.size() >= 2 && outer.size() > plan.outer.size()) {
      plan.anchor = a;
      plan.outer = std::move(outer);
    }
  }
  if (plan.anchor < 0) return plan;

  // The compact set, as local indices of the node's layout.
  std::vector<int> compact = node_plan.own;
  std::vector<size_t> inner_pos;
  std::vector<size_t> outer_pos;
  for (size_t ci = 0; ci < node.children.size(); ++ci) {
    const int c = node.children[ci];
    if (std::find(plan.outer.begin(), plan.outer.end(), c) != plan.outer.end()) {
      outer_pos.push_back(ci);
      continue;
    }
    plan.inner.push_back(c);
    inner_pos.push_back(ci);
    compact.insert(compact.end(), children[ci].begin(), children[ci].end());
  }
  std::sort(compact.begin(), compact.end());
  plan.width = static_cast<int>(compact.size());
  plan.own = LocalIndices(compact, node_plan.own);
  std::vector<std::vector<int>> inner_scopes;
  for (size_t ci : inner_pos) {
    inner_scopes.push_back(LocalIndices(compact, children[ci]));
    plan.inner_place.push_back(
        Placement::Into(plan.width, inner_scopes.back()));
  }
  plan.inner_chain = MakeChainScopes(plan.width, plan.own, inner_scopes);
  plan.head = Placement::Into(node_plan.width(), compact);
  for (size_t ci : outer_pos) {
    plan.outer_place.push_back(node_plan.children[ci]);
    compact.insert(compact.end(), children[ci].begin(), children[ci].end());
    plan.outer_chain.push_back(CovarScope::Over(node_plan.width(), compact));
  }
  return plan;
}

std::vector<NodePlan> BuildNodePlans(const RootedTree& tree,
                                     const FeatureMap& fm) {
  std::vector<NodePlan> plans(tree.num_nodes());
  for (int v : tree.postorder()) {
    const RootedNode& node = tree.node(v);
    NodePlan& plan = plans[v];
    std::vector<int> own;
    for (const auto& [attr, f] : fm.NodeFeatures(v)) own.push_back(f);
    plan.scope = own;
    for (int c : node.children) {
      plan.scope.insert(plan.scope.end(), plans[c].scope.begin(),
                        plans[c].scope.end());
    }
    std::sort(plan.scope.begin(), plan.scope.end());
    plan.own = LocalIndices(plan.scope, own);
    std::vector<std::vector<int>> children;
    for (int c : node.children) {
      children.push_back(LocalIndices(plan.scope, plans[c].scope));
      plan.children.push_back(Placement::Into(plan.width(), children.back()));
    }
    plan.rows = MakeChainScopes(plan.width(), plan.own, children);
    plan.group = BuildGroupPlan(tree, v, plan, children);
  }
  return plans;
}

// Ring products restricted to a step's scope (contiguous dense kernels once
// the scope covers the whole layout).
void MulInScope(const CovarScope& scope, const double* a, const double* b,
                double* dst) {
  if (scope.IsDense()) {
    CovarSpanMul(scope.n, a, b, dst);
  } else {
    CovarSpanMulScoped(scope, a, b, dst);
  }
}

void MulAddInScope(const CovarScope& scope, const double* a, const double* b,
                   double* dst) {
  if (scope.IsDense()) {
    CovarSpanMulAdd(scope.n, a, b, dst);
  } else {
    CovarSpanMulAddScoped(scope, a, b, dst);
  }
}

// dst += lift(feats) * spans[0] * ... * spans[k - 1] at width n, each step
// restricted to its scope. `scratch` holds one intermediate per step but the
// last (step i writes scratch[i] with the SAME scope every time, so entries
// outside that scope stay at their zero initialization — the invariant the
// scoped kernels rely on). With zero or one span the fused kernel needs no
// intermediate at all.
void LiftProductAdd(int n, const ChainScopes& scopes,
                    const std::vector<std::pair<int, double>>& feats,
                    const std::vector<const double*>& spans,
                    std::vector<std::vector<double>>* scratch, double* dst) {
  const size_t k = spans.size();
  if (k == 0) {
    // Leaf: pure sparse update, O(#feats^2) per row.
    CovarSpanLiftMulAdd(n, feats.data(), feats.size(), /*sign=*/1.0, nullptr,
                        dst);
  } else if (k == 1) {
    if (scopes.single.IsDense()) {
      CovarSpanLiftMulAdd(n, feats.data(), feats.size(), /*sign=*/1.0,
                          spans[0], dst);
    } else {
      CovarSpanLiftMulAddScoped(n, scopes.single, feats.data(), feats.size(),
                                /*sign=*/1.0, spans[0], dst);
    }
  } else {
    // Fold the sparse lift into the first child, chain the middle
    // children, and fuse the last product into the accumulator.
    std::vector<std::vector<double>>& s = *scratch;
    if (scopes.chain[0].IsDense()) {
      CovarSpanLiftMul(n, feats.data(), feats.size(), /*sign=*/1.0, spans[0],
                       s[0].data());
    } else {
      CovarSpanLiftMulScoped(n, scopes.chain[0], feats.data(), feats.size(),
                             /*sign=*/1.0, spans[0], s[0].data());
    }
    for (size_t ci = 1; ci + 1 < k; ++ci) {
      MulInScope(scopes.chain[ci], s[ci - 1].data(), spans[ci], s[ci].data());
    }
    MulAddInScope(scopes.chain[k - 1], s[k - 2].data(), spans[k - 1], dst);
  }
}

std::vector<std::vector<double>> ChainScratch(size_t steps, size_t stride) {
  return std::vector<std::vector<double>>(steps >= 2 ? steps - 1 : 0,
                                          std::vector<double>(stride, 0.0));
}

// Lift values of the node's features with their local indices; the row
// loops fill in the values.
std::vector<std::pair<int, double>> LocalFeats(const std::vector<int>& own) {
  std::vector<std::pair<int, double>> feats;
  for (int i : own) feats.push_back({i, 0.0});
  return feats;
}

// Computes the view of node v given its children's views, one row at a
// time over [row_begin, row_end) (a partition of v's rows).
void ComputeCovarNodeView(const RootedTree& tree, const FeatureMap& fm,
                          const FilterSet& filters, const NodePlan& plan,
                          int v, const std::vector<CovarView>& views,
                          size_t row_begin, size_t row_end, CovarView* out) {
  const Relation& rel = tree.relation(v);
  const RootedNode& node = tree.node(v);
  const std::vector<Predicate>& preds = NodeFilters(filters, v);
  const auto& feats = fm.NodeFeatures(v);
  const int width = plan.width();
  out->Init(width);

  const size_t num_children = node.children.size();
  std::vector<std::pair<int, double>> feat_vals = LocalFeats(plan.own);
  std::vector<const double*> child_spans(num_children);
  std::vector<std::vector<double>> placed =
      Placement::Buffers(plan.children, width);
  std::vector<std::vector<double>> scratch =
      ChainScratch(num_children, CovarStride(width));
  for (size_t row = row_begin; row < row_end; ++row) {
    if (!preds.empty() && !RowPasses(rel, row, preds)) continue;
    bool dangling = false;
    for (size_t ci = 0; ci < num_children; ++ci) {
      const int c = node.children[ci];
      const double* cp = views[c].Find(tree.RowKeyToChild(v, c, row));
      if (cp == nullptr) {
        dangling = true;  // row has no join partner in subtree c
        break;
      }
      child_spans[ci] = plan.children[ci].Apply(cp, &placed[ci]);
    }
    if (dangling) continue;
    for (size_t k = 0; k < feats.size(); ++k) {
      feat_vals[k].second = rel.Double(row, feats[k].first);
    }
    LiftProductAdd(width, plan.rows, feat_vals, child_spans, &scratch,
                   out->GetOrAdd(tree.RowKeyToParent(v, row)));
  }
}

// Folds one partition's partial view into *out (partials arrive in
// ascending partition order; each span folds with one contiguous add).
void MergeCovarPartial(CovarView* out, CovarView* partial) {
  CovarArenaMergeInto(*partial, out);
}

// Grouped scan of node v. Every row with the same anchor key shares the
// parent key and the outer children's payloads, so by distributivity
//
//   SUM_r lift(r) * inner(r) * outer  ==  (SUM_r lift(r) * inner(r)) * outer
//
// and the outer products run once per group instead of once per row, on a
// compact inner sum. No hash table beyond the views: the group id of a row
// is the anchor view's slot id of its key.
//  1. Map each row to its group over the row partitions (filtered rows and
//     rows without an anchor partner get none).
//  2. Stable counting sort of the grouped rows by group id.
//  3. Scan the groups over partitions cut at fixed grouped-row offsets (a
//     group belongs to the partition holding its first row, so boundaries
//     depend on the per-group row counts and the grain only), each group
//     summed in row order, partials merged in ascending order.
// Every step is independent of the thread count, so the result is
// bit-identical for every ExecPolicy{N >= 1}.
void ComputeGroupedNodeView(const ExecContext& ctx, const RootedTree& tree,
                            const FeatureMap& fm, const FilterSet& filters,
                            const NodePlan& node_plan, int v,
                            const std::vector<CovarView>& views,
                            CovarView* out) {
  RELBORG_TRACE_SPAN("core/covar-group", "core", -1, v);
  const GroupPlan& plan = node_plan.group;
  const Relation& rel = tree.relation(v);
  const std::vector<Predicate>& preds = NodeFilters(filters, v);
  const size_t rows = rel.num_rows();
  RELBORG_CHECK(rows < CovarView::kNoSlot);
  const int anchor = plan.anchor;
  const CovarView& anchor_view = views[anchor];

  std::vector<uint32_t> group_of(rows);
  const size_t row_parts = ctx.NumPartitions(rows);
  ctx.ParallelFor(row_parts, [&](size_t p) {
    const std::pair<size_t, size_t> b =
        ExecContext::PartitionBounds(rows, row_parts, p);
    for (size_t row = b.first; row < b.second; ++row) {
      group_of[row] =
          !preds.empty() && !RowPasses(rel, row, preds)
              ? CovarView::kNoSlot
              : anchor_view.FindSlot(tree.RowKeyToChild(v, anchor, row));
    }
  });

  // Group g's rows are order[start[g] .. start[g + 1]), ascending.
  const size_t num_groups = anchor_view.arena().num_slots();
  std::vector<uint32_t> start(num_groups + 1, 0);
  for (uint32_t g : group_of) {
    if (g != CovarView::kNoSlot) ++start[g + 1];
  }
  for (size_t g = 0; g < num_groups; ++g) start[g + 1] += start[g];
  std::vector<uint32_t> order(start[num_groups]);
  for (size_t row = 0; row < rows; ++row) {
    const uint32_t g = group_of[row];
    if (g != CovarView::kNoSlot) order[start[g]++] = static_cast<uint32_t>(row);
  }
  // The fill advanced each start[g] to its group's end; shift back.
  for (size_t g = num_groups; g > 0; --g) start[g] = start[g - 1];
  start[0] = 0;

  const auto& feats = fm.NodeFeatures(v);
  const int width = node_plan.width();
  const size_t compact_stride = CovarStride(plan.width);
  // First group whose first row sits at or after grouped-row `offset`.
  auto group_at = [&](size_t offset) {
    return static_cast<size_t>(
        std::lower_bound(start.begin(), start.begin() + num_groups, offset) -
        start.begin());
  };
  auto scan_groups = [&](size_t begin, size_t end, CovarView* acc) {
    acc->Init(width);
    std::vector<std::pair<int, double>> feat_vals = LocalFeats(plan.own);
    std::vector<std::vector<double>> inner_bufs =
        Placement::Buffers(plan.inner_place, plan.width);
    std::vector<const double*> inner_spans(plan.inner.size());
    std::vector<std::vector<double>> inner_scratch =
        ChainScratch(plan.inner.size(), compact_stride);
    std::vector<double> sum(compact_stride);
    std::vector<double> head = plan.head.Buffer(width);
    std::vector<std::vector<double>> outer_bufs =
        Placement::Buffers(plan.outer_place, width);
    std::vector<const double*> outer_spans(plan.outer.size());
    std::vector<std::vector<double>> outer_scratch(
        plan.outer.size() - 1, std::vector<double>(CovarStride(width), 0.0));
    // The row's inner payloads in the compact layout; false when a partner
    // is missing.
    auto gather_inner = [&](size_t row) {
      for (size_t i = 0; i < plan.inner.size(); ++i) {
        const int c = plan.inner[i];
        const double* cp = views[c].Find(tree.RowKeyToChild(v, c, row));
        if (cp == nullptr) return false;
        inner_spans[i] = plan.inner_place[i].Apply(cp, &inner_bufs[i]);
      }
      return true;
    };
    for (size_t g = group_at(begin), g_end = group_at(end); g < g_end; ++g) {
      if (start[g] == start[g + 1]) continue;
      const size_t first = order[start[g]];
      bool dangling = false;
      for (size_t i = 0; i < plan.outer.size() && !dangling; ++i) {
        const int c = plan.outer[i];
        const double* cp =
            c == anchor
                ? anchor_view.arena().Slot(static_cast<uint32_t>(g))
                : views[c].Find(tree.RowKeyToChild(v, c, first));
        dangling = cp == nullptr;
        if (!dangling) {
          outer_spans[i] = plan.outer_place[i].Apply(cp, &outer_bufs[i]);
        }
      }
      if (dangling) continue;

      std::fill(sum.begin(), sum.end(), 0.0);
      bool joined = false;
      for (size_t s = start[g]; s < start[g + 1]; ++s) {
        const size_t row = order[s];
        if (!gather_inner(row)) continue;
        for (size_t k = 0; k < feats.size(); ++k) {
          feat_vals[k].second = rel.Double(row, feats[k].first);
        }
        LiftProductAdd(plan.width, plan.inner_chain, feat_vals, inner_spans,
                       &inner_scratch, sum.data());
        joined = true;
      }
      if (!joined) continue;

      const double* prod = plan.head.Apply(sum.data(), &head);
      for (size_t i = 0; i + 1 < plan.outer.size(); ++i) {
        MulInScope(plan.outer_chain[i], prod, outer_spans[i],
                   outer_scratch[i].data());
        prod = outer_scratch[i].data();
      }
      MulAddInScope(plan.outer_chain.back(), prod, outer_spans.back(),
                    acc->GetOrAdd(tree.RowKeyToParent(v, first)));
    }
  };
  PartitionedScan<CovarView>(ctx, order.size(), out, scan_groups,
                             MergeCovarPartial);
}

CovarMatrix ComputeSharedCovar(const RootedTree& tree, const FeatureMap& fm,
                               const FilterSet& filters,
                               const ExecPolicy& policy) {
  const int n = fm.num_features();
  std::vector<CovarView> views(tree.num_nodes());
  const std::vector<NodePlan> plans = BuildNodePlans(tree, fm);

  // Two-level plan: independent view groups (same depth) run concurrently,
  // and each node's scan is domain-parallel over fixed partitions via the
  // nest-safe ParallelFor. Partition boundaries and merge order never
  // depend on the thread count, so the result is bit-identical for every
  // ExecPolicy{N >= 1}; the legacy policy (threads == 0) is the same plan
  // with one partition per scan.
  ExecContext ctx(policy);
  for (const std::vector<int>& group : IndependentViewGroups(tree)) {
    ctx.ParallelFor(group.size(), [&](size_t idx) {
      const int v = group[idx];
      const NodePlan& plan = plans[v];
      RELBORG_TRACE_SPAN("core/covar-scan", "core", -1, v);
      views[v].Init(plan.width());
      if (plan.group.anchor >= 0) {
        ComputeGroupedNodeView(ctx, tree, fm, filters, plan, v, views,
                               &views[v]);
        return;
      }
      PartitionedScan<CovarView>(
          ctx, tree.relation(v).num_rows(), &views[v],
          [&](size_t begin, size_t end, CovarView* acc) {
            ComputeCovarNodeView(tree, fm, filters, plan, v, views, begin,
                                 end, acc);
          },
          MergeCovarPartial);
    });
  }

  // The root's scope is every feature: its layout is the full-width one.
  RELBORG_CHECK(plans[tree.root()].width() == n);
  const double* result = views[tree.root()].Find(kUnitKey);
  return CovarMatrix(n, result == nullptr ? CovarPayload::Zero(n)
                                          : CovarPayloadFromSpan(n, result));
}

// ---------------------------------------------------------------------------
// Per-aggregate execution (specialized): one scalar pass per SUM(x_i * x_j).
// ---------------------------------------------------------------------------

double ComputeScalarSpecialized(const RootedTree& tree, const FilterSet& filters,
                                const std::vector<std::vector<int>>& mults) {
  std::vector<FlatHashMap<double>> views(tree.num_nodes());
  for (int v : tree.postorder()) {
    const Relation& rel = tree.relation(v);
    const RootedNode& node = tree.node(v);
    const std::vector<Predicate>& preds = NodeFilters(filters, v);
    const std::vector<int>& node_mults = mults[v];
    FlatHashMap<double>& out = views[v];
    for (size_t row = 0; row < rel.num_rows(); ++row) {
      if (!preds.empty() && !RowPasses(rel, row, preds)) continue;
      double m = 1.0;
      for (int attr : node_mults) m *= rel.Double(row, attr);
      bool dangling = false;
      for (int c : node.children) {
        const double* cp = views[c].Find(tree.RowKeyToChild(v, c, row));
        if (cp == nullptr) {
          dangling = true;
          break;
        }
        m *= *cp;
      }
      if (dangling) continue;
      out[tree.RowKeyToParent(v, row)] += m;
    }
  }
  const double* result = views[tree.root()].Find(kUnitKey);
  return result == nullptr ? 0.0 : *result;
}

// ---------------------------------------------------------------------------
// Per-aggregate execution (interpreted): models a tuple-at-a-time engine
// without code specialization — each scanned tuple is materialized into a
// generic row buffer and expressions and key extractors are evaluated
// through virtual dispatch. This is the 1x baseline of the Figure 6
// ablation (AC/DC before LMFAO's compilation); the modeled cost is the
// interpretation overhead, so views use the same FlatHashMap as every
// other engine.
// ---------------------------------------------------------------------------

class Expr {
 public:
  virtual ~Expr() = default;
  // Evaluates over a materialized generic tuple.
  virtual double Eval(const double* tuple) const = 0;
};

class ConstExpr : public Expr {
 public:
  explicit ConstExpr(double v) : v_(v) {}
  double Eval(const double*) const override { return v_; }

 private:
  double v_;
};

class AttrExpr : public Expr {
 public:
  explicit AttrExpr(int attr) : attr_(attr) {}
  double Eval(const double* tuple) const override { return tuple[attr_]; }

 private:
  int attr_;
};

class MulExpr : public Expr {
 public:
  MulExpr(std::unique_ptr<Expr> l, std::unique_ptr<Expr> r)
      : l_(std::move(l)), r_(std::move(r)) {}
  double Eval(const double* tuple) const override {
    return l_->Eval(tuple) * r_->Eval(tuple);
  }

 private:
  std::unique_ptr<Expr> l_;
  std::unique_ptr<Expr> r_;
};

std::unique_ptr<Expr> BuildProductExpr(const std::vector<int>& attrs) {
  std::unique_ptr<Expr> e = std::make_unique<ConstExpr>(1.0);
  for (int a : attrs) {
    e = std::make_unique<MulExpr>(std::move(e), std::make_unique<AttrExpr>(a));
  }
  return e;
}

// Generic key extractor: packs key attributes read from the tuple buffer.
class KeyExpr {
 public:
  explicit KeyExpr(std::vector<int> attrs) : attrs_(std::move(attrs)) {}
  virtual ~KeyExpr() = default;
  virtual uint64_t Eval(const double* tuple) const {
    if (attrs_.empty()) return kUnitKey;
    if (attrs_.size() == 1) {
      return PackKey1(static_cast<int32_t>(tuple[attrs_[0]]));
    }
    return PackKey2(static_cast<int32_t>(tuple[attrs_[0]]),
                    static_cast<int32_t>(tuple[attrs_[1]]));
  }

 private:
  std::vector<int> attrs_;
};

double ComputeScalarInterpreted(const RootedTree& tree,
                                const FilterSet& filters,
                                const std::vector<std::vector<int>>& mults) {
  std::vector<FlatHashMap<double>> views(tree.num_nodes());
  for (int v : tree.postorder()) {
    const Relation& rel = tree.relation(v);
    const RootedNode& node = tree.node(v);
    const std::vector<Predicate>& preds = NodeFilters(filters, v);
    std::unique_ptr<Expr> expr = BuildProductExpr(mults[v]);
    KeyExpr parent_key(node.key_attrs);
    std::vector<std::unique_ptr<KeyExpr>> child_keys;
    for (int c : node.children) {
      child_keys.push_back(std::make_unique<KeyExpr>(tree.node(c).parent_key_attrs));
    }
    auto& out = views[v];
    std::vector<double> tuple(rel.num_attrs());
    for (size_t row = 0; row < rel.num_rows(); ++row) {
      if (!preds.empty() && !RowPasses(rel, row, preds)) continue;
      // Tuple-at-a-time: materialize the generic row buffer.
      for (int a = 0; a < rel.num_attrs(); ++a) {
        tuple[a] = rel.AsDouble(row, a);
      }
      double m = expr->Eval(tuple.data());
      bool dangling = false;
      for (size_t ci = 0; ci < node.children.size(); ++ci) {
        const double* cp =
            views[node.children[ci]].Find(child_keys[ci]->Eval(tuple.data()));
        if (cp == nullptr) {
          dangling = true;
          break;
        }
        m *= *cp;
      }
      if (dangling) continue;
      out[parent_key.Eval(tuple.data())] += m;
    }
  }
  const double* result = views[tree.root()].Find(kUnitKey);
  return result == nullptr ? 0.0 : *result;
}

// Per-node multiplier attribute lists for SUM(x_i * x_j); index n (== number
// of features) denotes the constant feature 1 and adds no multiplier.
std::vector<std::vector<int>> MultipliersFor(const RootedTree& tree,
                                             const FeatureMap& fm, int i,
                                             int j) {
  const int n = fm.num_features();
  std::vector<std::vector<int>> mults(tree.num_nodes());
  if (i < n) mults[fm.NodeOf(i)].push_back(fm.AttrOf(i));
  if (j < n) mults[fm.NodeOf(j)].push_back(fm.AttrOf(j));
  return mults;
}

}  // namespace

double ComputeScalarMoment(const RootedTree& tree, const FeatureMap& fm, int i,
                           int j, const FilterSet& filters, bool interpreted) {
  const int n = fm.num_features();
  RELBORG_CHECK(i >= 0 && i <= n && j >= 0 && j <= n);
  std::vector<std::vector<int>> mults = MultipliersFor(tree, fm, i, j);
  return interpreted ? ComputeScalarInterpreted(tree, filters, mults)
                     : ComputeScalarSpecialized(tree, filters, mults);
}

CovarMatrix ComputeCovarMatrix(const RootedTree& tree, const FeatureMap& fm,
                               const FilterSet& filters,
                               const CovarEngineOptions& options) {
  RELBORG_CHECK(filters.empty() ||
                static_cast<int>(filters.size()) == tree.num_nodes());
  const int n = fm.num_features();
  switch (options.mode) {
    case ExecMode::kShared:
      return ComputeSharedCovar(tree, fm, filters, ExecPolicy{});
    case ExecMode::kSharedParallel: {
      ExecPolicy policy = options.policy;
      // Resolve only the thread count from the environment so a caller's
      // partition_grain / max_partitions customization survives.
      if (!policy.enabled()) policy.threads = ExecPolicy::FromEnv().threads;
      return ComputeSharedCovar(tree, fm, filters, policy);
    }
    case ExecMode::kPerAggregate:
    case ExecMode::kPerAggregateInterpreted: {
      const bool interpreted =
          options.mode == ExecMode::kPerAggregateInterpreted;
      CovarPayload payload = CovarPayload::Zero(n);
      payload.count = ComputeScalarMoment(tree, fm, n, n, filters, interpreted);
      for (int i = 0; i < n; ++i) {
        payload.sum[i] = ComputeScalarMoment(tree, fm, i, n, filters,
                                             interpreted);
        for (int j = i; j < n; ++j) {
          payload.quad[UpperTriIndex(n, i, j)] =
              ComputeScalarMoment(tree, fm, i, j, filters, interpreted);
        }
      }
      return CovarMatrix(n, std::move(payload));
    }
  }
  RELBORG_CHECK(false);
  return CovarMatrix(0, CovarPayload::Zero(0));
}

}  // namespace relborg
