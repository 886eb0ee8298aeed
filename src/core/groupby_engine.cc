#include "core/groupby_engine.h"

#include "obs/trace.h"
#include "util/check.h"

namespace relborg {
namespace {

// Scans rows [row_begin, row_end) of node v and accumulates its view
// entries into *out (which may be a per-partition partial view).
void ScanGroupByNode(const RootedTree& tree, const FilterSet& filters, int v,
                     const std::vector<std::vector<int>>& measures,
                     const std::vector<std::vector<GroupByAggregate::GroupBy>>&
                         groups,
                     const std::vector<FlatHashMap<GroupPayload>>& views,
                     size_t row_begin, size_t row_end,
                     FlatHashMap<GroupPayload>* out) {
  const Relation& rel = tree.relation(v);
  const RootedNode& node = tree.node(v);
  const std::vector<Predicate>& preds = NodeFilters(filters, v);
  GroupPayload buf_a;
  GroupPayload buf_b;
  for (size_t row = row_begin; row < row_end; ++row) {
    if (!preds.empty() && !RowPasses(rel, row, preds)) continue;
    // Lift: measure product and local group key.
    double m = 1.0;
    for (int attr : measures[v]) m *= rel.Double(row, attr);
    uint64_t key = kScalarGroupKey;
    for (const auto& g : groups[v]) {
      uint64_t part = g.slot == 0 ? GroupKeyHigh(rel.Cat(row, g.attr))
                                  : GroupKeyLow(rel.Cat(row, g.attr));
      key = MergeGroupKeys(key, part);
    }
    GroupPayload lift = GroupPayload::Single(key, m);
    GroupPayload* cur = &lift;
    GroupPayload* nxt = &buf_a;
    bool dangling = false;
    for (int c : node.children) {
      const GroupPayload* cp = views[c].Find(tree.RowKeyToChild(v, c, row));
      if (cp == nullptr || cp->empty()) {
        dangling = true;
        break;
      }
      GroupMulInto(*cur, *cp, nxt);
      cur = nxt;
      nxt = (nxt == &buf_a) ? &buf_b : &buf_a;
    }
    if (dangling) continue;
    (*out)[tree.RowKeyToParent(v, row)].AddInPlace(*cur);
  }
}

}  // namespace

GroupByResult ComputeGroupBy(const RootedTree& tree,
                             const GroupByAggregate& agg,
                             const FilterSet& filters,
                             const ExecPolicy& policy) {
  RELBORG_CHECK(agg.group_by.size() <= 2);
  RELBORG_CHECK(filters.empty() ||
                static_cast<int>(filters.size()) == tree.num_nodes());
  if (agg.group_by.size() == 2) {
    RELBORG_CHECK(agg.group_by[0].slot != agg.group_by[1].slot);
  }

  const int num_nodes = tree.num_nodes();
  // Per-node measure attributes and group-by descriptors.
  std::vector<std::vector<int>> measures(num_nodes);
  for (const auto& [node, attr] : agg.measure) measures[node].push_back(attr);
  std::vector<std::vector<GroupByAggregate::GroupBy>> groups(num_nodes);
  for (const auto& g : agg.group_by) groups[g.node].push_back(g);

  // One code path for both plans: with a disabled policy the group loop
  // visits nodes serially and every scan covers the full range directly —
  // the legacy pass. Views of one group only depend on deeper groups.
  std::vector<FlatHashMap<GroupPayload>> views(num_nodes);
  ExecContext ctx(policy);
  for (const std::vector<int>& group : IndependentViewGroups(tree)) {
    ctx.ParallelFor(group.size(), [&](size_t idx) {
      int v = group[idx];
      RELBORG_TRACE_SPAN("core/groupby-scan", "core", -1, v);
      PartitionedScan<FlatHashMap<GroupPayload>>(
          ctx, tree.relation(v).num_rows(), &views[v],
          [&](size_t begin, size_t end, FlatHashMap<GroupPayload>* acc) {
            ScanGroupByNode(tree, filters, v, measures, groups, views, begin,
                            end, acc);
          },
          [&](FlatHashMap<GroupPayload>* out,
              FlatHashMap<GroupPayload>* partial) {
            partial->ForEach([&](uint64_t key, const GroupPayload& p) {
              (*out)[key].AddInPlace(p);
            });
          });
    });
  }

  GroupByResult result;
  const GroupPayload* root = views[tree.root()].Find(kUnitKey);
  if (root != nullptr) {
    for (const auto& e : root->entries()) {
      result[CanonicalGroupKey(e.key)] += e.value;
    }
  }
  return result;
}

namespace {

using BatchPayload = std::vector<GroupPayload>;  // one per aggregate

// Batch counterpart of ScanGroupByNode: rows [row_begin, row_end) of node
// v, one group-ring payload per aggregate, accumulated into *out.
void ScanGroupByBatchNode(
    const RootedTree& tree, const FilterSet& filters, int v, size_t k,
    const std::vector<std::vector<std::vector<int>>>& measures,
    const std::vector<std::vector<std::vector<GroupByAggregate::GroupBy>>>&
        groups,
    const std::vector<FlatHashMap<BatchPayload>>& views, size_t row_begin,
    size_t row_end, FlatHashMap<BatchPayload>* out) {
  const Relation& rel = tree.relation(v);
  const RootedNode& node = tree.node(v);
  const std::vector<Predicate>* preds =
      filters.empty() ? nullptr : &filters[v];
  GroupPayload buf_a;
  GroupPayload buf_b;
  BatchPayload combined(k);
  std::vector<const BatchPayload*> child_payloads(node.children.size());
  for (size_t row = row_begin; row < row_end; ++row) {
    if (preds != nullptr && !preds->empty() && !RowPasses(rel, row, *preds)) {
      continue;
    }
    // Shared: join keys and child-view probes, computed once per row.
    bool dangling = false;
    for (size_t ci = 0; ci < node.children.size(); ++ci) {
      int c = node.children[ci];
      child_payloads[ci] = views[c].Find(tree.RowKeyToChild(v, c, row));
      if (child_payloads[ci] == nullptr) {
        dangling = true;
        break;
      }
    }
    if (dangling) continue;
    // Per aggregate: lift and ring products.
    for (size_t q = 0; q < k; ++q) {
      double m = 1.0;
      for (int attr : measures[q][v]) m *= rel.Double(row, attr);
      uint64_t key = kScalarGroupKey;
      for (const auto& g : groups[q][v]) {
        uint64_t part = g.slot == 0 ? GroupKeyHigh(rel.Cat(row, g.attr))
                                    : GroupKeyLow(rel.Cat(row, g.attr));
        key = MergeGroupKeys(key, part);
      }
      GroupPayload lift = GroupPayload::Single(key, m);
      GroupPayload* cur = &lift;
      GroupPayload* nxt = &buf_a;
      bool empty = false;
      for (size_t ci = 0; ci < node.children.size(); ++ci) {
        const GroupPayload& cp = (*child_payloads[ci])[q];
        if (cp.empty()) {
          empty = true;
          break;
        }
        GroupMulInto(*cur, cp, nxt);
        cur = nxt;
        nxt = (nxt == &buf_a) ? &buf_b : &buf_a;
      }
      combined[q] = empty ? GroupPayload() : *cur;
    }
    uint64_t out_key = tree.RowKeyToParent(v, row);
    BatchPayload& slot = (*out)[out_key];
    if (slot.empty()) slot.resize(k);
    for (size_t q = 0; q < k; ++q) slot[q].AddInPlace(combined[q]);
  }
}

}  // namespace

std::vector<GroupByResult> ComputeGroupByBatch(
    const RootedTree& tree, const std::vector<GroupByAggregate>& aggs,
    const FilterSet& filters, const ExecPolicy& policy) {
  const size_t k = aggs.size();
  const int num_nodes = tree.num_nodes();
  RELBORG_CHECK(filters.empty() ||
                static_cast<int>(filters.size()) == num_nodes);
  // Per aggregate, per node: measure attrs and group descriptors.
  std::vector<std::vector<std::vector<int>>> measures(
      k, std::vector<std::vector<int>>(num_nodes));
  std::vector<std::vector<std::vector<GroupByAggregate::GroupBy>>> groups(
      k, std::vector<std::vector<GroupByAggregate::GroupBy>>(num_nodes));
  for (size_t q = 0; q < k; ++q) {
    RELBORG_CHECK(aggs[q].group_by.size() <= 2);
    for (const auto& [node, attr] : aggs[q].measure) {
      measures[q][node].push_back(attr);
    }
    for (const auto& g : aggs[q].group_by) groups[q][g.node].push_back(g);
  }

  std::vector<FlatHashMap<BatchPayload>> views(num_nodes);
  ExecContext ctx(policy);
  for (const std::vector<int>& group : IndependentViewGroups(tree)) {
    ctx.ParallelFor(group.size(), [&](size_t idx) {
      int v = group[idx];
      RELBORG_TRACE_SPAN("core/groupby-scan", "core", -1, v);
      PartitionedScan<FlatHashMap<BatchPayload>>(
          ctx, tree.relation(v).num_rows(), &views[v],
          [&](size_t begin, size_t end, FlatHashMap<BatchPayload>* acc) {
            ScanGroupByBatchNode(tree, filters, v, k, measures, groups, views,
                                 begin, end, acc);
          },
          [&](FlatHashMap<BatchPayload>* out,
              FlatHashMap<BatchPayload>* partial) {
            partial->ForEach([&](uint64_t key, const BatchPayload& p) {
              BatchPayload& slot = (*out)[key];
              if (slot.empty()) slot.resize(k);
              for (size_t q = 0; q < k; ++q) slot[q].AddInPlace(p[q]);
            });
          });
    });
  }

  std::vector<GroupByResult> results(k);
  const BatchPayload* root = views[tree.root()].Find(kUnitKey);
  if (root != nullptr) {
    for (size_t q = 0; q < k; ++q) {
      for (const auto& e : (*root)[q].entries()) {
        results[q][CanonicalGroupKey(e.key)] += e.value;
      }
    }
  }
  return results;
}

namespace {

GroupByAggregate::GroupBy MakeGroup(const JoinQuery& query,
                                    const std::string& rel,
                                    const std::string& attr, int slot) {
  GroupByAggregate::GroupBy g;
  g.node = query.IndexOf(rel);
  g.attr = query.relation(g.node)->schema().MustIndexOf(attr);
  RELBORG_CHECK(query.relation(g.node)->schema().attr(g.attr).type ==
                AttrType::kCategorical);
  g.slot = slot;
  return g;
}

}  // namespace

GroupByAggregate CountGroupedBy(const JoinQuery& query, const std::string& rel1,
                                const std::string& attr1) {
  GroupByAggregate agg;
  agg.group_by.push_back(MakeGroup(query, rel1, attr1, 0));
  return agg;
}

GroupByAggregate CountGroupedByPair(const JoinQuery& query,
                                    const std::string& rel1,
                                    const std::string& attr1,
                                    const std::string& rel2,
                                    const std::string& attr2) {
  GroupByAggregate agg;
  agg.group_by.push_back(MakeGroup(query, rel1, attr1, 0));
  agg.group_by.push_back(MakeGroup(query, rel2, attr2, 1));
  return agg;
}

GroupByAggregate SumGroupedBy(const JoinQuery& query,
                              const std::string& measure_rel,
                              const std::string& measure_attr,
                              const std::string& rel1,
                              const std::string& attr1) {
  GroupByAggregate agg = CountGroupedBy(query, rel1, attr1);
  int node = query.IndexOf(measure_rel);
  int attr = query.relation(node)->schema().MustIndexOf(measure_attr);
  agg.measure.push_back({node, attr});
  return agg;
}

}  // namespace relborg
