#include "core/multiplicity.h"

#include "util/check.h"

namespace relborg {

std::vector<std::vector<double>> ComputeRowMultiplicities(
    const JoinSlots& slots, const FilterSet& filters) {
  const RootedTree& tree = slots.tree();
  const int num_nodes = tree.num_nodes();
  RELBORG_CHECK(filters.empty() ||
                static_cast<int>(filters.size()) == num_nodes);

  // --- Up pass: subtree counts. up[v][slot] = number of subtree(v) tuples
  // whose parent-edge key has that slot; sub_row[v][row] = subtree tuples
  // using that particular row (0 if the row dangles or fails its filter).
  std::vector<std::vector<double>> up(num_nodes);
  std::vector<std::vector<double>> sub_row(num_nodes);
  // Per node: each child's slot array and up counts.
  std::vector<const uint32_t*> child_slots;
  std::vector<const double*> child_up;
  for (int v : tree.postorder()) {
    const Relation& rel = tree.relation(v);
    const RootedNode& node = tree.node(v);
    const std::vector<Predicate>* preds =
        filters.empty() ? nullptr : &filters[v];
    const bool is_root = v == tree.root();
    up[v].assign(slots.num_slots(v), 0.0);
    sub_row[v].assign(rel.num_rows(), 0.0);
    const size_t k = node.children.size();
    child_slots.resize(k);
    child_up.resize(k);
    for (size_t i = 0; i < k; ++i) {
      child_slots[i] = slots.ChildSlots(node.children[i]).data();
      child_up[i] = up[node.children[i]].data();
    }
    for (size_t row = 0; row < rel.num_rows(); ++row) {
      if (preds != nullptr && !preds->empty() &&
          !RowPasses(rel, row, *preds)) {
        continue;
      }
      double m = 1.0;
      bool dangling = false;
      for (size_t i = 0; i < k; ++i) {
        const uint32_t slot = child_slots[i][row];
        if (slot == kNoSlot || child_up[i][slot] == 0.0) {
          dangling = true;
          break;
        }
        m *= child_up[i][slot];
      }
      if (dangling) continue;
      sub_row[v][row] = m;
      if (!is_root) up[v][slots.ParentSlots(v)[row]] += m;
    }
  }

  // --- Down pass: context counts. down[v][slot] = number of join tuples
  // of the *rest of the tree* (everything outside subtree(v)) compatible
  // with the parent-edge key of that slot. Root context is 1.
  std::vector<std::vector<double>> down(num_nodes);
  for (int v = 0; v < num_nodes; ++v) down[v].assign(slots.num_slots(v), 0.0);
  // Per-row scratch, sized per node: each child's slot and up count, and
  // the prefix/suffix products over them.
  std::vector<uint32_t> slot;
  std::vector<double> vals, prefix, suffix;
  // Preorder = reversed postorder (parents before children).
  const auto& post = tree.postorder();
  for (auto it = post.rbegin(); it != post.rend(); ++it) {
    int v = *it;
    const Relation& rel = tree.relation(v);
    const RootedNode& node = tree.node(v);
    if (node.children.empty()) continue;
    const std::vector<Predicate>* preds =
        filters.empty() ? nullptr : &filters[v];
    const bool is_root = v == tree.root();
    const size_t k = node.children.size();
    child_slots.resize(k);
    child_up.resize(k);
    for (size_t i = 0; i < k; ++i) {
      child_slots[i] = slots.ChildSlots(node.children[i]).data();
      child_up[i] = up[node.children[i]].data();
    }
    slot.resize(k);
    vals.resize(k);
    prefix.assign(k + 1, 1.0);
    suffix.assign(k + 1, 1.0);
    for (size_t row = 0; row < rel.num_rows(); ++row) {
      if (sub_row[v][row] == 0.0) continue;  // filtered or dangling
      if (preds != nullptr && !preds->empty() &&
          !RowPasses(rel, row, *preds)) {
        continue;
      }
      double ctx = 1.0;
      if (!is_root) {
        ctx = down[v][slots.ParentSlots(v)[row]];
        if (ctx == 0.0) continue;
      }
      // For each child c: context(c) = ctx * prod_{c' != c} up[c'](slot).
      // Computed via prefix/suffix products to stay linear in #children;
      // prefix[0] and suffix[k] stay 1. A row with a nonzero subtree count
      // finds every child's slot.
      for (size_t i = 0; i < k; ++i) {
        slot[i] = child_slots[i][row];
        vals[i] = child_up[i][slot[i]];
      }
      for (size_t i = 0; i < k; ++i) prefix[i + 1] = prefix[i] * vals[i];
      for (size_t i = k; i > 0; --i) suffix[i - 1] = suffix[i] * vals[i - 1];
      for (size_t i = 0; i < k; ++i) {
        double others = prefix[i] * suffix[i + 1];
        if (others == 0.0) continue;
        down[node.children[i]][slot[i]] += ctx * others;
      }
    }
  }

  // Multiplicity of a row = (its subtree tuples) x (context of its key).
  std::vector<std::vector<double>> result(num_nodes);
  for (int v = 0; v < num_nodes; ++v) {
    const Relation& rel = tree.relation(v);
    result[v].assign(rel.num_rows(), 0.0);
    const bool is_root = v == tree.root();
    for (size_t row = 0; row < rel.num_rows(); ++row) {
      if (sub_row[v][row] == 0.0) continue;
      const double ctx = is_root ? 1.0 : down[v][slots.ParentSlots(v)[row]];
      result[v][row] = sub_row[v][row] * ctx;
    }
  }
  return result;
}

std::vector<std::vector<double>> ComputeRowMultiplicities(
    const RootedTree& tree, const FilterSet& filters) {
  return ComputeRowMultiplicities(JoinSlots(tree), filters);
}

}  // namespace relborg
