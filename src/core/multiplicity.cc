#include "core/multiplicity.h"

#include "util/check.h"
#include "util/flat_hash_map.h"

namespace relborg {

std::vector<std::vector<double>> ComputeRowMultiplicities(
    const RootedTree& tree, const FilterSet& filters) {
  const int num_nodes = tree.num_nodes();
  RELBORG_CHECK(filters.empty() ||
                static_cast<int>(filters.size()) == num_nodes);

  // --- Up pass: subtree counts. up[v][key] = number of subtree(v) tuples
  // whose parent-edge key is `key`; sub_row[v][row] = subtree tuples using
  // that particular row (0 if the row dangles or fails its filter).
  std::vector<FlatHashMap<double>> up(num_nodes);
  std::vector<std::vector<double>> sub_row(num_nodes);
  for (int v : tree.postorder()) {
    const Relation& rel = tree.relation(v);
    const RootedNode& node = tree.node(v);
    const std::vector<Predicate>* preds =
        filters.empty() ? nullptr : &filters[v];
    sub_row[v].assign(rel.num_rows(), 0.0);
    for (size_t row = 0; row < rel.num_rows(); ++row) {
      if (preds != nullptr && !preds->empty() &&
          !RowPasses(rel, row, *preds)) {
        continue;
      }
      double m = 1.0;
      bool dangling = false;
      for (int c : node.children) {
        const double* cp = up[c].Find(tree.RowKeyToChild(v, c, row));
        if (cp == nullptr || *cp == 0.0) {
          dangling = true;
          break;
        }
        m *= *cp;
      }
      if (dangling) continue;
      sub_row[v][row] = m;
      up[v][tree.RowKeyToParent(v, row)] += m;
    }
  }

  // --- Down pass: context counts. down[v][key] = number of join tuples of
  // the *rest of the tree* (everything outside subtree(v)) compatible with
  // parent-edge key `key`. Root context is 1.
  std::vector<FlatHashMap<double>> down(num_nodes);
  // Per-row scratch, sized per node: each child's key and up count, and
  // the prefix/suffix products over them.
  std::vector<uint64_t> keys;
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
    keys.resize(k);
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
        const double* d = down[v].Find(tree.RowKeyToParent(v, row));
        if (d == nullptr || *d == 0.0) continue;
        ctx = *d;
      }
      // For each child c: context(c) = ctx * prod_{c' != c} up[c'](key).
      // Computed via prefix/suffix products to stay linear in #children;
      // prefix[0] and suffix[k] stay 1.
      for (size_t i = 0; i < k; ++i) {
        keys[i] = tree.RowKeyToChild(v, node.children[i], row);
        const double* cp = up[node.children[i]].Find(keys[i]);
        vals[i] = cp == nullptr ? 0.0 : *cp;
      }
      for (size_t i = 0; i < k; ++i) prefix[i + 1] = prefix[i] * vals[i];
      for (size_t i = k; i > 0; --i) suffix[i - 1] = suffix[i] * vals[i - 1];
      for (size_t i = 0; i < k; ++i) {
        double others = prefix[i] * suffix[i + 1];
        if (others == 0.0) continue;
        down[node.children[i]][keys[i]] += ctx * others;
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
      double ctx = 1.0;
      if (!is_root) {
        const double* d = down[v].Find(tree.RowKeyToParent(v, row));
        ctx = d == nullptr ? 0.0 : *d;
      }
      result[v][row] = sub_row[v][row] * ctx;
    }
  }
  return result;
}

}  // namespace relborg
