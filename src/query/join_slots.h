// Join keys resolved once: a dense slot per distinct key of every join-tree
// edge.
//
// The batch engines that run several passes over one rooted join tree
// (join multiplicities, the Rk-means counting pass, the decision-node
// messages) probe and accumulate views keyed by each row's join keys. A
// JoinSlots index packs and hashes every such key once: for each non-root
// node v it numbers the distinct keys of v's parent edge 0, 1, 2, ... in
// order of first appearance among v's rows, so a view along that edge is a
// plain array indexed by slot. Each row of v gets the slot of its own key
// (ParentSlots(v)), and each row of v's parent gets the slot of the key it
// sends along the edge, or kNoSlot when no row of v has that key
// (ChildSlots(v)).
//
// The index covers every row: filters never change it, so the passes of
// one training share it however their row filters differ. It reads the
// relations when it is built and never again, so it is valid only while
// they do not change; build one per training call and drop it after.
#ifndef RELBORG_QUERY_JOIN_SLOTS_H_
#define RELBORG_QUERY_JOIN_SLOTS_H_

#include <cstdint>
#include <vector>

#include "query/join_tree.h"

namespace relborg {

// The slot of a key that the child side of an edge does not hold.
inline constexpr uint32_t kNoSlot = ~0u;

class JoinSlots {
 public:
  // Resolves every edge of `tree`: one hash of each row's key per edge
  // endpoint.
  explicit JoinSlots(const RootedTree& tree);

  const RootedTree& tree() const { return tree_; }

  // Number of distinct parent-edge keys among the rows of non-root node v
  // (0 for the root).
  uint32_t num_slots(int v) const { return num_slots_[v]; }

  // Per row of non-root node v: the slot of RowKeyToParent(v, row).
  const std::vector<uint32_t>& ParentSlots(int v) const {
    return parent_slots_[v];
  }

  // Per row of the parent p of non-root node v: the slot, among v's
  // parent-edge keys, of RowKeyToChild(p, v, row), or kNoSlot if no row of
  // v has that key.
  const std::vector<uint32_t>& ChildSlots(int v) const {
    return child_slots_[v];
  }

 private:
  RootedTree tree_;
  std::vector<uint32_t> num_slots_;
  std::vector<std::vector<uint32_t>> parent_slots_;
  std::vector<std::vector<uint32_t>> child_slots_;
};

}  // namespace relborg

#endif  // RELBORG_QUERY_JOIN_SLOTS_H_
