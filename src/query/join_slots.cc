#include "query/join_slots.h"

#include "util/check.h"
#include "util/flat_hash_map.h"

namespace relborg {

JoinSlots::JoinSlots(const RootedTree& tree)
    : tree_(tree),
      num_slots_(tree.num_nodes(), 0),
      parent_slots_(tree.num_nodes()),
      child_slots_(tree.num_nodes()) {
  for (int v = 0; v < tree.num_nodes(); ++v) {
    const int p = tree.node(v).parent;
    if (p < 0) continue;
    const Relation& rel = tree.relation(v);
    const Relation& parent = tree.relation(p);
    RELBORG_CHECK_MSG(rel.num_rows() < kNoSlot, "too many rows for slots");
    FlatHashMap<uint32_t> slot_of(rel.num_rows());
    std::vector<uint32_t>& own = parent_slots_[v];
    own.resize(rel.num_rows());
    uint32_t next = 0;
    for (size_t row = 0; row < rel.num_rows(); ++row) {
      const uint64_t key = tree.RowKeyToParent(v, row);
      const size_t before = slot_of.size();
      uint32_t& slot = slot_of[key];
      if (slot_of.size() != before) slot = next++;
      own[row] = slot;
    }
    num_slots_[v] = next;
    std::vector<uint32_t>& probe = child_slots_[v];
    probe.resize(parent.num_rows());
    for (size_t row = 0; row < parent.num_rows(); ++row) {
      const uint32_t* slot = slot_of.Find(tree.RowKeyToChild(p, v, row));
      probe[row] = slot == nullptr ? kNoSlot : *slot;
    }
  }
}

}  // namespace relborg
