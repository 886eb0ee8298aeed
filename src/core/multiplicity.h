// Join multiplicities: for every base-relation tuple, the number of join
// tuples it participates in, computed without materializing the join by an
// up-down pass over the join tree (counting ring up, context products
// down). Used by relational k-means (per-tuple coreset weights) and by the
// weighted quantile sketches of the decision-tree layer.
//
// Both passes run over slot-indexed arrays (query/join_slots.h): the up and
// down counts of a node are one double per distinct key of its parent
// edge, and each row reads and writes them through the slots the index
// resolved, so no key is packed or hashed during the passes. A caller that
// runs more passes over the same tree builds one JoinSlots and passes it
// to each.
#ifndef RELBORG_CORE_MULTIPLICITY_H_
#define RELBORG_CORE_MULTIPLICITY_H_

#include <vector>

#include "query/join_slots.h"
#include "query/join_tree.h"
#include "query/predicate.h"

namespace relborg {

// result[v][row] = number of tuples of the (filtered) join containing row
// `row` of the relation at node v. Rows failing their own filter get 0.
// Runs over slots.tree().
std::vector<std::vector<double>> ComputeRowMultiplicities(
    const JoinSlots& slots, const FilterSet& filters = {});

// The same over `tree`, with an index built for this call alone.
std::vector<std::vector<double>> ComputeRowMultiplicities(
    const RootedTree& tree, const FilterSet& filters = {});

}  // namespace relborg

#endif  // RELBORG_CORE_MULTIPLICITY_H_
