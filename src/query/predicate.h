// Filter predicates on single attributes, pushed into the per-relation
// scans of the engines. Decision-tree node conditions (Sec. 2.2 of the
// paper: "X >= c", "X in {v1..vk}") are expressed with these.
#ifndef RELBORG_QUERY_PREDICATE_H_
#define RELBORG_QUERY_PREDICATE_H_

#include <cstdint>
#include <vector>

#include "relational/relation.h"

namespace relborg {

struct Predicate {
  enum class Op : uint8_t {
    kGe,     // continuous: value >= threshold
    kLt,     // continuous: !(value >= threshold), the exact complement of
             // kGe: a NaN value fails kGe and matches kLt, so a tree
             // split's yes- and no-branches partition the rows
    kEq,     // categorical: code == category
    kNe,     // categorical: code != category
    kInSet,  // categorical: code in set
    kNotInSet,
  };

  int attr = -1;
  Op op = Op::kGe;
  double threshold = 0.0;          // for kGe / kLt
  int32_t category = -1;           // for kEq / kNe
  std::vector<int32_t> set;        // for kInSet / kNotInSet (sorted)

  static Predicate Ge(int attr, double t) {
    return Predicate{attr, Op::kGe, t, -1, {}};
  }
  static Predicate Lt(int attr, double t) {
    return Predicate{attr, Op::kLt, t, -1, {}};
  }
  static Predicate Eq(int attr, int32_t c) {
    return Predicate{attr, Op::kEq, 0.0, c, {}};
  }
  static Predicate Ne(int attr, int32_t c) {
    return Predicate{attr, Op::kNe, 0.0, c, {}};
  }
  static Predicate InSet(int attr, std::vector<int32_t> s);
  static Predicate NotInSet(int attr, std::vector<int32_t> s);

  bool Matches(const Relation& rel, size_t row) const;
};

// Per-relation predicate lists for a whole query. filters[v] applies to the
// relation at node v of the join tree.
using FilterSet = std::vector<std::vector<Predicate>>;

// The predicates on node v; none when `filters` is empty (no filters at
// all).
const std::vector<Predicate>& NodeFilters(const FilterSet& filters, int v);

// True iff every predicate in `preds` holds for the row.
bool RowPasses(const Relation& rel, size_t row,
               const std::vector<Predicate>& preds);

}  // namespace relborg

#endif  // RELBORG_QUERY_PREDICATE_H_
