#include "query/predicate.h"

#include <algorithm>

namespace relborg {

Predicate Predicate::InSet(int attr, std::vector<int32_t> s) {
  std::sort(s.begin(), s.end());
  return Predicate{attr, Op::kInSet, 0.0, -1, std::move(s)};
}

Predicate Predicate::NotInSet(int attr, std::vector<int32_t> s) {
  std::sort(s.begin(), s.end());
  return Predicate{attr, Op::kNotInSet, 0.0, -1, std::move(s)};
}

bool Predicate::Matches(const Relation& rel, size_t row) const {
  switch (op) {
    case Op::kGe:
      return rel.AsDouble(row, attr) >= threshold;
    case Op::kLt:
      return !(rel.AsDouble(row, attr) >= threshold);
    case Op::kEq:
      return rel.Cat(row, attr) == category;
    case Op::kNe:
      return rel.Cat(row, attr) != category;
    case Op::kInSet:
      return std::binary_search(set.begin(), set.end(), rel.Cat(row, attr));
    case Op::kNotInSet:
      return !std::binary_search(set.begin(), set.end(), rel.Cat(row, attr));
  }
  return false;
}

const std::vector<Predicate>& NodeFilters(const FilterSet& filters, int v) {
  static const std::vector<Predicate> kNone;
  if (filters.empty()) return kNone;
  return filters[v];
}

bool RowPasses(const Relation& rel, size_t row,
               const std::vector<Predicate>& preds) {
  for (const Predicate& p : preds) {
    if (!p.Matches(rel, row)) return false;
  }
  return true;
}

}  // namespace relborg
