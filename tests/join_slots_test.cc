// Tests for the join-key slot index and the slot-indexed multiplicity
// passes, on random databases of every topology at every root.
#include <cstring>
#include <map>
#include <vector>

#include "core/multiplicity.h"
#include "gtest/gtest.h"
#include "query/join_slots.h"
#include "tests/test_util.h"
#include "util/flat_hash_map.h"

namespace relborg {
namespace {

using testing::MakeRandomDb;
using testing::RandomDb;
using testing::ReplaceRelation;
using testing::Topology;

// The multiplicity passes as they were before the slot index: every view a
// hash map keyed by packed join keys. The slot-indexed passes must
// reproduce it bit for bit.
std::vector<std::vector<double>> HashedMultiplicities(
    const RootedTree& tree, const FilterSet& filters) {
  const int num_nodes = tree.num_nodes();
  std::vector<FlatHashMap<double>> up(num_nodes);
  std::vector<std::vector<double>> sub_row(num_nodes);
  for (int v : tree.postorder()) {
    const Relation& rel = tree.relation(v);
    const RootedNode& node = tree.node(v);
    const std::vector<Predicate>& preds = NodeFilters(filters, v);
    sub_row[v].assign(rel.num_rows(), 0.0);
    for (size_t row = 0; row < rel.num_rows(); ++row) {
      if (!RowPasses(rel, row, preds)) continue;
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
  std::vector<FlatHashMap<double>> down(num_nodes);
  std::vector<uint64_t> keys;
  std::vector<double> vals, prefix, suffix;
  const auto& post = tree.postorder();
  for (auto it = post.rbegin(); it != post.rend(); ++it) {
    const int v = *it;
    const Relation& rel = tree.relation(v);
    const RootedNode& node = tree.node(v);
    if (node.children.empty()) continue;
    const std::vector<Predicate>& preds = NodeFilters(filters, v);
    const size_t k = node.children.size();
    keys.resize(k);
    vals.resize(k);
    prefix.assign(k + 1, 1.0);
    suffix.assign(k + 1, 1.0);
    for (size_t row = 0; row < rel.num_rows(); ++row) {
      if (sub_row[v][row] == 0.0) continue;
      if (!RowPasses(rel, row, preds)) continue;
      double ctx = 1.0;
      if (v != tree.root()) {
        const double* d = down[v].Find(tree.RowKeyToParent(v, row));
        if (d == nullptr || *d == 0.0) continue;
        ctx = *d;
      }
      for (size_t i = 0; i < k; ++i) {
        keys[i] = tree.RowKeyToChild(v, node.children[i], row);
        const double* cp = up[node.children[i]].Find(keys[i]);
        vals[i] = cp == nullptr ? 0.0 : *cp;
      }
      for (size_t i = 0; i < k; ++i) prefix[i + 1] = prefix[i] * vals[i];
      for (size_t i = k; i > 0; --i) suffix[i - 1] = suffix[i] * vals[i - 1];
      for (size_t i = 0; i < k; ++i) {
        const double others = prefix[i] * suffix[i + 1];
        if (others == 0.0) continue;
        down[node.children[i]][keys[i]] += ctx * others;
      }
    }
  }
  std::vector<std::vector<double>> result(num_nodes);
  for (int v = 0; v < num_nodes; ++v) {
    const Relation& rel = tree.relation(v);
    result[v].assign(rel.num_rows(), 0.0);
    for (size_t row = 0; row < rel.num_rows(); ++row) {
      if (sub_row[v][row] == 0.0) continue;
      double ctx = 1.0;
      if (v != tree.root()) {
        const double* d = down[v].Find(tree.RowKeyToParent(v, row));
        ctx = d == nullptr ? 0.0 : *d;
      }
      result[v][row] = sub_row[v][row] * ctx;
    }
  }
  return result;
}

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

// Checks the index of `tree` against the keys it resolves.
void ExpectSlotsMatchKeys(const RootedTree& tree, const JoinSlots& slots) {
  for (int v = 0; v < tree.num_nodes(); ++v) {
    SCOPED_TRACE(::testing::Message() << "node " << v);
    const int p = tree.node(v).parent;
    if (p < 0) {
      EXPECT_EQ(slots.num_slots(v), 0u);
      continue;
    }
    // Dense, numbered in first-appearance order, one slot per key.
    const Relation& rel = tree.relation(v);
    ASSERT_EQ(slots.ParentSlots(v).size(), rel.num_rows());
    std::map<uint64_t, uint32_t> slot_of;
    for (size_t row = 0; row < rel.num_rows(); ++row) {
      const uint64_t key = tree.RowKeyToParent(v, row);
      const uint32_t slot = slots.ParentSlots(v)[row];
      auto it = slot_of.find(key);
      if (it == slot_of.end()) {
        EXPECT_EQ(slot, slot_of.size()) << "row " << row;
        slot_of.emplace(key, slot);
      } else {
        EXPECT_EQ(slot, it->second) << "row " << row;
      }
    }
    EXPECT_EQ(slots.num_slots(v), slot_of.size());
    // A parent row gets kNoSlot exactly when v holds no row with its key.
    const Relation& parent = tree.relation(p);
    ASSERT_EQ(slots.ChildSlots(v).size(), parent.num_rows());
    for (size_t row = 0; row < parent.num_rows(); ++row) {
      auto it = slot_of.find(tree.RowKeyToChild(p, v, row));
      const uint32_t want = it == slot_of.end() ? kNoSlot : it->second;
      EXPECT_EQ(slots.ChildSlots(v)[row], want) << "parent row " << row;
    }
  }
}

void ExpectSameMultiplicities(const std::vector<std::vector<double>>& want,
                              const std::vector<std::vector<double>>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t v = 0; v < want.size(); ++v) {
    ASSERT_EQ(want[v].size(), got[v].size()) << "node " << v;
    for (size_t row = 0; row < want[v].size(); ++row) {
      EXPECT_EQ(Bits(want[v][row]), Bits(got[v][row]))
          << "node " << v << " row " << row << ": " << want[v][row] << " vs "
          << got[v][row];
    }
  }
}

// Filters on the relations of features 0 and 1 and on R0's first key.
FilterSet SomeFilters(const RandomDb& db) {
  FilterSet filters(db.query.num_relations());
  for (size_t f = 0; f < 2 && f < db.features.size(); ++f) {
    const int node = db.query.IndexOf(db.features[f].relation);
    const int attr = db.query.relation(node)->schema().MustIndexOf(
        db.features[f].attr);
    filters[node].push_back(f == 0 ? Predicate::Lt(attr, 1.0)
                                   : Predicate::Ge(attr, -1.5));
  }
  filters[0].push_back(Predicate::Ne(0, 1));
  return filters;
}

class JoinSlotsProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, Topology>> {};

TEST_P(JoinSlotsProperty, SlotsAreDenseAndMatchTheKeys) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology);
  for (int root = 0; root < db.query.num_relations(); ++root) {
    SCOPED_TRACE(::testing::Message() << "root " << root);
    const RootedTree tree = db.query.Root(root);
    ExpectSlotsMatchKeys(tree, JoinSlots(tree));
  }
}

TEST_P(JoinSlotsProperty, MultiplicitiesMatchHashedPasses) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology);
  const FilterSet filters = SomeFilters(db);
  for (int root = 0; root < db.query.num_relations(); ++root) {
    SCOPED_TRACE(::testing::Message() << "root " << root);
    const RootedTree tree = db.query.Root(root);
    // One index serves passes under different filters.
    const JoinSlots slots(tree);
    ExpectSameMultiplicities(HashedMultiplicities(tree, {}),
                             ComputeRowMultiplicities(slots));
    ExpectSameMultiplicities(HashedMultiplicities(tree, filters),
                             ComputeRowMultiplicities(slots, filters));
    ExpectSameMultiplicities(HashedMultiplicities(tree, filters),
                             ComputeRowMultiplicities(tree, filters));
  }
}

// An empty relation at every position: its parent-edge keys have no
// slots, every key probing it gets kNoSlot, and every multiplicity is 0.
TEST_P(JoinSlotsProperty, EmptyRelation) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology);
  for (int empty = 0; empty < db.query.num_relations(); ++empty) {
    const Relation& rel = *db.query.relation(empty);
    const Relation no_rows(rel.name(), rel.schema());
    const JoinQuery query = ReplaceRelation(db.query, empty, &no_rows);
    for (int root = 0; root < query.num_relations(); ++root) {
      SCOPED_TRACE(::testing::Message()
                   << "empty " << empty << " root " << root);
      const RootedTree tree = query.Root(root);
      const JoinSlots slots(tree);
      ExpectSlotsMatchKeys(tree, slots);
      const std::vector<std::vector<double>> mult =
          ComputeRowMultiplicities(slots);
      ExpectSameMultiplicities(HashedMultiplicities(tree, {}), mult);
      for (const std::vector<double>& m : mult) {
        for (double w : m) EXPECT_EQ(w, 0.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomDbs, JoinSlotsProperty,
    ::testing::Combine(::testing::ValuesIn(relborg::testing::kPropertySeeds),
                       ::testing::Values(Topology::kStar, Topology::kChain,
                                         Topology::kBushy,
                                         Topology::kNested)));

}  // namespace
}  // namespace relborg
