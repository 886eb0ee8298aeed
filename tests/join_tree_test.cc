// Unit tests for src/query: join trees, rooting, predicates, width.
#include <limits>

#include "gtest/gtest.h"
#include "query/join_tree.h"
#include "query/predicate.h"
#include "query/width.h"
#include "relational/catalog.h"
#include "tests/test_util.h"

namespace relborg {
namespace {

using testing::MakeDinnerDb;
using testing::MakeDinnerQuery;

class JoinTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MakeDinnerDb(&catalog_);
    query_ = MakeDinnerQuery(catalog_);
  }
  Catalog catalog_;
  JoinQuery query_;
};

TEST_F(JoinTreeTest, RootAtOrders) {
  RootedTree tree = query_.Root("Orders");
  EXPECT_EQ(tree.root(), query_.IndexOf("Orders"));
  int dish = query_.IndexOf("Dish");
  int items = query_.IndexOf("Items");
  EXPECT_EQ(tree.node(dish).parent, tree.root());
  EXPECT_EQ(tree.node(items).parent, dish);
  // Dish joins to Orders on its "dish" attribute (index 0).
  ASSERT_EQ(tree.node(dish).key_attrs.size(), 1u);
  EXPECT_EQ(tree.node(dish).key_attrs[0], 0);
  // Orders' matching attribute is its "dish" (index 2).
  EXPECT_EQ(tree.node(dish).parent_key_attrs[0], 2);
}

TEST_F(JoinTreeTest, PostorderChildrenBeforeParents) {
  for (int root = 0; root < query_.num_relations(); ++root) {
    RootedTree tree = query_.Root(root);
    std::vector<int> position(tree.num_nodes(), -1);
    const auto& post = tree.postorder();
    ASSERT_EQ(static_cast<int>(post.size()), tree.num_nodes());
    for (int i = 0; i < static_cast<int>(post.size()); ++i) {
      position[post[i]] = i;
    }
    for (int v = 0; v < tree.num_nodes(); ++v) {
      for (int c : tree.node(v).children) {
        EXPECT_LT(position[c], position[v]);
      }
    }
    EXPECT_EQ(post.back(), root);
  }
}

TEST_F(JoinTreeTest, ReRootingFlipsParentEdges) {
  RootedTree tree = query_.Root("Items");
  int orders = query_.IndexOf("Orders");
  int dish = query_.IndexOf("Dish");
  EXPECT_EQ(tree.node(orders).parent, dish);
  EXPECT_EQ(tree.node(dish).parent, query_.IndexOf("Items"));
  // Orders now joins up to Dish on "dish" (Orders attr index 2).
  EXPECT_EQ(tree.node(orders).key_attrs[0], 2);
}

TEST_F(JoinTreeTest, RowKeys) {
  RootedTree tree = query_.Root("Orders");
  int dish = query_.IndexOf("Dish");
  // Dish row 3 is (hotdog=1, bun=2); its key to parent is dish value 1.
  EXPECT_EQ(tree.RowKeyToParent(dish, 3), PackKey1(1));
  // Orders row 0 (Elise Monday burger) probes Dish's view with key 0.
  EXPECT_EQ(tree.RowKeyToChild(tree.root(), dish, 0), PackKey1(0));
  // Root key is the unit key.
  EXPECT_EQ(tree.RowKeyToParent(tree.root(), 0), kUnitKey);
}

TEST(PredicateTest, Matches) {
  Schema s({{"x", AttrType::kDouble}, {"c", AttrType::kCategorical}});
  Relation r("R", s);
  r.AppendRow({1.5, 3});
  r.AppendRow({-0.5, 5});
  EXPECT_TRUE(Predicate::Ge(0, 1.0).Matches(r, 0));
  EXPECT_FALSE(Predicate::Ge(0, 1.0).Matches(r, 1));
  EXPECT_TRUE(Predicate::Lt(0, 0.0).Matches(r, 1));
  EXPECT_TRUE(Predicate::Eq(1, 3).Matches(r, 0));
  EXPECT_TRUE(Predicate::Ne(1, 3).Matches(r, 1));
  EXPECT_TRUE(Predicate::InSet(1, {5, 3}).Matches(r, 0));
  EXPECT_FALSE(Predicate::InSet(1, {4}).Matches(r, 0));
  EXPECT_TRUE(Predicate::NotInSet(1, {4}).Matches(r, 0));
  EXPECT_TRUE(RowPasses(r, 0, {Predicate::Ge(0, 1.0), Predicate::Eq(1, 3)}));
  EXPECT_FALSE(RowPasses(r, 0, {Predicate::Ge(0, 2.0), Predicate::Eq(1, 3)}));
}

TEST(PredicateTest, LtIsTheExactComplementOfGe) {
  Schema s({{"x", AttrType::kDouble}});
  Relation r("R", s);
  r.AppendRow({std::numeric_limits<double>::quiet_NaN()});
  r.AppendRow({1.0});
  r.AppendRow({0.5});
  for (size_t row = 0; row < r.num_rows(); ++row) {
    EXPECT_NE(Predicate::Ge(0, 1.0).Matches(r, row),
              Predicate::Lt(0, 1.0).Matches(r, row))
        << "row " << row;
  }
  // NaN fails every comparison, so it takes the Lt side.
  EXPECT_FALSE(Predicate::Ge(0, 1.0).Matches(r, 0));
  EXPECT_TRUE(Predicate::Lt(0, 1.0).Matches(r, 0));
}

TEST(WidthTest, AcyclicQueries) {
  // The dinner query: Orders(c,d,dish), Dish(dish,item), Items(item,price).
  Hypergraph hg;
  hg.AddEdge({"customer", "day", "dish"});
  hg.AddEdge({"dish", "item"});
  hg.AddEdge({"item", "price"});
  EXPECT_TRUE(IsAlphaAcyclic(hg));
}

TEST(WidthTest, TriangleIsCyclic) {
  Hypergraph hg;
  hg.AddEdge({"a", "b"});
  hg.AddEdge({"b", "c"});
  hg.AddEdge({"a", "c"});
  EXPECT_FALSE(IsAlphaAcyclic(hg));
}

TEST(WidthTest, EdgeCoverNumbers) {
  Hypergraph hg;
  hg.AddEdge({"a", "b"});
  hg.AddEdge({"b", "c"});
  hg.AddEdge({"a", "c"});
  // Triangle: two edges cover all three vertices.
  EXPECT_EQ(IntegralEdgeCoverNumber(hg), 2);
  EXPECT_GE(FractionalEdgeCoverUpperBound(hg), 1.5);

  Hypergraph star;
  star.AddEdge({"k1", "k2", "k3"});
  star.AddEdge({"k1", "b1"});
  star.AddEdge({"k2", "b2"});
  star.AddEdge({"k3", "b3"});
  EXPECT_TRUE(IsAlphaAcyclic(star));
  // The three dimension edges plus the fact edge are needed.
  EXPECT_EQ(IntegralEdgeCoverNumber(star), 3);
}

TEST(WidthTest, SubsetEdgeRemoved) {
  Hypergraph hg;
  hg.AddEdge({"a", "b", "c"});
  hg.AddEdge({"a", "b"});
  EXPECT_TRUE(IsAlphaAcyclic(hg));
  EXPECT_EQ(IntegralEdgeCoverNumber(hg), 1);
}

}  // namespace
}  // namespace relborg
