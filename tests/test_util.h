// Shared fixtures for the relborg test suite:
//  * the "dinner" database of Figure 7 of the paper (Orders, Dish, Items),
//    with hand-computable aggregates,
//  * random acyclic databases (star / chain / bushy topologies) used by the
//    property tests to cross-check the factorized engines against the
//    materialized reference.
//
// Seed policy — every randomized test must be bit-for-bit deterministic:
//  * All randomness flows through util/rng.h (SplitMix64); tests never use
//    std::random_device, time-based seeds, or address-dependent values.
//  * Every Rng in a test is constructed with a literal seed written at the
//    construction site. Property suites enumerate their seeds through
//    INSTANTIATE_TEST_SUITE_P (e.g. Values(1, 2, 3, 7, 42, 1001)) so a
//    failing test's name identifies the seed to replay.
//  * Dataset generators derive their streams from GenOptions::seed
//    (default 20200901); tests that need a different instance change the
//    seed in GenOptions rather than re-seeding mid-test.
//  * Concurrency tests assert order-independent facts (counts, coverage,
//    permutation-invariant sums), never a particular interleaving.
#ifndef RELBORG_TESTS_TEST_UTIL_H_
#define RELBORG_TESTS_TEST_UTIL_H_

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "baseline/data_matrix.h"
#include "core/feature_map.h"
#include "query/join_tree.h"
#include "relational/catalog.h"
#include "ring/covariance.h"
#include "util/rng.h"

namespace relborg {
namespace testing {

// Category codes for the dinner database.
// customer: Elise=0, Steve=1, Joe=2;  day: Monday=0, Friday=1;
// dish: burger=0, hotdog=1;  item: patty=0, onion=1, bun=2, sausage=3.
inline void MakeDinnerDb(Catalog* catalog) {
  Schema orders_schema({{"customer", AttrType::kCategorical},
                        {"day", AttrType::kCategorical},
                        {"dish", AttrType::kCategorical}});
  Relation* orders = catalog->AddRelation("Orders", orders_schema);
  orders->AppendRow({0, 0, 0});  // Elise Monday burger
  orders->AppendRow({0, 1, 0});  // Elise Friday burger
  orders->AppendRow({1, 1, 1});  // Steve Friday hotdog
  orders->AppendRow({2, 1, 1});  // Joe Friday hotdog

  Schema dish_schema({{"dish", AttrType::kCategorical},
                      {"item", AttrType::kCategorical}});
  Relation* dish = catalog->AddRelation("Dish", dish_schema);
  dish->AppendRow({0, 0});  // burger patty
  dish->AppendRow({0, 1});  // burger onion
  dish->AppendRow({0, 2});  // burger bun
  dish->AppendRow({1, 2});  // hotdog bun
  dish->AppendRow({1, 1});  // hotdog onion
  dish->AppendRow({1, 3});  // hotdog sausage

  Schema items_schema({{"item", AttrType::kCategorical},
                       {"price", AttrType::kDouble}});
  Relation* items = catalog->AddRelation("Items", items_schema);
  items->AppendRow({0, 6});  // patty 6
  items->AppendRow({1, 2});  // onion 2
  items->AppendRow({2, 2});  // bun 2
  items->AppendRow({3, 4});  // sausage 4
}

inline JoinQuery MakeDinnerQuery(const Catalog& catalog) {
  JoinQuery q;
  q.AddRelation(catalog.Get("Orders"));
  q.AddRelation(catalog.Get("Dish"));
  q.AddRelation(catalog.Get("Items"));
  q.AddJoin("Orders", "Dish", {"dish"});
  q.AddJoin("Dish", "Items", {"item"});
  return q;
}

// A copy of `query` whose relation at node `v` is `rel`. `rel` must carry
// the replaced relation's name and join-key attributes; the caller keeps it
// alive.
inline JoinQuery ReplaceRelation(const JoinQuery& query, int v,
                                 const Relation* rel) {
  JoinQuery out;
  for (int u = 0; u < query.num_relations(); ++u) {
    out.AddRelation(u == v ? rel : query.relation(u));
  }
  for (const JoinEdge& e : query.edges()) {
    std::vector<std::string> attrs;
    for (int a : e.attrs_a) {
      attrs.push_back(query.relation(e.a)->schema().attr(a).name);
    }
    out.AddJoin(query.relation(e.a)->name(), query.relation(e.b)->name(),
                attrs);
  }
  return out;
}

// Canonical seed lists for randomized property suites (see the seed policy
// above). Suites take their seeds from one of these tiers instead of
// inventing ad-hoc sets, so the full inventory of random streams exercised
// by the suite lives in this header:
//  * kPropertySeeds — broad tier for cheap, exact-comparison suites;
//  * kPropertySeedsSmall — small tier for expensive suites (per-seed cost
//    dominated by engine runs or iterative solvers).
inline constexpr uint64_t kPropertySeeds[] = {1, 2, 3, 7, 42, 1001};
inline constexpr uint64_t kPropertySeedsSmall[] = {3, 21, 55};

enum class Topology { kStar, kChain, kBushy, kNested };

// A randomly generated acyclic database plus its query and feature list.
struct RandomDb {
  std::unique_ptr<Catalog> catalog;
  JoinQuery query;
  std::vector<FeatureRef> features;
};

// Builds a random database. Star: fact R0 joins dims D1..D3 on distinct
// keys; chain: R0-R1-R2 linked by successive keys; bushy: R0 with child D1
// which itself has children D2, D3 (a two-level tree, D3 joined on a
// two-attribute key); nested: Retailer's shape, fact R0(k1, k2, k3, a) with
// D1 on the composite key (k1, k2), D2 on its prefix k1 and D3 on k3, so
// the covariance engine groups R0's rows by (k1, k2). Key values are drawn
// from [0, domain) and some key values are deliberately absent from one
// side (dangling tuples).
//
// integer_values rounds every double feature to an integer (same rng draw
// sequence, so keys and shapes match the unrounded database). Suites that
// compare two different SUMMATION ORDERS of the same multiset — e.g. the
// sharded-vs-unsharded differential — need it: covariance payload sums
// over small integers are exactly representable, making bitwise equality
// independent of fold order.
inline RandomDb MakeRandomDb(uint64_t seed, Topology topology,
                             int fact_rows = 60, int32_t domain = 8,
                             bool integer_values = false) {
  RandomDb db;
  db.catalog = std::make_unique<Catalog>();
  Rng rng(seed);
  auto value = [&]() {
    const double v = rng.Uniform(-2.0, 2.0);
    return integer_values ? std::round(v) : v;
  };

  if (topology == Topology::kStar || topology == Topology::kNested) {
    Schema fact({{"k1", AttrType::kCategorical},
                 {"k2", AttrType::kCategorical},
                 {"k3", AttrType::kCategorical},
                 {"a", AttrType::kDouble}});
    Relation* r0 = db.catalog->AddRelation("R0", fact);
    for (int i = 0; i < fact_rows; ++i) {
      r0->AppendRow({static_cast<double>(rng.Below(domain)),
                     static_cast<double>(rng.Below(domain)),
                     static_cast<double>(rng.Below(domain)), value()});
    }
    // Join keys of D1..D3, one or two attributes each.
    const std::vector<std::vector<std::string>> keys =
        topology == Topology::kStar
            ? std::vector<std::vector<std::string>>{{"k1"}, {"k2"}, {"k3"}}
            : std::vector<std::vector<std::string>>{
                  {"k1", "k2"}, {"k1"}, {"k3"}};
    for (int d = 1; d <= 3; ++d) {
      const std::vector<std::string>& key = keys[d - 1];
      std::string name = "D" + std::to_string(d);
      std::string attr = "b" + std::to_string(d);
      Schema dim;
      for (const std::string& k : key) {
        dim.AddAttribute(k, AttrType::kCategorical);
      }
      dim.AddAttribute(attr, AttrType::kDouble);
      Relation* rel = db.catalog->AddRelation(name, dim);
      const int32_t second = key.size() == 2 ? domain : 1;
      for (int32_t k = 0; k < domain; ++k) {
        for (int32_t k2 = 0; k2 < second; ++k2) {
          if (rng.Uniform() < 0.15) continue;  // dangling fact keys
          int copies = 1 + static_cast<int>(rng.Below(3));
          for (int c = 0; c < copies; ++c) {
            std::vector<double> row = {static_cast<double>(k)};
            if (key.size() == 2) row.push_back(static_cast<double>(k2));
            row.push_back(value());
            rel->AppendRow(row);
          }
        }
      }
      db.features.push_back({name, attr});
    }
    db.features.push_back({"R0", "a"});
    for (const char* name : {"R0", "D1", "D2", "D3"}) {
      db.query.AddRelation(db.catalog->Get(name));
    }
    for (int d = 1; d <= 3; ++d) {
      db.query.AddJoin("R0", "D" + std::to_string(d), keys[d - 1]);
    }
    return db;
  }

  if (topology == Topology::kChain) {
    Schema s0({{"k1", AttrType::kCategorical}, {"a", AttrType::kDouble}});
    Schema s1({{"k1", AttrType::kCategorical},
               {"k2", AttrType::kCategorical},
               {"b", AttrType::kDouble}});
    Schema s2({{"k2", AttrType::kCategorical}, {"c", AttrType::kDouble}});
    Relation* r0 = db.catalog->AddRelation("R0", s0);
    Relation* r1 = db.catalog->AddRelation("R1", s1);
    Relation* r2 = db.catalog->AddRelation("R2", s2);
    for (int i = 0; i < fact_rows; ++i) {
      r0->AppendRow({static_cast<double>(rng.Below(domain)), value()});
      r1->AppendRow({static_cast<double>(rng.Below(domain)),
                     static_cast<double>(rng.Below(domain)), value()});
    }
    for (int32_t k = 0; k < domain; ++k) {
      if (rng.Uniform() < 0.2) continue;
      r2->AppendRow({static_cast<double>(k), value()});
    }
    db.features = {{"R0", "a"}, {"R1", "b"}, {"R2", "c"}};
    db.query.AddRelation(r0);
    db.query.AddRelation(r1);
    db.query.AddRelation(r2);
    db.query.AddJoin("R0", "R1", {"k1"});
    db.query.AddJoin("R1", "R2", {"k2"});
    return db;
  }

  // Bushy: R0(k1,a) - D1(k1,k2,k3a,k3b,b) - { D2(k2,c), D3(k3a,k3b,d) }.
  // D3 exercises two-attribute join keys.
  Schema s0({{"k1", AttrType::kCategorical}, {"a", AttrType::kDouble}});
  Schema s1({{"k1", AttrType::kCategorical},
             {"k2", AttrType::kCategorical},
             {"k3a", AttrType::kCategorical},
             {"k3b", AttrType::kCategorical},
             {"b", AttrType::kDouble}});
  Schema s2({{"k2", AttrType::kCategorical}, {"c", AttrType::kDouble}});
  Schema s3({{"k3a", AttrType::kCategorical},
             {"k3b", AttrType::kCategorical},
             {"d", AttrType::kDouble}});
  Relation* r0 = db.catalog->AddRelation("R0", s0);
  Relation* d1 = db.catalog->AddRelation("D1", s1);
  Relation* d2 = db.catalog->AddRelation("D2", s2);
  Relation* d3 = db.catalog->AddRelation("D3", s3);
  for (int i = 0; i < fact_rows; ++i) {
    r0->AppendRow({static_cast<double>(rng.Below(domain)), value()});
    d1->AppendRow({static_cast<double>(rng.Below(domain)),
                   static_cast<double>(rng.Below(domain)),
                   static_cast<double>(rng.Below(domain / 2 + 1)),
                   static_cast<double>(rng.Below(domain / 2 + 1)), value()});
  }
  for (int32_t k = 0; k < domain; ++k) {
    if (rng.Uniform() < 0.2) continue;
    d2->AppendRow({static_cast<double>(k), value()});
  }
  for (int32_t ka = 0; ka <= domain / 2; ++ka) {
    for (int32_t kb = 0; kb <= domain / 2; ++kb) {
      if (rng.Uniform() < 0.3) continue;
      d3->AppendRow({static_cast<double>(ka), static_cast<double>(kb),
                     value()});
    }
  }
  db.features = {{"R0", "a"}, {"D1", "b"}, {"D2", "c"}, {"D3", "d"}};
  db.query.AddRelation(r0);
  db.query.AddRelation(d1);
  db.query.AddRelation(d2);
  db.query.AddRelation(d3);
  db.query.AddJoin("R0", "D1", {"k1"});
  db.query.AddJoin("D1", "D2", {"k2"});
  db.query.AddJoin("D1", "D3", {"k3a", "k3b"});
  return db;
}

// Reference covariance payload computed directly from a materialized matrix
// whose columns are the features in order.
inline CovarPayload ReferenceCovar(const DataMatrix& matrix) {
  const int n = matrix.num_cols();
  CovarPayload p = CovarPayload::Zero(n);
  for (size_t r = 0; r < matrix.num_rows(); ++r) {
    const double* row = matrix.Row(r);
    p.count += 1;
    for (int i = 0; i < n; ++i) {
      p.sum[i] += row[i];
      for (int j = i; j < n; ++j) {
        p.quad[UpperTriIndex(n, i, j)] += row[i] * row[j];
      }
    }
  }
  return p;
}

}  // namespace testing
}  // namespace relborg

#endif  // RELBORG_TESTS_TEST_UTIL_H_
