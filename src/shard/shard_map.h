// Deterministic key-range sharding of an update stream's root relation.
//
// A ShardMap splits the packed join-key domain of the ROOT relation into
// `num_shards` contiguous ranges — a STATIC split: shard assignment is a
// pure function of (row key, num_shards, domain) and of nothing else, so
// the same row routes to the same shard on every run, on a restore replay,
// and for the matching delete of an earlier insert (deletes re-emit the
// inserted row's exact content, hence its exact key). Non-root relations
// are not split at all; the sharded scheduler broadcasts them, because the
// join distributes over a disjoint partition of the root:
//
//   Q(R ⋈ S ⋈ ...)  =  Σ_i Q(R_i ⋈ S ⋈ ...)   for R = ⊎_i R_i,
//
// and the covariance ring's addition recombines the per-shard aggregates
// exactly (ring merges are key-wise payload additions — see
// CovarArenaMergeInto in ring/covar_arena.h).
#ifndef RELBORG_SHARD_SHARD_MAP_H_
#define RELBORG_SHARD_SHARD_MAP_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "query/join_tree.h"
#include "util/packed_key.h"

namespace relborg {

class ShardMap {
 public:
  // The trivial map: one shard, every row routes to it.
  ShardMap() = default;

  // Explicit split: rows key on `key_attrs` (attribute indices in the root
  // relation, at most two — packed like PackRowKey) and the packed-key
  // domain [0, domain) splits into num_shards contiguous ranges. Keys at or
  // beyond `domain` (streams may insert keys the split never saw) clamp to
  // the last shard — still a pure function of the key.
  ShardMap(int root_node, std::vector<int> key_attrs, uint64_t domain,
           int num_shards);

  // Builds the split for `source` rooted at `root`: keys on the root's
  // join attributes toward its first child (the attributes every root row
  // carries anyway), with the domain sized from the packed keys present in
  // the SOURCE data. A root with no children (single-relation query) falls
  // back to its first categorical attribute; with none of those, every row
  // keys to kUnitKey and lands on shard 0.
  static ShardMap ForQuery(const JoinQuery& source, int root, int num_shards);

  int num_shards() const { return num_shards_; }
  int root_node() const { return root_node_; }
  uint64_t domain() const { return domain_; }
  const std::vector<int>& key_attrs() const { return key_attrs_; }

  // Packed key of a raw update-stream row (values as doubles, like
  // UpdateBatch carries them). The sharded router validates a batch before
  // routing it, but KeyOfRow stays total on its own: malformed rows (too
  // short, or a non-finite key value whose int cast would be undefined)
  // key to kUnitKey and land on shard 0.
  uint64_t KeyOfRow(const std::vector<double>& row) const {
    if (key_attrs_.empty()) return kUnitKey;
    if (key_attrs_.size() == 1) {
      const double a = KeyValue(row, key_attrs_[0]);
      return std::isfinite(a) ? PackKey1(static_cast<int32_t>(a)) : kUnitKey;
    }
    const double a = KeyValue(row, key_attrs_[0]);
    const double b = KeyValue(row, key_attrs_[1]);
    if (!std::isfinite(a) || !std::isfinite(b)) return kUnitKey;
    return PackKey2(static_cast<int32_t>(a), static_cast<int32_t>(b));
  }

  // The contiguous range holding `key`: floor(key * num_shards / domain),
  // clamped to the last shard for keys beyond the domain. 128-bit
  // intermediate — packed two-attribute keys use the full 64 bits.
  int ShardOfKey(uint64_t key) const {
    if (num_shards_ <= 1 || key >= domain_) return num_shards_ - 1;
    return static_cast<int>(static_cast<unsigned __int128>(key) *
                            static_cast<unsigned __int128>(num_shards_) /
                            domain_);
  }

  int ShardOfRow(const std::vector<double>& row) const {
    return ShardOfKey(KeyOfRow(row));
  }

 private:
  static double KeyValue(const std::vector<double>& row, int attr) {
    const size_t a = static_cast<size_t>(attr);
    return a < row.size() ? row[a] : std::nan("");
  }

  int root_node_ = 0;
  std::vector<int> key_attrs_;
  uint64_t domain_ = 1;
  int num_shards_ = 1;
};

}  // namespace relborg

#endif  // RELBORG_SHARD_SHARD_MAP_H_
