// Execution policy for the aggregate engines: how many threads to use and
// how to partition relation scans for domain parallelism.
//
// The engines offer two plans:
//
//   * the LEGACY plan (ExecPolicy{} / threads == 0): one serial bottom-up
//     pass accumulating in row order — the canonical reference the
//     materialized baselines and the existing suites pin down;
//   * the PARTITIONED plan (threads >= 1): every relation scan is split
//     into fixed partitions, each partition accumulates serially in row
//     order into its own partial view, and partials are merged in
//     ascending partition order.
//
// The partitioned plan is DETERMINISTIC BY CONSTRUCTION: the partition
// boundaries are a pure function of the row count (never of the thread
// count), and every floating-point accumulation order is fixed by the
// (partition, row) structure, so ExecPolicy{1}, ExecPolicy{2} and
// ExecPolicy{4} produce bit-identical results — threads only decide who
// executes each partition, not what is summed in which order. The
// thread-sweep suite in tests/exec_policy_test.cc enforces this.
//
// Two-level parallelism: independent view groups of the view tree (nodes
// at the same depth have no view dependencies between them) run
// concurrently at the outer level, and each node's scan runs
// domain-parallel over its partitions at the inner level via the
// nest-safe ThreadPool::ParallelFor.
#ifndef RELBORG_CORE_EXEC_POLICY_H_
#define RELBORG_CORE_EXEC_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "query/join_tree.h"
#include "util/thread_pool.h"

namespace relborg {

struct ExecPolicy {
  // 0 selects the legacy serial plan; >= 1 selects the partitioned plan
  // executed with that many threads (1 = the same plan, run serially).
  int threads = 0;
  // Rows per partition. Partition boundaries depend on the row count and
  // this grain only — NEVER on `threads` — which is what makes the
  // partitioned plan's results independent of the thread count.
  size_t partition_grain = 2048;
  size_t max_partitions = 64;

  bool enabled() const { return threads >= 1; }
  bool parallel() const { return threads > 1; }

  // Number of partitions for a scan of `rows` rows: a pure function of
  // (rows, partition_grain, max_partitions).
  size_t NumPartitions(size_t rows) const;

  // Thread count from RELBORG_THREADS, defaulting to the hardware
  // concurrency. Invalid values warn on stderr and fall back to the
  // default (benches additionally record the effective thread count in
  // every JSON record, so a misread knob is visible in the trajectory).
  static ExecPolicy FromEnv();
};

// Runtime companion of an ExecPolicy: borrows a process-wide cached pool of
// the right size (pools are created once per distinct thread count and
// reused, so constructing an ExecContext per engine invocation costs no
// thread spawn/join), and hands out deterministic partition bounds.
class ExecContext {
 public:
  explicit ExecContext(const ExecPolicy& policy);
  ~ExecContext();

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  const ExecPolicy& policy() const { return policy_; }
  bool enabled() const { return policy_.enabled(); }
  int threads() const { return policy_.threads; }

  // Runs fn(i) for i in [0, n): in ascending order on the calling thread
  // when serial, via the (nest-safe) pool otherwise. fn must only write
  // state owned by index i.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn) const;

  size_t NumPartitions(size_t rows) const {
    return policy_.NumPartitions(rows);
  }

  // Half-open row range of partition `part` of `parts` over [0, rows):
  // contiguous, ascending, exhaustive.
  static std::pair<size_t, size_t> PartitionBounds(size_t rows, size_t parts,
                                                   size_t part);

 private:
  ExecPolicy policy_;
  ThreadPool* pool_ = nullptr;  // borrowed from the process cache
};

// Independent view groups of a rooted join tree: nodes grouped by depth,
// deepest group first, node ids ascending within a group (the root is the
// last group). Views in one group only read views of deeper groups, so a
// group's nodes can be computed concurrently once all deeper groups are
// done.
std::vector<std::vector<int>> IndependentViewGroups(const RootedTree& tree);

// Per-node group index of IndependentViewGroups: group_of[v] == g iff v is
// in groups[g] (0 is the deepest group, the root group is last). The
// stream scheduler's canonical range order within an epoch sorts by this.
std::vector<int> ViewGroupOf(const RootedTree& tree);

// Sets mask[u] = 1 for `node` and every ancestor of `node` up to the root
// (mask is indexed by node id and must already have num_nodes entries;
// already-marked entries short-circuit the walk). The union over a set of
// nodes is the read closure of view-tree maintenance for that set: a
// range's delta scan reads its own node and upward propagation reads
// strictly ancestors, so the stream scheduler may commit rows of any node
// OUTSIDE the closure concurrently with the set's maintenance.
void MarkAncestorClosure(const RootedTree& tree, int node,
                         std::vector<uint8_t>* mask);

// Sets mask[c] = 1 for every child of `node` (same indexing contract as
// MarkAncestorClosure). The children of a node are the READ set of its
// delta scan — what a speculative ComputeDelta probes — while the ancestor
// closure is the read set of the full maintenance pass.
void MarkChildren(const RootedTree& tree, int node,
                  std::vector<uint8_t>* mask);

// True iff the two node masks share a marked node. The stream scheduler's
// compute stage uses this to test a range's probe set against the write
// closures of epochs still in flight.
bool MasksIntersect(const std::vector<uint8_t>& a,
                    const std::vector<uint8_t>& b);

// Deterministic partitioned reduction over [0, rows): `scan(begin, end,
// &acc)` accumulates one partition serially in row order; `merge(out,
// &partial)` folds partials into *out serially in ascending partition
// order. With one partition (any disabled policy, or few rows) the scan
// writes straight into *out — byte-for-byte the legacy serial pass. The
// partition count is thread-independent, so every ExecPolicy{N >= 1}
// takes the same branch and produces identical results.
template <typename Partial, typename ScanFn, typename MergeFn>
void PartitionedScan(const ExecContext& ctx, size_t rows, Partial* out,
                     ScanFn&& scan, MergeFn&& merge) {
  const size_t parts = ctx.NumPartitions(rows);
  if (parts <= 1) {
    scan(0, rows, out);
    return;
  }
  std::vector<Partial> partials(parts);
  ctx.ParallelFor(parts, [&](size_t p) {
    const std::pair<size_t, size_t> b =
        ExecContext::PartitionBounds(rows, parts, p);
    scan(b.first, b.second, &partials[p]);
  });
  for (size_t p = 0; p < parts; ++p) merge(out, &partials[p]);
}

}  // namespace relborg

#endif  // RELBORG_CORE_EXEC_POLICY_H_
