#include "core/exec_policy.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

#include "util/check.h"

namespace relborg {
namespace {

// One shared pool per distinct worker count, created on first use and kept
// for the process lifetime (like ThreadPool::Default()). Engines construct
// an ExecContext per invocation, so pools must not be spawned per call —
// the spawn/join would land inside every measured region.
ThreadPool* CachedPool(int workers) {
  static std::mutex mu;
  static std::map<int, std::unique_ptr<ThreadPool>>* pools =
      new std::map<int, std::unique_ptr<ThreadPool>>();
  std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<ThreadPool>& pool = (*pools)[workers];
  if (pool == nullptr) pool = std::make_unique<ThreadPool>(workers);
  return pool.get();
}

}  // namespace

size_t ExecPolicy::NumPartitions(size_t rows) const {
  if (!enabled()) return 1;
  const size_t grain = std::max<size_t>(1, partition_grain);
  size_t parts = rows == 0 ? 1 : (rows + grain - 1) / grain;
  return std::min(std::max<size_t>(parts, 1),
                  std::max<size_t>(1, max_partitions));
}

ExecPolicy ExecPolicy::FromEnv() {
  ExecPolicy policy;
  policy.threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const char* env = std::getenv("RELBORG_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 1024) {
      policy.threads = static_cast<int>(v);
    } else {
      std::fprintf(stderr,
                   "RELBORG_THREADS='%s' is not an integer in [1, 1024]; "
                   "using %d threads\n",
                   env, policy.threads);
    }
  }
  return policy;
}

ExecContext::ExecContext(const ExecPolicy& policy) : policy_(policy) {
  // ParallelFor runs on the calling thread too, so threads - 1 workers
  // give `threads` concurrent executors.
  if (policy_.parallel()) pool_ = CachedPool(policy_.threads - 1);
}

ExecContext::~ExecContext() = default;

void ExecContext::ParallelFor(size_t n,
                              const std::function<void(size_t)>& fn) const {
  if (pool_ == nullptr || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool_->ParallelFor(n, fn);
}

std::pair<size_t, size_t> ExecContext::PartitionBounds(size_t rows,
                                                       size_t parts,
                                                       size_t part) {
  RELBORG_CHECK(parts >= 1 && part < parts);
  return {rows * part / parts, rows * (part + 1) / parts};
}

std::vector<std::vector<int>> IndependentViewGroups(const RootedTree& tree) {
  const int num_nodes = tree.num_nodes();
  std::vector<int> depth(num_nodes, 0);
  int max_depth = 0;
  // Preorder (= reversed postorder) visits parents before children.
  const std::vector<int>& post = tree.postorder();
  for (auto it = post.rbegin(); it != post.rend(); ++it) {
    int v = *it;
    int p = tree.node(v).parent;
    depth[v] = p < 0 ? 0 : depth[p] + 1;
    max_depth = std::max(max_depth, depth[v]);
  }
  std::vector<std::vector<int>> groups(max_depth + 1);
  for (int v = 0; v < num_nodes; ++v) {
    // Node ids ascend within a group; groups[0] is the deepest level.
    groups[max_depth - depth[v]].push_back(v);
  }
  return groups;
}

std::vector<int> ViewGroupOf(const RootedTree& tree) {
  const std::vector<std::vector<int>> groups = IndependentViewGroups(tree);
  std::vector<int> group_of(tree.num_nodes(), 0);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (int v : groups[g]) group_of[v] = static_cast<int>(g);
  }
  return group_of;
}

void MarkAncestorClosure(const RootedTree& tree, int node,
                         std::vector<uint8_t>* mask) {
  for (int v = node; v >= 0; v = tree.node(v).parent) {
    if ((*mask)[v]) return;  // the rest of the path is already marked
    (*mask)[v] = 1;
  }
}

void MarkChildren(const RootedTree& tree, int node,
                  std::vector<uint8_t>* mask) {
  for (int c : tree.node(node).children) (*mask)[c] = 1;
}

bool MasksIntersect(const std::vector<uint8_t>& a,
                    const std::vector<uint8_t>& b) {
  const size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t v = 0; v < n; ++v) {
    if (a[v] && b[v]) return true;
  }
  return false;
}

}  // namespace relborg
