#ifndef XPTC_WORKLOAD_TREE_CACHE_H_
#define XPTC_WORKLOAD_TREE_CACHE_H_

#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/alphabet.h"
#include "common/bitset.h"
#include "tree/tree.h"
#include "xpath/ast.h"
#include "xpath/axis_kernels.h"

namespace xptc {

/// Per-tree, cross-query, cross-thread memoisation.
///
/// An `exec::ExecEngine` memoises `W φ` sets and per-label node sets for
/// its own lifetime. This class lifts both memos to the lifetime of the
/// *tree*: every evaluation of every query on the same document (from any
/// worker thread, through any engine attached to it) shares one copy, so
/// the dominant `W` cost is paid once per (tree, body) instead of once per
/// (tree, body, query).
///
/// Concurrency model: read-mostly, mutex-sharded. Entries are computed
/// outside the lock, inserted under a shard lock, and never mutated or
/// evicted afterwards — invalidation is a non-problem because `Tree` is
/// immutable and both kinds of entry depend on nothing but the tree.
/// Returned references stay valid for the cache's lifetime (node-based
/// containers; entries are never erased). If two threads race to compute
/// the same entry the first insert wins and the loser's work is discarded —
/// wasted cycles, never wrong answers.
///
/// `W` results are keyed *structurally* (NodeHash/NodeEquals), not by
/// pointer: every plan is hash-consed by its own simplifier call, so two
/// queries that share a body hold two structurally equal copies, and both
/// hit the one entry. This is the only `W` memo in front of the bottom-up
/// pass for engines attached to the tree — an engine keeps no L1 of its
/// own. Callers pass the body's `NodeHash`, computed once when the program
/// was compiled (`exec::WithinBody::hash`), so a lookup hashes nothing and
/// compares structure only within one hash chain (a pointer-equal body
/// matches at once). Each entry pins its body expression via `NodePtr` so
/// keys can never dangle.
class TreeCache {
 public:
  explicit TreeCache(std::shared_ptr<const Tree> tree);

  TreeCache(const TreeCache&) = delete;
  TreeCache& operator=(const TreeCache&) = delete;

  const Tree& tree() const { return *tree_; }
  const std::shared_ptr<const Tree>& tree_ptr() const { return tree_; }

  /// Per-tree axis-dispatch calibration, measured once at admission
  /// (`axis::CalibrateCrossover`): the sparse/dense crossover for *this*
  /// tree's shape on *this* hardware. Engines pass it to the calibrated
  /// `AxisImageInto` overload so auto dispatch stops relying on the fixed
  /// compile-time constant.
  const axis::Calibration& calibration() const { return calibration_; }

  /// The node set {v : Label(v) == label}, computed on first use.
  const Bitset& LabelSet(Symbol label);

  /// The memoised `W`-body result for `body`, or nullptr if not yet stored.
  /// `hash` must be `NodeHash(body)`.
  const Bitset* FindWithin(const NodeExpr& body, size_t hash);

  /// Stores `wset` as the result for `body` (pinning `body`); returns the
  /// entry that ends up stored — the previously stored one if another
  /// thread won the race, else the one just inserted. `hash` must be
  /// `NodeHash(*body)`.
  const Bitset& StoreWithin(const NodePtr& body, size_t hash, Bitset wset);

  /// Stats (tests and reports).
  size_t within_entries() const;
  size_t label_entries() const;

 private:
  struct WithinEntry {
    NodePtr body;
    Bitset set;
  };
  struct Shard {
    mutable std::mutex mu;
    // hash → chain of structurally distinct bodies with that hash. Deques
    // keep element addresses stable across growth.
    std::unordered_map<size_t, std::deque<WithinEntry>> within;
    std::unordered_map<Symbol, Bitset> labels;
  };

  static constexpr int kNumShards = 8;

  Shard& ShardFor(size_t hash) { return shards_[hash % kNumShards]; }

  std::shared_ptr<const Tree> tree_;
  axis::Calibration calibration_;
  Shard shards_[kNumShards];
};

}  // namespace xptc

#endif  // XPTC_WORKLOAD_TREE_CACHE_H_
