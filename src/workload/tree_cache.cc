#include "workload/tree_cache.h"

#include <utility>

#include "common/check.h"
#include "obs/metrics.h"

namespace xptc {

namespace {

// TreeCache instances come and go with trees, so their counters live as
// process-wide registry metrics rather than per-instance collectors (the
// per-instance view is `within_entries()`/`label_entries()`). Fetched once:
// registry lookups take a mutex, Adds are relaxed atomics.
struct TreeCacheMetrics {
  obs::Counter& within_hits;
  obs::Counter& within_misses;
  obs::Counter& within_stores;
  obs::Counter& label_builds;
  static TreeCacheMetrics& Get() {
    static TreeCacheMetrics* m = new TreeCacheMetrics{
        obs::Registry::Default().counter("tree_cache.within_hits"),
        obs::Registry::Default().counter("tree_cache.within_misses"),
        obs::Registry::Default().counter("tree_cache.within_stores"),
        obs::Registry::Default().counter("tree_cache.label_builds")};
    return *m;
  }
};

}  // namespace

TreeCache::TreeCache(std::shared_ptr<const Tree> tree)
    : tree_(std::move(tree)) {
  XPTC_CHECK(tree_ != nullptr);
  calibration_ = axis::CalibrateCrossover(*tree_);
}

const Bitset& TreeCache::LabelSet(Symbol label) {
  Shard& shard = ShardFor(static_cast<size_t>(label));
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.labels.find(label);
  if (it != shard.labels.end()) return it->second;
  // Built under the shard lock: O(|T|), paid once per (tree, label), and
  // holding the lock means concurrent first users don't duplicate the scan.
  TreeCacheMetrics::Get().label_builds.Inc();
  Bitset set(tree_->size());
  for (NodeId v = 0; v < tree_->size(); ++v) {
    if (tree_->Label(v) == label) set.Set(v);
  }
  return shard.labels.emplace(label, std::move(set)).first->second;
}

const Bitset* TreeCache::FindWithin(const NodeExpr& body, size_t hash) {
  XPTC_DCHECK(hash == NodeHash(body));
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.within.find(hash);
  if (it == shard.within.end()) {
    TreeCacheMetrics::Get().within_misses.Inc();
    return nullptr;
  }
  for (const WithinEntry& entry : it->second) {
    if (NodeEquals(*entry.body, body)) {
      TreeCacheMetrics::Get().within_hits.Inc();
      return &entry.set;
    }
  }
  TreeCacheMetrics::Get().within_misses.Inc();
  return nullptr;
}

const Bitset& TreeCache::StoreWithin(const NodePtr& body, size_t hash,
                                     Bitset wset) {
  XPTC_CHECK(body != nullptr);
  XPTC_DCHECK(wset.size() == tree_->size());
  XPTC_DCHECK(hash == NodeHash(*body));
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  std::deque<WithinEntry>& chain = shard.within[hash];
  for (const WithinEntry& entry : chain) {
    if (NodeEquals(*entry.body, *body)) return entry.set;  // lost the race
  }
  TreeCacheMetrics::Get().within_stores.Inc();
  chain.push_back(WithinEntry{body, std::move(wset)});
  return chain.back().set;
}

size_t TreeCache::within_entries() const {
  size_t count = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [hash, chain] : shard.within) count += chain.size();
  }
  return count;
}

size_t TreeCache::label_entries() const {
  size_t count = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    count += shard.labels.size();
  }
  return count;
}

}  // namespace xptc
