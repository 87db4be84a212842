#include "xpath/axis_kernels.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>

#include "common/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace xptc {

namespace axis {

namespace {

std::atomic<int> g_mode{static_cast<int>(Mode::kAuto)};

std::atomic<bool> g_closure_collapse{true};

}  // namespace

Mode ActiveMode() {
  return static_cast<Mode>(g_mode.load(std::memory_order_relaxed));
}

void SetModeForTesting(Mode mode) {
  g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

void ResetModeForTesting() {
  g_mode.store(static_cast<int>(Mode::kAuto), std::memory_order_relaxed);
}

bool ClosureCollapseEnabled() {
  return g_closure_collapse.load(std::memory_order_relaxed);
}

void SetClosureCollapseForTesting(bool enabled) {
  g_closure_collapse.store(enabled, std::memory_order_relaxed);
}

void ResetClosureCollapseForTesting() {
  g_closure_collapse.store(true, std::memory_order_relaxed);
}

}  // namespace axis

namespace {

// Per-axis dispatch counters, fetched once (registry lookups lock; the
// kernels pay one relaxed atomic add per image). The same names flow into
// the active trace so EXPLAIN's trace-vs-registry cross-check covers them.
struct AxisMetrics {
  obs::Counter* sparse[kNumAxes];
  obs::Counter* dense[kNumAxes];
  std::string sparse_name[kNumAxes];
  std::string dense_name[kNumAxes];
  static AxisMetrics& Get() {
    static AxisMetrics* m = [] {
      auto* metrics = new AxisMetrics();
      obs::Registry& reg = obs::Registry::Default();
      for (int a = 0; a < kNumAxes; ++a) {
        const std::string name =
            std::string("axis.") + AxisToString(static_cast<Axis>(a));
        metrics->sparse_name[a] = name + ".sparse_path";
        metrics->dense_name[a] = name + ".dense_path";
        metrics->sparse[a] = &reg.counter(metrics->sparse_name[a]);
        metrics->dense[a] = &reg.counter(metrics->dense_name[a]);
      }
      return metrics;
    }();
    return *m;
  }
};

void RecordDispatch(Axis axis, bool dense) {
  AxisMetrics& m = AxisMetrics::Get();
  const int a = static_cast<int>(axis);
  (dense ? m.dense : m.sparse)[a]->Inc();
  if (obs::CurrentTraceNode() != nullptr) {
    obs::TraceAddCount((dense ? m.dense_name : m.sparse_name)[a].c_str(), 1);
  }
}

/// Sampled density estimate: `popcount(sources ∩ window) * crossover >=
/// window`, with the popcount *estimated* from a strided probe of at most
/// kDensityProbeWords words instead of a full CountRange pass — the full
/// O(window/64) pre-scan was a measurable regression on sparse frontiers
/// (it cost a whole extra pass over the very words the sparse chase was
/// about to decode). Deterministic: same sources → same probe words →
/// same decision. Sources are a subset of the window by the kernel
/// contract, so partial head/tail words need no masking.
bool DensityAboveCrossover(const Bitset& sources, NodeId lo, NodeId hi,
                           int crossover) {
  const int window = hi - lo;
  const uint64_t* words = sources.words();
  const size_t wlo = static_cast<size_t>(lo) >> 6;
  const size_t whi = static_cast<size_t>(hi - 1) >> 6;  // inclusive
  const size_t nwords = whi - wlo + 1;
  constexpr size_t kProbe = static_cast<size_t>(axis::kDensityProbeWords);
  if (nwords <= kProbe) {
    int64_t count = 0;
    for (size_t wi = wlo; wi <= whi; ++wi) {
      count += __builtin_popcountll(words[wi]);
    }
    return count * crossover >= window;
  }
  const size_t stride = nwords / kProbe;
  int64_t sampled = 0;
  for (size_t i = 0; i < kProbe; ++i) {
    sampled += __builtin_popcountll(words[wlo + i * stride]);
  }
  // Scale the sample back up to the window; integer math, overflow-safe
  // (sampled <= 64*64 bits, nwords and crossover are small).
  const int64_t estimated = sampled * static_cast<int64_t>(nwords) /
                            static_cast<int64_t>(kProbe);
  return estimated * crossover >= window;
}

/// Density gate for the column-streaming child/parent paths: the dense
/// pass costs O(window) column reads, the sparse pass O(popcount) chases —
/// so stream once the (estimated) source count passes 1/crossover of the
/// window. `kInterval` keeps child/parent on the sparse chase: it forces
/// only the closure-axis streamed kernels.
bool UseDense(const Bitset& sources, NodeId lo, NodeId hi, int crossover) {
  switch (axis::ActiveMode()) {
    case axis::Mode::kSparse:
    case axis::Mode::kInterval:
      return false;
    case axis::Mode::kDense:
      return true;
    case axis::Mode::kAuto:
      break;
  }
  const int window = hi - lo;
  if (window < axis::kDenseMinWindow) return false;
  return DensityAboveCrossover(sources, lo, hi, crossover);
}

/// Dispatch gate for the streamed closure kernels (ancestor backward
/// sweep, sibling chain passes): forced on by kDense *and* kInterval,
/// density-gated under kAuto — the streamed pass costs O(window) column
/// reads like the dense child/parent paths, so the same crossover applies.
bool UseStreamed(const Bitset& sources, NodeId lo, NodeId hi, int crossover) {
  switch (axis::ActiveMode()) {
    case axis::Mode::kSparse:
      return false;
    case axis::Mode::kDense:
    case axis::Mode::kInterval:
      return true;
    case axis::Mode::kAuto:
      break;
  }
  const int window = hi - lo;
  if (window < axis::kDenseMinWindow) return false;
  return DensityAboveCrossover(sources, lo, hi, crossover);
}

// The preorder columns are int32 node ids; the gather kernel indexes with
// raw int32 spans, so the column pointer is the index vector.
static_assert(sizeof(NodeId) == sizeof(int32_t),
              "streaming axis kernels gather through int32 id columns");

// ---------------------------------------------------------------------------
// Child image. Every node of (lo, hi) has its parent inside [lo, hi) (the
// window is a subtree), so the dense form is total on the interior:
// out bit v = sources bit parent_[v].

void ChildImageSparse(const Tree& tree, const Bitset& sources, NodeId lo,
                      NodeId hi, Bitset* out) {
  const NodeId* first_child = tree.FirstChildData();
  const NodeId* next_sibling = tree.NextSiblingData();
  sources.ForEachSetBitBatch(lo, hi, [&](const int32_t* idx, int count) {
    for (int k = 0; k < count; ++k) {
      for (NodeId c = first_child[idx[k]]; c != kNoNode;
           c = next_sibling[c]) {
        out->Set(c);
      }
    }
  });
}

void ChildImageDense(const Tree& tree, const Bitset& sources, NodeId lo,
                     NodeId hi, Bitset* out) {
  const NodeId* parent = tree.ParentData();
  const uint64_t* src = sources.words();
  const NodeId first = lo + 1;  // the context root has no in-window parent
  if (first >= hi) return;
  // Masked head/tail ids scalar, whole 64-id words through the dispatched
  // bit-gather with the parent column itself as the index vector.
  const NodeId head_end = std::min(hi, (first + 63) & ~63);
  for (NodeId v = first; v < head_end; ++v) {
    if (src[static_cast<uint32_t>(parent[v]) >> 6] >> (parent[v] & 63) & 1) {
      out->Set(v);
    }
  }
  const NodeId tail_begin = std::max(head_end, hi & ~63);
  if (head_end < tail_begin) {
    simd::Active().gather_words(
        out->mutable_words() + (head_end >> 6), src,
        reinterpret_cast<const int32_t*>(parent + head_end),
        static_cast<size_t>(tail_begin - head_end) >> 6);
  }
  for (NodeId v = tail_begin; v < hi; ++v) {
    if (src[static_cast<uint32_t>(parent[v]) >> 6] >> (parent[v] & 63) & 1) {
      out->Set(v);
    }
  }
}

// ---------------------------------------------------------------------------
// Parent image. The dense form is the scatter dual: one branch-free
// sequential pass over the parent column, OR-ing each node's source bit
// into its parent's output slot.

void ParentImageSparse(const Tree& tree, const Bitset& sources, NodeId lo,
                       NodeId hi, Bitset* out) {
  const NodeId* parent = tree.ParentData();
  sources.ForEachSetBitBatch(lo, hi, [&](const int32_t* idx, int count) {
    for (int k = 0; k < count; ++k) {
      if (idx[k] != lo) out->Set(parent[idx[k]]);
    }
  });
}

void ParentImageDense(const Tree& tree, const Bitset& sources, NodeId lo,
                      NodeId hi, Bitset* out) {
  const NodeId* parent = tree.ParentData();
  const uint64_t* src = sources.words();
  uint64_t* dst = out->mutable_words();
  for (NodeId v = lo + 1; v < hi; ++v) {
    const uint64_t bit = src[static_cast<uint32_t>(v) >> 6] >> (v & 63) & 1;
    const NodeId p = parent[v];  // p in [lo, v): never outside the window
    dst[static_cast<uint32_t>(p) >> 6] |= bit << (p & 63);
  }
}

// ---------------------------------------------------------------------------
// The remaining axes: batch-decoded set-bit iteration over the raw link
// columns (sparse by nature — their images are link chases or id-range
// writes that never probe every node of the window).

void AncestorImage(const Tree& tree, const Bitset& sources, NodeId lo,
                   NodeId hi, Bitset* out) {
  // Climb parent chains, stopping at the first already-marked ancestor
  // (everything above it is marked too): O(sources + |image|) total.
  const NodeId* parent = tree.ParentData();
  sources.ForEachSetBitBatch(lo, hi, [&](const int32_t* idx, int count) {
    for (int k = 0; k < count; ++k) {
      NodeId v = idx[k];
      while (v != lo) {
        v = parent[v];
        if (out->Get(v)) break;
        out->Set(v);
      }
    }
  });
}

void AncestorImageSweep(const Tree& tree, const Bitset& sources, NodeId lo,
                        NodeId hi, Bitset* out) {
  // Interval stabbing, streamed: v is a strict ancestor of some source iff
  // the *nearest* source strictly after v (in preorder) still falls inside
  // v's subtree interval — sources past SubtreeEnd(v) are past every
  // earlier source too. One backward pass over the `subtree_end_` column
  // carrying that nearest-later-source id; branch-free in the loop body
  // (the conditional compiles to a cmov), O(window) column reads total
  // versus the O(sources × depth) parent chase.
  const NodeId* subtree_end = tree.SubtreeEndData();
  const uint64_t* src = sources.words();
  uint64_t* dst = out->mutable_words();
  NodeId nearest = hi;  // sentinel: no source after v (subtree_end <= hi)
  for (NodeId v = hi - 1; v >= lo; --v) {
    const uint64_t is_anc = static_cast<uint64_t>(nearest < subtree_end[v]);
    dst[static_cast<uint32_t>(v) >> 6] |= is_anc << (v & 63);
    const bool is_src =
        (src[static_cast<uint32_t>(v) >> 6] >> (v & 63)) & 1;
    nearest = is_src ? v : nearest;
  }
}

void DescendantImage(const Tree& tree, const Bitset& sources, NodeId lo,
                     NodeId hi, Bitset* out) {
  // The image is a union of preorder intervals [v+1, SubtreeEnd(v)),
  // each one `fill_range` write. Sources inside an already-covered
  // interval are nested subtrees and contribute nothing new, so jump
  // straight past each interval — near-optimal at both density extremes
  // (sparse: O(|S|) interval writes; dense: the first source's interval
  // covers almost everything and the scan ends in O(1) hops).
  for (int v = sources.FindFirstInRange(lo, hi); v >= 0;) {
    const NodeId end = tree.SubtreeEnd(v);
    out->SetRange(v + 1, end);
    v = end >= hi ? -1 : sources.FindFirstInRange(end, hi);
  }
}

void DescendantImageDense(const Tree& tree, const Bitset& sources, NodeId lo,
                          NodeId hi, Bitset* out) {
  // Forward propagation over the parent column: v is in the image iff its
  // parent is a source or in the image, and parent[v] < v in preorder so
  // the parent's output bit is final when v is reached. Kept as the
  // forced-kDense cross-check of the interval form above (which auto
  // always prefers — see UseStreamed).
  const NodeId* parent = tree.ParentData();
  const uint64_t* src = sources.words();
  uint64_t* dst = out->mutable_words();
  for (NodeId v = lo + 1; v < hi; ++v) {
    const NodeId p = parent[v];
    const uint64_t bit = ((src[static_cast<uint32_t>(p) >> 6] |
                           dst[static_cast<uint32_t>(p) >> 6]) >>
                          (p & 63)) &
                         1;
    dst[static_cast<uint32_t>(v) >> 6] |= bit << (v & 63);
  }
}

template <bool kForward>
void SiblingChainStream(const Tree& tree, const Bitset& sources, NodeId lo,
                        NodeId hi, Bitset* out) {
  // Streamed transitive sibling chains: v is in the fsib-image iff its
  // previous sibling is a source or in the image (dually psib over next
  // siblings, swept backward). Siblings of interior window nodes are
  // interior themselves and previous siblings have smaller preorder ids,
  // so one ordered pass over the link column settles every chain — no
  // chain walking, no marked-stop probes. Branch-free body: missing links
  // (kNoNode) read slot 0 and mask the bit to zero.
  const NodeId* link =
      kForward ? tree.PrevSiblingData() : tree.NextSiblingData();
  const uint64_t* src = sources.words();
  uint64_t* dst = out->mutable_words();
  if (kForward) {
    for (NodeId v = lo + 1; v < hi; ++v) {
      const NodeId m = link[v];
      const NodeId mm = m >= 0 ? m : 0;
      const uint64_t ok = static_cast<uint64_t>(m >= 0);
      const uint64_t bit = ok & ((src[static_cast<uint32_t>(mm) >> 6] |
                                  dst[static_cast<uint32_t>(mm) >> 6]) >>
                                 (mm & 63));
      dst[static_cast<uint32_t>(v) >> 6] |= (bit & 1) << (v & 63);
    }
  } else {
    for (NodeId v = hi - 1; v > lo; --v) {
      const NodeId m = link[v];
      const NodeId mm = m >= 0 ? m : 0;
      const uint64_t ok = static_cast<uint64_t>(m >= 0);
      const uint64_t bit = ok & ((src[static_cast<uint32_t>(mm) >> 6] |
                                  dst[static_cast<uint32_t>(mm) >> 6]) >>
                                 (mm & 63));
      dst[static_cast<uint32_t>(v) >> 6] |= (bit & 1) << (v & 63);
    }
  }
}

template <bool kForward>
void AdjacentSiblingImage(const Tree& tree, const Bitset& sources, NodeId lo,
                          NodeId hi, Bitset* out) {
  const NodeId* link =
      kForward ? tree.NextSiblingData() : tree.PrevSiblingData();
  sources.ForEachSetBitBatch(lo, hi, [&](const int32_t* idx, int count) {
    for (int k = 0; k < count; ++k) {
      if (idx[k] == lo) continue;  // the context root has no siblings
      const NodeId s = link[idx[k]];
      if (s != kNoNode) out->Set(s);
    }
  });
}

template <bool kForward>
void TransitiveSiblingImage(const Tree& tree, const Bitset& sources, NodeId lo,
                            NodeId hi, Bitset* out) {
  // Walk each sibling chain, stopping at the first already-marked sibling
  // (the rest of that chain is already marked).
  const NodeId* link =
      kForward ? tree.NextSiblingData() : tree.PrevSiblingData();
  sources.ForEachSetBitBatch(lo, hi, [&](const int32_t* idx, int count) {
    for (int k = 0; k < count; ++k) {
      if (idx[k] == lo) continue;
      for (NodeId s = link[idx[k]]; s != kNoNode && !out->Get(s);
           s = link[s]) {
        out->Set(s);
      }
    }
  });
}

/// The non-counting implementation body; `AxisImageInto` wraps it with the
/// dispatch decision and the per-axis counters (counted once per public
/// call — the or-self axes delegate here, not through the public entry).
/// Returns true when the streamed/dense column path ran (the `.dense_path`
/// counter), false on the per-set-bit paths.
bool AxisImageImpl(const Tree& tree, Axis axis, const Bitset& sources,
                   NodeId lo, NodeId hi, Bitset* out,
                   const axis::Calibration& cal) {
  switch (axis) {
    case Axis::kSelf:
      out->CopyRange(sources, lo, hi);
      break;
    case Axis::kChild:
      if (UseDense(sources, lo, hi, cal.child_dense_crossover)) {
        ChildImageDense(tree, sources, lo, hi, out);
        return true;
      }
      ChildImageSparse(tree, sources, lo, hi, out);
      break;
    case Axis::kParent:
      if (UseDense(sources, lo, hi, cal.parent_dense_crossover)) {
        ParentImageDense(tree, sources, lo, hi, out);
        return true;
      }
      ParentImageSparse(tree, sources, lo, hi, out);
      break;
    case Axis::kDescendant:
      // The interval-union form is near-optimal at both density extremes,
      // so auto (and kInterval) always takes it; forced kDense runs the
      // parent-column propagation pass as an independent cross-check.
      if (axis::ActiveMode() == axis::Mode::kDense) {
        DescendantImageDense(tree, sources, lo, hi, out);
        return true;
      }
      DescendantImage(tree, sources, lo, hi, out);
      break;
    case Axis::kAncestor:
      // The streamed sweep and sibling chains read sequential link columns
      // the way the parent scatter does, so they share its crossover.
      if (UseStreamed(sources, lo, hi, cal.parent_dense_crossover)) {
        AncestorImageSweep(tree, sources, lo, hi, out);
        return true;
      }
      AncestorImage(tree, sources, lo, hi, out);
      break;
    case Axis::kDescendantOrSelf: {
      const bool dense =
          AxisImageImpl(tree, Axis::kDescendant, sources, lo, hi, out, cal);
      out->OrRange(sources, lo, hi);
      return dense;
    }
    case Axis::kAncestorOrSelf: {
      const bool dense =
          AxisImageImpl(tree, Axis::kAncestor, sources, lo, hi, out, cal);
      out->OrRange(sources, lo, hi);
      return dense;
    }
    case Axis::kNextSibling:
      AdjacentSiblingImage<true>(tree, sources, lo, hi, out);
      break;
    case Axis::kPrevSibling:
      AdjacentSiblingImage<false>(tree, sources, lo, hi, out);
      break;
    case Axis::kFollowingSibling:
      if (UseStreamed(sources, lo, hi, cal.parent_dense_crossover)) {
        SiblingChainStream<true>(tree, sources, lo, hi, out);
        return true;
      }
      TransitiveSiblingImage<true>(tree, sources, lo, hi, out);
      break;
    case Axis::kPrecedingSibling:
      if (UseStreamed(sources, lo, hi, cal.parent_dense_crossover)) {
        SiblingChainStream<false>(tree, sources, lo, hi, out);
        return true;
      }
      TransitiveSiblingImage<false>(tree, sources, lo, hi, out);
      break;
    case Axis::kFollowing: {
      // following(n) = {m : m >= SubtreeEnd(n)} in preorder ids, so the
      // image is the id suffix [min SubtreeEnd over sources, hi). Once a
      // source id passes the running minimum, SubtreeEnd(v) > v >= min can
      // no longer improve it, so the scan stops early.
      NodeId threshold = hi;
      for (int v = sources.FindFirstInRange(lo, hi);
           v >= 0 && v < threshold && v < hi; v = sources.FindNext(v)) {
        threshold = std::min(threshold, tree.SubtreeEnd(v));
      }
      out->SetRange(std::max(threshold, lo), hi);
      break;
    }
    case Axis::kPreceding: {
      // preceding(n) = {m : SubtreeEnd(m) <= n}; only the largest source
      // id matters. Its preceding set is every earlier-in-context node
      // except its ancestors (whose subtrees extend past it).
      const int last = sources.FindLastInRange(lo, hi);
      if (last > lo) {
        out->SetRange(lo, last);
        for (NodeId a = tree.Parent(last);; a = tree.Parent(a)) {
          out->Reset(a);
          if (a == lo) break;
        }
      }
      break;
    }
  }
  return false;
}

}  // namespace

void AxisImageInto(const Tree& tree, Axis axis, const Bitset& sources,
                   NodeId lo, NodeId hi, Bitset* out) {
  const bool dense =
      AxisImageImpl(tree, axis, sources, lo, hi, out, axis::Calibration{});
  RecordDispatch(axis, dense);
}

void AxisImageInto(const Tree& tree, Axis axis, const Bitset& sources,
                   NodeId lo, NodeId hi, Bitset* out,
                   const axis::Calibration& calibration) {
  const bool dense =
      AxisImageImpl(tree, axis, sources, lo, hi, out, calibration);
  RecordDispatch(axis, dense);
}

namespace axis {

namespace {

/// Trees below this size skip the microprobe: the kernels are noise-level
/// there (and the unit/EXPLAIN fixtures stay byte-identical in behavior).
constexpr int kCalibrateMinNodes = 4096;

}  // namespace

Calibration CalibrateCrossover(const Tree& tree) {
  Calibration cal;
  const int n = tree.size();
  if (n < kCalibrateMinNodes) return cal;
  // Sparse probe at 1/64 density, dense probe saturated; both full-window.
  // The kernel bodies are called directly — no RecordDispatch, so the
  // probe never shows up in axis.* counters or EXPLAIN traces.
  Bitset sparse_src(n);
  for (NodeId v = 0; v < n; v += 64) sparse_src.Set(v);
  const int sparse_count = sparse_src.Count();
  Bitset dense_src(n, true);
  Bitset out(n);
  const auto time_ns = [&out](auto&& fn) {
    int64_t best = std::numeric_limits<int64_t>::max();
    for (int rep = 0; rep < 3; ++rep) {
      out.ResetAll();
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min<int64_t>(
          best,
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count());
    }
    return best;
  };
  // Each vertical kernel pair is probed separately: the child dense
  // gather streams several times faster per node than the parent dense
  // scatter on wide-gather hardware, and the chase costs drift apart as
  // the tree outgrows cache — one shared ratio routes one axis's sparse
  // frontiers dense (or dense frontiers sparse) and loses that whole win.
  const auto ratio_of = [&](auto&& sparse_fn, auto&& dense_fn) {
    const int64_t sparse_ns = time_ns(sparse_fn);
    const int64_t dense_ns = time_ns(dense_fn);
    const double per_chase =
        static_cast<double>(sparse_ns) / std::max(sparse_count, 1);
    const double per_node = static_cast<double>(dense_ns) / n;
    const double ratio = per_node > 0
                             ? per_chase / per_node
                             : static_cast<double>(kDenseCrossover);
    return static_cast<int>(
        std::clamp(std::lround(ratio), long{2}, long{64}));
  };
  cal.child_dense_crossover =
      ratio_of([&] { ChildImageSparse(tree, sparse_src, 0, n, &out); },
               [&] { ChildImageDense(tree, dense_src, 0, n, &out); });
  cal.parent_dense_crossover =
      ratio_of([&] { ParentImageSparse(tree, sparse_src, 0, n, &out); },
               [&] { ParentImageDense(tree, dense_src, 0, n, &out); });
  return cal;
}

}  // namespace axis

}  // namespace xptc
