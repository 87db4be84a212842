#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One reported metric and the number of samples (or the denominator
/// count, for ratios) behind it.
struct Value {
  double value = 0;
  int64_t samples = 0;
};
using Layers = std::map<std::string, Value>;

/// Nearest-rank quantile of `v` (sorted in place); 0 when empty.
inline double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const size_t i = static_cast<size_t>(q * static_cast<double>(v->size() - 1) + 0.5);
  return (*v)[std::min(i, v->size() - 1)];
}

/// Records the p50 (and p90 when `p90`) of `samples` under `name.p50`/`.p90`.
inline void PutQuantiles(Layers* out, const std::string& name,
                         std::vector<double> samples, bool p90) {
  const auto n = static_cast<int64_t>(samples.size());
  (*out)[name + ".p50"] = {Quantile(&samples, 0.5), n};
  if (p90) (*out)[name + ".p90"] = {Quantile(&samples, 0.9), n};
}

inline Value Ratio(double num, double den) {
  return {den > 0 ? num / den : 0, static_cast<int64_t>(den)};
}

/// Latencies in log-linear buckets (128 per power of two, so a bucket is
/// at most 0.8% wide). Memory is fixed however many requests a run
/// completes, so peak RSS does not grow with throughput.
class LatencyHistogram {
 public:
  void Add(int64_t ns) {
    ++counts_[Index(ns)];
    ++count_;
  }
  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }
  int64_t count() const { return count_; }

  /// Nearest-rank quantile in microseconds, interpolated within its bucket.
  double QuantileUs(double q) const {
    if (count_ == 0) return 0;
    const double rank = q * static_cast<double>(count_ - 1);
    int64_t below = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0 || below + counts_[i] <= rank) {
        below += counts_[i];
        continue;
      }
      const int octave = static_cast<int>(i) / kSub;
      const double width = std::ldexp(1.0, octave) / kSub;
      const double lower = std::ldexp(1.0, octave) + width * (static_cast<int>(i) % kSub);
      return (lower + width * (rank - below + 0.5) / counts_[i]) / 1e3;
    }
    return 0;
  }

 private:
  static constexpr int kSub = 128;
  static constexpr int kOctaves = 40;  // up to 2^40 ns, about 18 minutes

  static size_t Index(int64_t ns) {
    if (ns < 1) ns = 1;
    const int octave = std::min(
        kOctaves - 1, static_cast<int>(std::bit_width(static_cast<uint64_t>(ns))) - 1);
    const int64_t base = int64_t{1} << octave;
    const int64_t sub = std::min<int64_t>(kSub - 1, (ns - base) * kSub / base);
    return static_cast<size_t>(octave * kSub + sub);
  }

  std::vector<uint32_t> counts_ = std::vector<uint32_t>(kSub * kOctaves);
  int64_t count_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
