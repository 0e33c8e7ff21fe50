// Shared pieces of the end-to-end benchmark: the clock every stamp uses, a
// seeded RNG, the mergeable latency histogram, the CPU burn, the set-up
// yardstick, and the metric report the program prints.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

namespace e2e {

/// Nanoseconds on the monotonic clock since the process started. Every stamp
/// in the benchmark (due times, span bounds, latencies) is on this clock, so
/// stamps taken on different threads compare directly.
inline int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

/// splitmix64: the benchmark's own input RNG, seeded from --seed, so inputs
/// never depend on the engine's RNG draw order.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed * 0x9e3779b97f4a7c15ull + 1) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }
  /// Uniform in (0, 1).
  double Open01() {
    return (static_cast<double>(Next() >> 11) + 0.5) * 0x1.0p-53;
  }

 private:
  uint64_t s_;
};

/// Deterministic CPU burn: `rounds` dependent multiply-xorshift steps.
inline uint64_t Burn(uint64_t x, int rounds) {
  uint64_t h = x ^ 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < rounds; ++i) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 29;
  }
  return h;
}

/// Wall time of a fixed allocate/hash/free pass of the benchmark's own, in
/// ns: the yardstick setup_s is measured against. On a shared host the wall
/// time of a millisecond of allocation-heavy work swings up to 2x from one
/// process to the next and from minute to minute (memory placement, the
/// neighbours' cache traffic). An engine set-up and this pass, run back to
/// back on one thread, swing together, so their ratio holds where either
/// time alone does not.
inline int64_t ReferencePassNs(uint64_t salt) {
  const int64_t a = NowNs();
  {
    std::unordered_map<uint64_t, uint64_t> map;
    std::vector<std::vector<uint64_t>> lists(2000);
    for (uint64_t i = 0; i < 10000; ++i) {
      map[(i + salt) * 0x9e3779b97f4a7c15ull] = i;
    }
    for (auto& l : lists) l.resize(16, salt);
    uint64_t sum = 0;
    for (const auto& [k, v] : map) sum += v;
    for (const auto& l : lists) sum += l[salt % 16];
    static volatile uint64_t sink;
    sink = sum;
  }
  return NowNs() - a;
}

/// setup_s is each set-up's wall time divided by the reference pass run just
/// before it, times this: the set-up time on a machine where the pass takes
/// 1 ms (on the 4-vCPU KVM guest the seed was measured on it takes 0.6-1.3 ms).
constexpr double kReferencePassS = 1e-3;

/// Log-linear histogram of non-negative ns values: 32 linear sub-buckets per
/// power of two (~3% bucket width), quantiles interpolated inside the bucket
/// so that a percentile moves continuously with the data. Buckets are
/// allocated on first use, so an untouched window costs nothing. (The
/// engine's Histogram reports bucket midpoints, which repeat exactly across
/// runs, and allocates up front; a run keeps hundreds of these per thread.)
class LatHist {
 public:
  void Record(int64_t v) {
    if (b_.empty()) b_.assign(kBuckets, 0);
    ++b_[Index(v)];
    ++n_;
  }

  void Merge(const LatHist& o) {
    if (o.n_ == 0) return;
    if (b_.empty()) b_.assign(kBuckets, 0);
    for (int i = 0; i < kBuckets; ++i) b_[i] += o.b_[i];
    n_ += o.n_;
  }

  uint64_t count() const { return n_; }

  /// Value at quantile q in [0, 1], in ns; 0 when empty.
  double Quantile(double q) const {
    if (n_ == 0) return 0.0;
    const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(n_);
    double cum = 0.0;
    for (int i = 0; i < kBuckets; ++i) {
      if (b_[i] == 0) continue;
      const double c = static_cast<double>(b_[i]);
      if (cum + c >= target) {
        return static_cast<double>(Lower(i)) +
               (target - cum) / c * static_cast<double>(Width(i));
      }
      cum += c;
    }
    return static_cast<double>(Lower(kBuckets - 1));
  }

 private:
  static constexpr int kSubBits = 5;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kMaxExp = 42;  // ~73 minutes.
  static constexpr int kBuckets = kSub + (kMaxExp - kSubBits) * kSub;

  static int Index(int64_t v) {
    if (v < kSub) return v < 0 ? 0 : static_cast<int>(v);
    const uint64_t u = static_cast<uint64_t>(v);
    const int shift = (63 - std::countl_zero(u)) - kSubBits;
    const int idx = kSub + shift * kSub + static_cast<int>((u >> shift) - kSub);
    return std::min(idx, kBuckets - 1);
  }
  static int64_t Lower(int i) {
    if (i < kSub) return i;
    const int shift = (i - kSub) / kSub;
    return static_cast<int64_t>(kSub + (i - kSub) % kSub) << shift;
  }
  static int64_t Width(int i) {
    return i < kSub ? 1 : int64_t{1} << ((i - kSub) / kSub);
  }

  std::vector<uint32_t> b_;
  uint64_t n_ = 0;
};

/// Median of a sample (0 when empty).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile of a sample (0 when empty).
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t i = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())) - 1.0);
  return v[std::min(i, v.size() - 1)];
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload process reports.
struct Outcome {
  std::vector<Metric> metrics;
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;  // Why `correct` is false.

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// Peak resident set of this process, in MB.
double PeakRssMb();

}  // namespace e2e
