// Summary statistics the benchmark reports: medians, nearest-rank
// percentiles with the "at least ten samples beyond" rule, guarded ratios,
// and the interval-union length that span self times are computed from.
// Header-only so stats_test.cc can pin every rule without the library.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace e2e {

/// Median of `v` (mean of the two middle samples for an even count).
inline double Median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("Median of no samples");
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// 1-based nearest-rank position of percentile `pct` (1..99) among `n`
/// samples: the smallest rank k with k >= pct% of n.
inline size_t NearestRank(size_t n, unsigned pct) {
  if (pct == 0 || pct >= 100) throw std::invalid_argument("pct must be 1..99");
  return std::max<size_t>(1, (static_cast<size_t>(pct) * n + 99) / 100);
}

/// Number of samples ranked strictly above percentile `pct`.
inline size_t SamplesBeyond(size_t n, unsigned pct) {
  return n == 0 ? 0 : n - NearestRank(n, pct);
}

/// A percentile is reportable only when at least `min_beyond` samples lie
/// beyond it; below that its value is set by a handful of outliers.
inline bool PercentileSupported(size_t n, unsigned pct,
                                size_t min_beyond = 10) {
  return n > 0 && SamplesBeyond(n, pct) >= min_beyond;
}

/// Nearest-rank percentile `pct` of `v`.
inline double Percentile(std::vector<double> v, unsigned pct) {
  if (v.empty()) throw std::invalid_argument("Percentile of no samples");
  std::sort(v.begin(), v.end());
  return v[NearestRank(v.size(), pct) - 1];
}

/// Percentile over operations that every repetition runs in the same order
/// (reps[r][i] is operation i's latency in repetition r): each operation's
/// latency is its median over the repetitions, and `pct` is taken over those
/// per-operation medians. Contention that slows a minority of repetitions
/// leaves it unchanged, where a percentile over all samples pooled moves.
inline double RepeatedOpPercentile(const std::vector<std::vector<double>>& reps,
                                   unsigned pct) {
  if (reps.empty()) throw std::invalid_argument("no repetitions");
  const size_t ops = reps.front().size();
  std::vector<double> per_op(ops);
  for (size_t i = 0; i < ops; ++i) {
    std::vector<double> samples;
    for (const std::vector<double>& rep : reps) {
      if (rep.size() != ops) throw std::invalid_argument("ragged repetitions");
      samples.push_back(rep[i]);
    }
    per_op[i] = Median(std::move(samples));
  }
  return Percentile(std::move(per_op), pct);
}

/// num / den, or 0 when den is 0 (a layer the workload never exercised).
inline double SafeRatio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// How many times faster the 4-thread run is than the 1-thread run.
inline double Speedup(double one_thread_s, double four_thread_s) {
  return SafeRatio(one_thread_s, four_thread_s);
}

/// Fractional cost of tracing: traced / untraced - 1 (0 without a base).
inline double OverheadFrac(double traced_s, double untraced_s) {
  return untraced_s == 0.0 ? 0.0 : traced_s / untraced_s - 1.0;
}

/// Cache hit ratio hits / (hits + misses); 0 with no accesses.
inline double HitRatio(double hits, double misses) {
  return SafeRatio(hits, hits + misses);
}

/// Share of `threads` x `wall_ns` the pool workers spent running tasks.
inline double BusyFrac(double busy_ns, unsigned threads, double wall_ns) {
  return SafeRatio(busy_ns, threads * wall_ns);
}

/// Length of the union of half-open intervals [first, second), each clipped
/// to [lo, hi). Overlapping and out-of-order intervals are handled.
inline int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> iv,
                         int64_t lo, int64_t hi) {
  for (auto& [a, b] : iv) {
    a = std::clamp(a, lo, hi);
    b = std::clamp(b, lo, hi);
  }
  std::sort(iv.begin(), iv.end());
  int64_t covered = 0;
  int64_t cur_a = lo, cur_b = lo;
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (a > cur_b) {
      covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  return covered + (cur_b - cur_a);
}

/// A span's self time: its duration minus the part its children cover.
inline int64_t SelfNs(int64_t start, int64_t end,
                      std::vector<std::pair<int64_t, int64_t>> children) {
  return (end - start) - CoveredNs(std::move(children), start, end);
}

}  // namespace e2e
