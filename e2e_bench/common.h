// Shared plumbing for the workloads: the run configuration, the report that
// counts operations and failures and collects metrics, process memory
// probes, result digests and the key/value reference files written by input
// preparation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/snapshot.h"
#include "stats.h"
#include "trace.h"

namespace e2e {

/// Every workload runs its kernels at this many worker threads.
inline constexpr uint32_t kThreads = 4;

/// A traced run measures at least this many (untraced, traced) job pairs.
inline constexpr int kTracedPairs = 2;

struct RunConfig {
  std::string workload;
  std::string input_dir;  // prepared inputs for one seed
  std::string out_dir;    // trace files
  double seconds = 10.0;  // measured-loop length
  bool trace = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Counts attempted and failed operations (library calls returning a
/// Status, and output checks) and holds the metrics to print.
class Report {
 public:
  /// Counts one operation; logs and counts a failure when !ok.
  bool Check(bool ok, std::string_view what);
  bool Check(const ubigraph::Status& st, std::string_view what) {
    return Check(st.ok(), std::string(what) + (st.ok() ? "" : ": " + st.ToString()));
  }
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }

  uint64_t failed() const { return failed_; }

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string ToJson() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, Metric> metrics_;
};

/// Process-lifetime peak RSS (getrusage ru_maxrss) in MiB.
double PeakRssMb();
/// Resets the kernel's VmHWM high-water mark (/proc/self/clear_refs) so the
/// next StagePeakRssMb() covers only what follows. False if unsupported.
bool ResetStagePeak();
/// VmHWM in MiB: peak RSS since the last ResetStagePeak().
double StagePeakRssMb();

/// FNV-1a 64 over raw bytes; bitwise-equal results have equal digests.
uint64_t Digest(const void* data, size_t bytes);
template <typename T>
uint64_t DigestOf(const std::vector<T>& v) {
  return Digest(v.data(), v.size() * sizeof(T));
}

/// One "key value" pair per line; values are the rest of the line.
using KeyValues = std::map<std::string, std::string>;
ubigraph::Status WriteKeyValues(const std::string& path, const KeyValues& kv);
ubigraph::Status ReadKeyValues(const std::string& path, KeyValues* kv);
/// Parses kv[key] as an unsigned integer; InvalidArgument when absent.
ubigraph::Status GetU64(const KeyValues& kv, const std::string& key,
                        uint64_t* out);

/// Seconds since `start_ns` (a NowNs() value).
inline double SecondsSince(int64_t start_ns) {
  return (NowNs() - start_ns) / 1e9;
}

/// Runs `fn` inside a span named `name` of `layer` and adds its wall time
/// to *secs.
template <typename Fn>
auto Timed(Tracer& tracer, const char* name, const char* layer, double* secs,
           Fn&& fn, int64_t group = -1) {
  ScopedSpan span(tracer, name, layer, group);
  const int64_t t0 = NowNs();
  auto result = fn();
  *secs += SecondsSince(t0);
  return result;
}

/// Value of a library obs counter in `snap`, summed over its shards (0 when
/// the counter was never registered).
inline int64_t CounterIn(const ubigraph::obs::StatsSnapshot& snap,
                         const char* name) {
  const ubigraph::obs::CounterSnapshot* c = snap.FindCounter(name);
  return c == nullptr ? 0 : c->value;
}

/// Per-repetition samples of named quantities (one entry per set-up or job).
using Samples = std::map<std::string, std::vector<double>>;
inline double MedianOf(const Samples& s, const std::string& name) {
  auto it = s.find(name);
  return it == s.end() || it->second.empty() ? 0.0 : Median(it->second);
}

}  // namespace e2e
