// In-memory span recorder for the traced run. Spans are opened around the
// benchmark's calls into each library layer (the library itself is not
// instrumented with spans), nested through a stack, and written out at exit
// as a Chrome trace_event file. Recording is single-threaded: every span is
// opened and closed on the benchmark's main thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::string layer;  // io, graph, algorithms, shard, stream, bench
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;     // index into Tracer::spans(), -1 for a root
  int64_t group = -1;  // shared by the spans of one query or one batch
};

class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span as a child of the innermost open span. `group` < 0
  /// inherits the parent's group. Returns the span's index.
  int Begin(std::string name, std::string layer, int64_t group = -1);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer, summed over `root` and every span nested in it.
  std::map<std::string, int64_t> LayerSelfNs(int root) const;

  /// Summed duration of the spans nested in `root`, by span name.
  std::map<std::string, int64_t> NameNs(int root) const;

  /// Share of `root`'s duration covered by nested spans outside the
  /// benchmark's own "bench" layer (library calls and output checks).
  double LayerCoverage(int root) const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span;
  /// args carry the span id, parent id and group id. False on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::vector<int> Children(int id) const;
  std::vector<int> Descendants(int id) const;

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span for the enclosing scope when the tracer is enabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::string layer,
             int64_t group = -1)
      : tracer_(tracer),
        id_(tracer.enabled()
                ? tracer.Begin(std::move(name), std::move(layer), group)
                : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_.End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace e2e
