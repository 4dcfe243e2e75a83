// Unit tests for the benchmark's statistics and tracing helpers: the
// percentile rule (a percentile needs ten samples beyond it), span self
// times and coverage, and the ratio helpers. Run by `ctest` in the
// benchmark's build directory; exits non-zero on the first failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test.cc:%d: FAILED %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::abs(a - b) <= 1e-12; }

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentileRule() {
  using namespace e2e;
  // 100 samples: p90 is rank 90 with exactly ten beyond it.
  EXPECT(NearestRank(100, 90) == 90);
  EXPECT(SamplesBeyond(100, 90) == 10);
  EXPECT(PercentileSupported(100, 90));
  // One sample fewer leaves only nine beyond p90.
  EXPECT(NearestRank(99, 90) == 90);
  EXPECT(!PercentileSupported(99, 90));
  // p50 needs twenty samples.
  EXPECT(PercentileSupported(20, 50));
  EXPECT(!PercentileSupported(19, 50));
  EXPECT(!PercentileSupported(0, 50));
  EXPECT(PercentileSupported(1000, 99));
  EXPECT(!PercentileSupported(999, 99));
  // Nearest rank picks a real sample, never an interpolation.
  EXPECT(Percentile(OneTo(100), 50) == 50);
  EXPECT(Percentile(OneTo(100), 90) == 90);
  EXPECT(Percentile(OneTo(300), 90) == 270);
  EXPECT(Percentile({7.0}, 90) == 7.0);
  EXPECT(Median(OneTo(5)) == 3);
  EXPECT(Median(OneTo(4)) == 2.5);
}

bool Throws(const std::vector<std::vector<double>>& reps) {
  try {
    e2e::RepeatedOpPercentile(reps, 90);
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void TestRepeatedOpPercentile() {
  using namespace e2e;
  // Three repetitions of 100 operations; the second ran during a burst
  // that made every operation ten times slower.
  std::vector<double> burst = OneTo(100);
  for (double& x : burst) x *= 10;
  const std::vector<std::vector<double>> reps = {OneTo(100), burst, OneTo(100)};
  std::vector<double> pooled;
  for (const auto& r : reps) pooled.insert(pooled.end(), r.begin(), r.end());
  EXPECT(Percentile(pooled, 90) == 700);  // pooled: the burst sets p90
  EXPECT(RepeatedOpPercentile(reps, 90) == 90);
  EXPECT(RepeatedOpPercentile(reps, 50) == 50);
  // Each operation keeps its own median: op i is i+1 in two reps of three.
  EXPECT(RepeatedOpPercentile({{1, 2}, {3, 4}, {5, 6}}, 50) == 3);
  EXPECT(RepeatedOpPercentile({OneTo(100)}, 90) == Percentile(OneTo(100), 90));
  EXPECT(Throws({}));
  EXPECT(Throws({OneTo(100), OneTo(99)}));
}

void TestCoverageAndSelfTime() {
  using e2e::CoveredNs;
  using e2e::SelfNs;
  // Overlapping [10,30) and [20,40) cover 30; [90,120) is clipped to 10.
  EXPECT(CoveredNs({{10, 30}, {20, 40}, {90, 120}}, 0, 100) == 40);
  EXPECT(SelfNs(0, 100, {{20, 40}, {90, 120}, {10, 30}}) == 60);
  // Nested and duplicate children count once.
  EXPECT(CoveredNs({{10, 50}, {20, 30}, {10, 50}}, 0, 100) == 40);
  // Disjoint, out of order, and empty or inverted intervals.
  EXPECT(CoveredNs({{60, 70}, {0, 5}, {30, 30}, {80, 75}}, 0, 100) == 15);
  EXPECT(CoveredNs({}, 0, 100) == 0);
  EXPECT(SelfNs(0, 100, {}) == 100);
  // Children entirely outside the parent cover nothing.
  EXPECT(CoveredNs({{-50, -10}, {200, 300}}, 0, 100) == 0);
}

void Spin() {
  volatile double x = 0;
  for (int i = 0; i < 200000; ++i) x = x + std::sqrt(double(i));
}

void TestTracer() {
  e2e::Tracer t;
  {
    e2e::ScopedSpan off(t, "ignored", "io");
    EXPECT(off.id() == -1);  // disabled tracers record nothing
  }
  EXPECT(t.spans().empty());

  t.set_enabled(true);
  int root = -1;
  {
    e2e::ScopedSpan job(t, "job", "bench", 7);
    root = job.id();
    Spin();
    {
      e2e::ScopedSpan a(t, "algo.a", "algorithms");
      Spin();
      e2e::ScopedSpan leaf(t, "io.leaf", "io", 9);
      Spin();
    }
    e2e::ScopedSpan b(t, "algo.b", "algorithms");
    Spin();
  }
  const auto& s = t.spans();
  EXPECT(s.size() == 4);
  EXPECT(s[1].parent == root && s[2].parent == 1 && s[3].parent == root);
  EXPECT(s[1].group == 7 && s[2].group == 9 && s[3].group == 7);

  // Self times partition the root's duration exactly.
  const auto self = t.LayerSelfNs(root);
  int64_t total = 0;
  for (const auto& [layer, ns] : self) total += ns;
  EXPECT(total == s[root].end_ns - s[root].start_ns);
  EXPECT(self.at("io") == s[2].end_ns - s[2].start_ns);
  EXPECT(self.at("algorithms") == (s[1].end_ns - s[1].start_ns) -
                                      (s[2].end_ns - s[2].start_ns) +
                                      (s[3].end_ns - s[3].start_ns));
  // Coverage is the part of the root not spent in "bench" self time.
  const double root_ns = double(s[root].end_ns - s[root].start_ns);
  EXPECT(Near(t.LayerCoverage(root), 1.0 - self.at("bench") / root_ns));
  EXPECT(t.LayerCoverage(root) > 0.0 && t.LayerCoverage(root) < 1.0);
  EXPECT(t.NameNs(root).at("io.leaf") == s[2].end_ns - s[2].start_ns);

  const std::string path = "stats_test_trace.json";
  EXPECT(t.WriteChromeJson(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT(text.str().find("\"traceEvents\"") != std::string::npos);
  EXPECT(text.str().find("\"name\": \"io.leaf\", \"cat\": \"io\"") != std::string::npos);
  std::remove(path.c_str());
}

void TestRatios() {
  using namespace e2e;
  EXPECT(SafeRatio(1, 0) == 0);
  EXPECT(SafeRatio(3, 2) == 1.5);
  EXPECT(Speedup(2.0, 0.5) == 4.0);
  EXPECT(Speedup(1.0, 0.0) == 0.0);
  EXPECT(Near(OverheadFrac(1.1, 1.0), 0.1));
  EXPECT(OverheadFrac(1.0, 0.0) == 0.0);
  EXPECT(HitRatio(3, 1) == 0.75);
  EXPECT(HitRatio(0, 0) == 0.0);
  EXPECT(BusyFrac(2e9, 4, 1e9) == 0.5);
  EXPECT(BusyFrac(1, 4, 0) == 0.0);
}

}  // namespace

int main() {
  TestPercentileRule();
  TestRepeatedOpPercentile();
  TestCoverageAndSelfTime();
  TestTracer();
  TestRatios();
  if (failures == 0) std::printf("stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
