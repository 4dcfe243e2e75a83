#include "workloads.h"

#include <algorithm>
#include <iostream>
#include <set>

#include "algorithms/connected_components.h"

namespace e2e {

namespace {
// Layer name in spans -> metric prefix.
constexpr std::pair<const char*, const char*> kLayers[] = {
    {"io", "io"},         {"graph", "graph"}, {"algorithms", "algo"},
    {"shard", "shard"},   {"stream", "stream"}};
}  // namespace

void RecordLayerSelf(const Tracer& tracer, int root, Samples* samples) {
  const auto self = tracer.LayerSelfNs(root);
  for (const auto& [layer, prefix] : kLayers) {
    auto it = self.find(layer);
    (*samples)[std::string(prefix) + ".self_s"].push_back(
        it == self.end() ? 0.0 : it->second / 1e9);
  }
}

void RecordTracedJob(const Tracer& tracer, int job_span,
                     const ubigraph::obs::StatsSnapshot& before,
                     const ubigraph::obs::StatsSnapshot& after, double job_s,
                     Samples* job) {
  for (const auto& [name, ns] : tracer.NameNs(job_span)) {
    (*job)[name + "_s"].push_back(ns / 1e9);
  }
  RecordLayerSelf(tracer, job_span, job);
  auto delta = [&](const char* name) {
    return static_cast<double>(CounterIn(after, name) - CounterIn(before, name));
  };
  (*job)["pool.busy_frac"].push_back(BusyFrac(delta("pool.busy_ns"), kThreads, job_s * 1e9));
  (*job)["pool.tasks"].push_back(delta("pool.tasks_completed"));
  (*job)["coverage"].push_back(tracer.LayerCoverage(job_span));
}

void ReportTracedJobs(const Samples& setup, const Samples& job, Report& report) {
  for (const auto& [layer, prefix] : kLayers) {
    const std::string name = std::string(prefix) + ".self_s";
    report.Set(name, MedianOf(setup, name) + MedianOf(job, name), "s");
  }
  report.Set("pool.busy_frac", MedianOf(job, "pool.busy_frac"), "ratio");
  report.Set("pool.tasks", MedianOf(job, "pool.tasks"), "count");
  report.Set("obs.trace_overhead_frac",
             OverheadFrac(MedianOf(job, "job_s"), MedianOf(job, "untraced_job_s")),
             "ratio");
  const auto it = job.find("coverage");
  const double worst = it == job.end() || it->second.empty()
                           ? 0.0
                           : *std::min_element(it->second.begin(), it->second.end());
  report.Check(worst >= 0.9, "layer spans cover >= 90% of every traced job (worst " +
                                 std::to_string(worst) + ")");
}

void ReportEndToEnd(const Samples& setup, const Samples& job,
                    const std::vector<std::vector<double>>& latencies_s,
                    Report& report) {
  report.Set("setup_s", MedianOf(setup, "setup_s"), "s");
  report.Set("job_s", MedianOf(job, "job_s"), "s");
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  const size_t ops = latencies_s.empty() ? 0 : latencies_s.front().size();
  std::cerr << "samples: " << setup.at("setup_s").size() << " set-ups, "
            << job.at("job_s").size() << " jobs of " << ops << " operations; jobs";
  for (double s : job.at("job_s")) std::cerr << ' ' << s;
  std::cerr << '\n';
  if (!report.Check(PercentileSupported(ops, 90), "ten operations beyond p90")) return;
  report.Set("latency_p50_ms", RepeatedOpPercentile(latencies_s, 50) * 1e3, "ms");
  report.Set("latency_p90_ms", RepeatedOpPercentile(latencies_s, 90) * 1e3, "ms");
}

ubigraph::Result<std::vector<ubigraph::VertexId>> GiantSccSources(
    const ubigraph::CsrGraph& g, size_t k, ubigraph::Rng* rng) {
  using ubigraph::VertexId;
  const ubigraph::algo::ComponentResult scc =
      ubigraph::algo::StronglyConnectedComponents(g);
  const uint32_t giant = scc.LargestComponent();
  std::vector<VertexId> members;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (scc.label[v] == giant) members.push_back(v);
  }
  if (members.size() < k) {
    return ubigraph::Status::Invalid("giant strongly connected component too small");
  }
  std::set<VertexId> chosen;
  while (chosen.size() < k) chosen.insert(members[rng->NextBounded(members.size())]);
  return std::vector<VertexId>(chosen.begin(), chosen.end());
}

}  // namespace e2e
