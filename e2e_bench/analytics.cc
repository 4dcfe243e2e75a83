// `analytics`: the survey's typical batch job on a graph that fits in RAM.
// Set-up parses a text edge list, builds the CSR (with in-edges) and
// reorders it; the job runs PageRank, label-propagation components and a
// burst of direction-optimizing BFS queries, one after another (a closed
// loop with one client).
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <optional>
#include <sstream>

#include "algorithms/connected_components.h"
#include "algorithms/pagerank.h"
#include "algorithms/traversal.h"
#include "common/random.h"
#include "gen/generators.h"
#include "graph/csr_graph.h"
#include "graph/ordering.h"
#include "io/edge_list_io.h"
#include "workloads.h"

namespace e2e {
namespace {

using namespace ubigraph;

constexpr uint32_t kScale = 20;  // 2^20 vertices, 2^23 arcs
constexpr uint32_t kEdgeFactor = 8;
constexpr size_t kQueries = 100;  // BFS queries per job
constexpr int kSetupReps = 3;         // measured set-ups, after one warm-up
constexpr int kMinJobsPerCycle = 2;   // jobs after each measured set-up
constexpr double kPageRankTolerance = 1e-9;

struct Reference {
  std::vector<VertexId> sources;  // original ids, all in the giant SCC
  uint64_t reach = 0;             // vertices every source reaches
};

Status LoadReference(const std::string& dir, Reference* ref) {
  KeyValues kv;
  UG_RETURN_NOT_OK(ReadKeyValues(dir + "/reference.txt", &kv));
  UG_RETURN_NOT_OK(GetU64(kv, "reach", &ref->reach));
  std::istringstream in(kv["sources"]);
  for (uint64_t v; in >> v;) ref->sources.push_back(static_cast<VertexId>(v));
  if (ref->sources.size() != kQueries) {
    return Status::Invalid("reference holds the wrong number of sources");
  }
  return Status::OK();
}

uint64_t CountReached(const std::vector<uint32_t>& dist) {
  return static_cast<uint64_t>(std::count_if(
      dist.begin(), dist.end(), [](uint32_t d) { return d != algo::kUnreachable; }));
}

/// Everything one job produced that the checks need.
struct JobOutput {
  double job_s = 0;  // library calls only; checks excluded
  std::vector<double> latencies_s;
  std::optional<algo::PageRankResult> pagerank;
  uint32_t components = 0;
  std::vector<uint32_t> first_distances;
};

}  // namespace

Status PrepareAnalytics(uint64_t seed, const std::string& dir) {
  Rng rng(seed);
  UG_ASSIGN_OR_RETURN(EdgeList edges,
                      gen::Rmat(kScale, uint64_t{kEdgeFactor} << kScale, &rng));
  UG_RETURN_NOT_OK(io::WriteEdgeListFile(edges, dir + "/graph.el"));
  UG_ASSIGN_OR_RETURN(
      CsrGraph g, CsrGraph::FromEdges(std::move(edges), {.num_threads = kThreads}));

  UG_ASSIGN_OR_RETURN(const std::vector<VertexId> sources,
                      GiantSccSources(g, kQueries, &rng));
  KeyValues kv;
  std::ostringstream s;
  for (VertexId v : sources) s << v << " ";
  kv["sources"] = s.str();
  kv["reach"] = std::to_string(CountReached(algo::BfsDistances(g, sources[0])));
  return WriteKeyValues(dir + "/reference.txt", kv);
}

Status RunAnalytics(const RunConfig& cfg, Tracer& tracer, Report& report) {
  Reference ref;
  UG_RETURN_NOT_OK(LoadReference(cfg.input_dir, &ref));
  const std::string path = cfg.input_dir + "/graph.el";
  const bool traced = cfg.trace;

  // ---- Set-up: parse -> CSR (+in-edges) -> hub-cluster order -> permute.
  Samples setup;  // per measured set-up
  std::optional<PermutedCsr> graph;
  std::vector<VertexId> sources;  // ref.sources in the permuted ids
  auto set_up = [&](bool measured) -> Status {
    graph.reset();  // one graph resident at a time
    double parse_s = 0, build_s = 0, reorder_s = 0, permute_s = 0;
    double parse_peak = 0, build_peak = 0;
    const int64_t t0 = NowNs();
    int setup_span = -1;
    {
      ScopedSpan span(tracer, "setup", "bench");
      setup_span = span.id();
      if (traced) ResetStagePeak();
      auto edges = Timed(tracer, "io.parse", "io", &parse_s,
                         [&] { return io::ReadEdgeListFile(path); });
      if (!report.Check(edges.status(), "io::ReadEdgeListFile")) return edges.status();
      if (traced) parse_peak = StagePeakRssMb();
      if (traced) ResetStagePeak();
      auto csr = Timed(tracer, "graph.csr_build", "graph", &build_s, [&] {
        return CsrGraph::FromEdges(std::move(edges).ValueUnsafe(),
                                   {.build_in_edges = true, .num_threads = kThreads});
      });
      if (!report.Check(csr.status(), "CsrGraph::FromEdges")) return csr.status();
      if (traced) build_peak = StagePeakRssMb();
      auto perm = Timed(tracer, "graph.reorder", "graph", &reorder_s, [&] {
        return MakeOrdering(*csr, OrderingKind::kHubCluster);
      });
      auto permuted = Timed(tracer, "graph.permute", "graph", &permute_s, [&] {
        return csr->Permute(perm, {.num_threads = kThreads});
      });
      if (!report.Check(permuted.status(), "CsrGraph::Permute")) return permuted.status();
      graph.emplace(std::move(permuted).ValueUnsafe());
      sources.clear();
      for (VertexId v : ref.sources) sources.push_back(perm[v]);
    }
    if (!measured) return Status::OK();
    setup["setup_s"].push_back(SecondsSince(t0));
    if (setup_span >= 0) RecordLayerSelf(tracer, setup_span, &setup);
    setup["io.parse_s"].push_back(parse_s);
    setup["graph.csr_build_s"].push_back(build_s);
    setup["graph.reorder_s"].push_back(reorder_s);
    setup["graph.permute_s"].push_back(permute_s);
    setup["io.parse_peak_rss_mb"].push_back(parse_peak);
    setup["graph.csr_build_peak_rss_mb"].push_back(build_peak);
    return Status::OK();
  };

  // ---- Job: PageRank -> components -> kQueries BFS queries.
  std::vector<int> job_spans;  // traced jobs only
  auto run_job = [&](uint32_t threads, bool keep_first) -> Result<JobOutput> {
    const CsrGraph& g = graph->graph;
    JobOutput out;
    algo::PageRankOptions pr_opts;
    pr_opts.tolerance = kPageRankTolerance;
    pr_opts.num_threads = threads;
    ScopedSpan job(tracer, "job", "bench");
    if (job.id() >= 0) job_spans.push_back(job.id());
    auto pr = Timed(tracer, "algo.pagerank", "algorithms", &out.job_s, [&] {
      return algo::PageRank(g, pr_opts);
    });
    if (!report.Check(pr.status(), "algo::PageRank")) return pr.status();
    out.pagerank = std::move(pr).ValueUnsafe();
    auto cc = Timed(tracer, "algo.cc", "algorithms", &out.job_s, [&] {
      return algo::ConnectedComponentsLabelProp(g, {.num_threads = threads});
    });
    if (!report.Check(cc.status(), "algo::ConnectedComponentsLabelProp")) return cc.status();
    out.components = cc->num_components;
    for (size_t q = 0; q < sources.size(); ++q) {
      double lat = 0;
      auto dist = Timed(tracer, "algo.bfs", "algorithms", &lat, [&] {
        return algo::HybridBfs(g, sources[q], {.num_threads = threads});
      }, static_cast<int64_t>(q));
      out.job_s += lat;
      out.latencies_s.push_back(lat);
      if (!report.Check(dist.status(), "algo::HybridBfs")) return dist.status();
      ScopedSpan check(tracer, "check.reach", "check");
      report.Check(CountReached(*dist) == ref.reach,
                   "BFS reach of source " + std::to_string(ref.sources[q]));
      if (keep_first && q == 0) out.first_distances = std::move(dist).ValueUnsafe();
    }
    return out;
  };

  // One warm-up set-up and job (first-touch memory), then kSetupReps cycles
  // of a measured set-up followed by jobs for an equal share of the run, so
  // job samples spread over the whole run rather than one stretch of it.
  // Traced runs alternate untraced and traced jobs, for the tracing overhead.
  tracer.set_enabled(false);
  UG_RETURN_NOT_OK(set_up(false));
  UG_ASSIGN_OR_RETURN(JobOutput last, run_job(kThreads, true));
  const std::vector<uint32_t> first_distances = std::move(last.first_distances);
  Samples job;
  std::vector<std::vector<double>> latencies;  // per measured job
  for (int cycle = 0; cycle < kSetupReps; ++cycle) {
    tracer.set_enabled(traced);
    UG_RETURN_NOT_OK(set_up(true));
    const int64_t cycle_start = NowNs();
    for (int j = 0; j < kMinJobsPerCycle ||
                    SecondsSince(cycle_start) < cfg.seconds / kSetupReps;
         ++j) {
      const bool trace_this = traced && j % 2 == 1;
      tracer.set_enabled(trace_this);
      const auto before = obs::StatsSnapshot::Capture();
      UG_ASSIGN_OR_RETURN(last, run_job(kThreads, false));
      const auto after = obs::StatsSnapshot::Capture();
      if (traced && !trace_this) {
        job["untraced_job_s"].push_back(last.job_s);
        continue;
      }
      job["job_s"].push_back(last.job_s);
      latencies.push_back(last.latencies_s);
      if (!trace_this) continue;
      RecordTracedJob(tracer, job_spans.back(), before, after, last.job_s, &job);
      auto delta = [&](const char* name) {
        return static_cast<double>(CounterIn(after, name) - CounterIn(before, name));
      };
      job["algo.pagerank_iterations"].push_back(delta("pagerank.iterations"));
      job["algo.pagerank_edges_per_s"].push_back(
          SafeRatio(delta("pagerank.edges_relaxed"), job["algo.pagerank_s"].back()));
      job["algo.cc_rounds"].push_back(delta("cc.labelprop.rounds"));
      job["algo.bfs_edges_examined"].push_back(delta("bfs.hybrid.edges_scanned"));
      job["algo.bfs_pull_rounds"].push_back(delta("bfs.hybrid.pull_rounds"));
    }
  }
  tracer.set_enabled(false);
  const CsrGraph& g = graph->graph;

  // ---- Checks (outside every timed region).
  const algo::PageRankResult& pr = *last.pagerank;
  report.Check(pr.converged, "PageRank converged");
  const double sum = std::accumulate(pr.scores.begin(), pr.scores.end(), 0.0);
  report.Check(std::abs(sum - 1.0) <= 1e-9, "PageRank scores sum to 1");
  report.Check(last.components == algo::WeaklyConnectedComponents(g).num_components,
               "label-propagation CC count equals union-find");
  report.Check(first_distances == algo::BfsDistances(g, sources[0]),
               "HybridBfs distances equal serial BfsDistances");

  if (!traced) {
    ReportEndToEnd(setup, job, latencies, report);
    return Status::OK();
  }

  for (const char* name : {"io.parse_s", "graph.csr_build_s", "graph.reorder_s",
                           "graph.permute_s"}) {
    report.Set(name, MedianOf(setup, name), "s");
  }
  for (const char* name : {"io.parse_peak_rss_mb", "graph.csr_build_peak_rss_mb"}) {
    report.Set(name, MedianOf(setup, name), "MB");
  }
  const double file_mb = std::filesystem::file_size(path) / double(1 << 20);
  report.Set("io.parse_mb_per_s", SafeRatio(file_mb, MedianOf(setup, "io.parse_s")),
             "MB/s");
  for (const char* name : {"algo.pagerank_s", "algo.cc_s", "algo.bfs_s"}) {
    report.Set(name, MedianOf(job, name), "s");
  }
  for (const char* name : {"algo.pagerank_iterations", "algo.cc_rounds",
                           "algo.bfs_edges_examined", "algo.bfs_pull_rounds"}) {
    report.Set(name, MedianOf(job, name), "count");
  }
  report.Set("algo.pagerank_edges_per_s", MedianOf(job, "algo.pagerank_edges_per_s"), "1/s");
  ReportTracedJobs(setup, job, report);

  // Thread scaling: the job once more at one worker, traced.
  tracer.set_enabled(true);
  UG_RETURN_NOT_OK(run_job(1, false).status());
  tracer.set_enabled(false);
  const auto one = tracer.NameNs(job_spans.back());
  report.Set("algo.pagerank_speedup_4t",
             Speedup(one.at("algo.pagerank") / 1e9, MedianOf(job, "algo.pagerank_s")),
             "ratio");
  report.Set("algo.bfs_speedup_4t",
             Speedup(one.at("algo.bfs") / 1e9, MedianOf(job, "algo.bfs_s")), "ratio");
  return Status::OK();
}

}  // namespace e2e
