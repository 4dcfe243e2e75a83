// `out-of-core`: the analytics computations on the sharded path. The
// measuring process only ever opens a segment directory (written during
// preparation by ShardedCsr::Build + WriteTo) and never builds an in-RAM
// CsrGraph, so its peak RSS is the out-of-core footprint. The cache budget
// is a third of the segment bytes, so every PageRank iteration evicts.
#include <filesystem>
#include <optional>
#include <sstream>

#include "algorithms/connected_components.h"
#include "algorithms/pagerank.h"
#include "algorithms/traversal.h"
#include "common/random.h"
#include "gen/generators.h"
#include "graph/csr_graph.h"
#include "shard/shard_kernels.h"
#include "shard/sharded_csr.h"
#include "workloads.h"

namespace e2e {
namespace {

using namespace ubigraph;

constexpr uint32_t kScale = 17;
constexpr uint32_t kEdgeFactor = 8;
constexpr uint32_t kShards = 16;
constexpr uint32_t kPageRankIterations = 10;  // fixed work: tolerance 0
constexpr size_t kQueries = 100;              // BFS queries per job
constexpr int kOpenReps = 31;                 // measured opens
constexpr int kMinJobs = 3;                   // measured jobs, after a warm-up

std::string SegmentDir(const std::string& dir) { return dir + "/segments"; }

uint64_t SegmentBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : std::filesystem::directory_iterator(SegmentDir(dir))) {
    if (e.path().extension() == ".ugsg") total += e.file_size();
  }
  return total;
}

struct Reference {
  std::vector<VertexId> sources;
  std::vector<uint64_t> bfs_digests;  // per source
  uint64_t pagerank_digest = 0;
  uint64_t components = 0;
  uint64_t labels_digest = 0;
};

Status LoadReference(const std::string& dir, Reference* ref) {
  KeyValues kv;
  UG_RETURN_NOT_OK(ReadKeyValues(dir + "/reference.txt", &kv));
  UG_RETURN_NOT_OK(GetU64(kv, "pagerank_digest", &ref->pagerank_digest));
  UG_RETURN_NOT_OK(GetU64(kv, "components", &ref->components));
  UG_RETURN_NOT_OK(GetU64(kv, "labels_digest", &ref->labels_digest));
  std::istringstream in(kv["sources"]);
  for (uint64_t v; in >> v;) ref->sources.push_back(static_cast<VertexId>(v));
  if (ref->sources.size() != kQueries) {
    return Status::Invalid("reference holds the wrong number of sources");
  }
  for (size_t q = 0; q < kQueries; ++q) {
    uint64_t d = 0;
    UG_RETURN_NOT_OK(GetU64(kv, "bfs_digest_" + std::to_string(q), &d));
    ref->bfs_digests.push_back(d);
  }
  return Status::OK();
}

struct JobOutput {
  double job_s = 0;  // library calls only; checks excluded
  std::vector<double> latencies_s;
};

}  // namespace

Status PrepareOutOfCore(uint64_t seed, const std::string& dir) {
  Rng rng(seed);
  UG_ASSIGN_OR_RETURN(EdgeList edges,
                      gen::Rmat(kScale, uint64_t{kEdgeFactor} << kScale, &rng));
  UG_ASSIGN_OR_RETURN(
      CsrGraph g, CsrGraph::FromEdges(std::move(edges), {.num_threads = kThreads}));
  UG_ASSIGN_OR_RETURN(shard::ShardedCsr sharded,
                      shard::ShardedCsr::Build(
                          g, {.num_shards = kShards,
                              .partitioner = shard::ShardPartitioner::kContiguous,
                              .encoding = shard::SegmentEncoding::kCompressed}));
  UG_RETURN_NOT_OK(sharded.WriteTo(SegmentDir(dir)));

  KeyValues kv;
  // Under kContiguous the sharded kernel contract makes ShardedPageRank
  // bitwise-equal to serial push PageRank on the original graph.
  algo::PageRankOptions pr_opts;
  pr_opts.tolerance = 0.0;
  pr_opts.max_iterations = kPageRankIterations;
  pr_opts.mode = algo::PageRankMode::kPush;
  UG_ASSIGN_OR_RETURN(algo::PageRankResult pr, algo::PageRank(g, pr_opts));
  kv["pagerank_digest"] = std::to_string(DigestOf(pr.scores));
  const algo::ComponentResult wcc = algo::WeaklyConnectedComponents(g);
  kv["components"] = std::to_string(wcc.num_components);
  kv["labels_digest"] = std::to_string(DigestOf(wcc.label));

  // Each BFS source with a digest of its exact distances.
  UG_ASSIGN_OR_RETURN(const std::vector<VertexId> sources,
                      GiantSccSources(g, kQueries, &rng));
  std::ostringstream s;
  size_t q = 0;
  for (VertexId v : sources) {
    s << v << " ";
    kv["bfs_digest_" + std::to_string(q++)] =
        std::to_string(DigestOf(algo::BfsDistances(g, v)));
  }
  kv["sources"] = s.str();
  return WriteKeyValues(dir + "/reference.txt", kv);
}

Status RunOutOfCore(const RunConfig& cfg, Tracer& tracer, Report& report) {
  Reference ref;
  UG_RETURN_NOT_OK(LoadReference(cfg.input_dir, &ref));
  const bool traced = cfg.trace;
  const uint64_t segment_bytes = SegmentBytes(cfg.input_dir);
  const shard::ShardOpenOptions open_opts{
      .storage = shard::SegmentStorage::kMapped, .budget_bytes = segment_bytes / 3};

  // ---- Set-up: open the segment directory (manifest validation, segment
  // header probes). Repeated; the last instance is kept.
  Samples setup;
  std::optional<shard::ShardedCsr> graph;
  for (int rep = 0; rep < kOpenReps; ++rep) {
    graph.reset();
    const int64_t t0 = NowNs();
    double open_s = 0;
    int setup_span = -1;
    {
      ScopedSpan span(tracer, "setup", "bench");
      setup_span = span.id();
      auto opened = Timed(tracer, "shard.open", "shard", &open_s, [&] {
        return shard::ShardedCsr::Open(SegmentDir(cfg.input_dir), open_opts);
      });
      if (!report.Check(opened.status(), "ShardedCsr::Open")) return opened.status();
      graph.emplace(std::move(opened).ValueUnsafe());
    }
    setup["setup_s"].push_back(SecondsSince(t0));
    setup["shard.open_s"].push_back(open_s);
    if (setup_span >= 0) RecordLayerSelf(tracer, setup_span, &setup);
  }
  const shard::ShardedCsr& g = *graph;

  // ---- Job: PageRank -> components -> kQueries BFS queries.
  std::vector<int> job_spans;
  Samples job;
  auto run_job = [&](uint32_t threads, size_t queries) -> Result<JobOutput> {
    JobOutput out;
    shard::ShardedPageRankOptions pr_opts;
    pr_opts.tolerance = 0.0;
    pr_opts.max_iterations = kPageRankIterations;
    pr_opts.num_threads = threads;
    shard::ShardedTraversalOptions trav_opts;
    trav_opts.num_threads = threads;
    ScopedSpan span(tracer, "job", "bench");
    if (span.id() >= 0) job_spans.push_back(span.id());
    const auto before_pr = obs::StatsSnapshot::Capture();
    auto pr = Timed(tracer, "shard.pagerank", "shard", &out.job_s, [&] {
      return shard::ShardedPageRank(g, pr_opts);
    });
    const auto after_pr = obs::StatsSnapshot::Capture();
    if (!report.Check(pr.status(), "ShardedPageRank")) return pr.status();
    if (span.id() >= 0) {
      const double acquires =
          CounterIn(after_pr, "shard.cache.hits") + CounterIn(after_pr, "shard.cache.misses") -
          CounterIn(before_pr, "shard.cache.hits") - CounterIn(before_pr, "shard.cache.misses");
      job["shard.rescan_factor"].push_back(
          SafeRatio(acquires, double(pr->iterations) * g.num_shards()));
    }
    {
      ScopedSpan check(tracer, "check.pagerank", "check");
      report.Check(DigestOf(pr->scores) == ref.pagerank_digest,
                   "ShardedPageRank bitwise-equal to serial push PageRank");
    }
    auto cc = Timed(tracer, "shard.cc", "shard", &out.job_s, [&] {
      return shard::ShardedComponents(g, trav_opts);
    });
    if (!report.Check(cc.status(), "ShardedComponents")) return cc.status();
    {
      ScopedSpan check(tracer, "check.cc", "check");
      report.Check(cc->num_components == ref.components &&
                       DigestOf(cc->label) == ref.labels_digest,
                   "ShardedComponents labels equal union-find");
    }
    for (size_t q = 0; q < queries; ++q) {
      double lat = 0;
      auto dist = Timed(tracer, "shard.bfs", "shard", &lat, [&] {
        return shard::ShardedBfs(g, ref.sources[q], trav_opts);
      }, static_cast<int64_t>(q));
      out.job_s += lat;
      out.latencies_s.push_back(lat);
      if (!report.Check(dist.status(), "ShardedBfs")) return dist.status();
      ScopedSpan check(tracer, "check.bfs", "check");
      report.Check(DigestOf(*dist) == ref.bfs_digests[q],
                   "ShardedBfs distances of source " + std::to_string(ref.sources[q]));
    }
    return out;
  };

  tracer.set_enabled(false);
  // Warm-up: maps every segment once and touches the kernels' state.
  UG_RETURN_NOT_OK(run_job(kThreads, 1).status());
  std::vector<std::vector<double>> latencies;  // per measured job
  const int64_t loop_start = NowNs();
  for (int j = 0; j < (traced ? 2 * kTracedPairs : kMinJobs) ||
                  SecondsSince(loop_start) < cfg.seconds;
       ++j) {
    const bool trace_this = traced && j % 2 == 1;
    tracer.set_enabled(trace_this);
    const auto before = obs::StatsSnapshot::Capture();
    UG_ASSIGN_OR_RETURN(JobOutput out, run_job(kThreads, kQueries));
    const auto after = obs::StatsSnapshot::Capture();
    if (traced && !trace_this) {
      job["untraced_job_s"].push_back(out.job_s);
      continue;
    }
    job["job_s"].push_back(out.job_s);
    latencies.push_back(out.latencies_s);
    if (!trace_this) continue;
    RecordTracedJob(tracer, job_spans.back(), before, after, out.job_s, &job);
    auto delta = [&](const char* name) {
      return static_cast<double>(CounterIn(after, name) - CounterIn(before, name));
    };
    job["shard.cache_hit_ratio"].push_back(
        HitRatio(delta("shard.cache.hits"), delta("shard.cache.misses")));
    job["shard.cache_evictions"].push_back(delta("shard.cache.evictions"));
    job["shard.bytes_read"].push_back(delta("shard.cache.bytes_loaded"));
  }
  tracer.set_enabled(false);

  if (!traced) {
    ReportEndToEnd(setup, job, latencies, report);
    return Status::OK();
  }

  report.Set("shard.open_s", MedianOf(setup, "shard.open_s"), "s");
  for (const char* name : {"shard.pagerank_s", "shard.bfs_s", "shard.cc_s"}) {
    report.Set(name, MedianOf(job, name), "s");
  }
  report.Set("shard.cache_hit_ratio", MedianOf(job, "shard.cache_hit_ratio"), "ratio");
  report.Set("shard.cache_evictions", MedianOf(job, "shard.cache_evictions"), "count");
  report.Set("shard.bytes_read", MedianOf(job, "shard.bytes_read"), "B");
  report.Set("shard.rescan_factor", MedianOf(job, "shard.rescan_factor"), "ratio");
  report.Set("shard.peak_segment_mb", g.cache().peak_segment_bytes() / double(1 << 20),
             "MB");
  ReportTracedJobs(setup, job, report);

  tracer.set_enabled(true);
  UG_RETURN_NOT_OK(run_job(1, kQueries).status());
  tracer.set_enabled(false);
  report.Set("shard.pagerank_speedup_4t",
             Speedup(tracer.NameNs(job_spans.back()).at("shard.pagerank") / 1e9,
                     MedianOf(job, "shard.pagerank_s")),
             "ratio");
  return Status::OK();
}

}  // namespace e2e
