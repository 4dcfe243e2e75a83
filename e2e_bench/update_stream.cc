// `update-stream`: one writer keeps warm analytics fresh while the graph
// changes. Each batch mutates a DynamicGraph with its delta log on, drains
// the log, applies it to the incremental PageRank, components and k-core
// engines, and reads back the top ranks, the component count and the
// degeneracy before the next batch starts (a closed loop with one client).
#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>

#include "algorithms/connected_components.h"
#include "algorithms/kcore.h"
#include "algorithms/pagerank.h"
#include "common/random.h"
#include "gen/generators.h"
#include "graph/csr_graph.h"
#include "graph/dynamic_graph.h"
#include "io/edge_list_io.h"
#include "stream/incremental_components.h"
#include "stream/incremental_kcore.h"
#include "stream/incremental_pagerank.h"
#include "workloads.h"

namespace e2e {
namespace {

using namespace ubigraph;

constexpr uint32_t kScale = 12;
constexpr uint32_t kEdgeFactor = 8;
constexpr size_t kBatches = 300;
constexpr size_t kBatchSize = 64;
constexpr VertexId kWindow = 4096;  // updates touch ids [0, kWindow)
constexpr int kMinCycles = 5;       // measured set-up + job cycles
// The engines run on the client's thread. A batch is a few milliseconds of
// work; at 4 threads every batch started three short-lived pools
// (pool.busy_frac ~0.07), so the job timed thread start-up and barrier
// wake-ups, and the same seed varied by +-12% between runs (+-4% at 1).
constexpr uint32_t kEngineThreads = 1;
// The engine's documented bound against a cold pull run is 1e-10 per vertex
// when both converge to the same tolerance.
constexpr double kTolerance = 1e-12;
constexpr uint32_t kMaxSweeps = 500;
constexpr double kScoreSlack = 1e-10;

struct Op {
  bool insert = true;
  VertexId src = 0, dst = 0;
};
using Batch = std::vector<Op>;

/// Seeded mixed insert/delete stream over simple undirected pairs stored
/// as one arc (smaller id first), so the same stream is valid for every
/// engine: inserts pick an absent pair inside the window, deletes a live one.
class StreamGen {
 public:
  using Pair = std::pair<VertexId, VertexId>;

  StreamGen(const EdgeList& base, uint64_t seed) : rng_(seed) {
    for (const Edge& e : base.edges()) {
      if (e.src == e.dst) continue;
      const Pair p = std::minmax(e.src, e.dst);
      if (live_set_.insert(p).second) live_.push_back(p);
    }
  }
  EdgeList Live(VertexId n) const {
    EdgeList el(n);
    for (const auto& [a, b] : live_) el.Add(a, b);
    return el;
  }
  Batch Next(VertexId n) {
    Batch batch;
    const VertexId range = std::min(kWindow, n);
    while (batch.size() < kBatchSize) {
      if (live_.empty() || rng_.NextBool(0.5)) {
        const auto u = static_cast<VertexId>(rng_.NextBounded(range));
        const auto v = static_cast<VertexId>(rng_.NextBounded(range));
        const Pair p = std::minmax(u, v);
        if (p.first == p.second || !live_set_.insert(p).second) continue;
        live_.push_back(p);
        batch.push_back({true, p.first, p.second});
      } else {
        const size_t i = rng_.NextBounded(live_.size());
        const Pair p = live_[i];
        live_[i] = live_.back();
        live_.pop_back();
        live_set_.erase(p);
        batch.push_back({false, p.first, p.second});
      }
    }
    return batch;
  }
  size_t live_count() const { return live_.size(); }

 private:
  Rng rng_;
  std::set<Pair> live_set_;
  std::vector<Pair> live_;
};

Status ReadBatches(const std::string& path, std::vector<Batch>* batches) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot read " + path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream s(line);
    Batch batch;
    char kind;
    uint64_t a, b;
    while (s >> kind >> a >> b) {
      batch.push_back({kind == '+', static_cast<VertexId>(a), static_cast<VertexId>(b)});
    }
    if (batch.size() != kBatchSize) return Status::Corruption("bad batch in " + path);
    batches->push_back(std::move(batch));
  }
  if (batches->size() != kBatches) return Status::Corruption("batch count in " + path);
  return Status::OK();
}

/// The live graph and the three warm engines one cycle works on.
struct Engines {
  DynamicGraph graph;
  std::optional<stream::IncrementalPageRank> pagerank;
  std::optional<stream::IncrementalComponents> components;
  std::optional<stream::IncrementalKCore> kcore;
};

}  // namespace

Status PrepareUpdateStream(uint64_t seed, const std::string& dir) {
  Rng rng(seed);
  UG_ASSIGN_OR_RETURN(EdgeList raw,
                      gen::Rmat(kScale, uint64_t{kEdgeFactor} << kScale, &rng));
  StreamGen gen(raw, rng.Next());
  const VertexId n = raw.num_vertices();
  UG_RETURN_NOT_OK(io::WriteEdgeListFile(gen.Live(n), dir + "/base.el"));
  std::ofstream out(dir + "/batches.txt");
  for (size_t b = 0; b < kBatches; ++b) {
    for (const Op& op : gen.Next(n)) {
      out << (op.insert ? '+' : '-') << ' ' << op.src << ' ' << op.dst << ' ';
    }
    out << '\n';
  }
  out.flush();
  if (!out) return Status::IOError("cannot write batches");
  return WriteKeyValues(dir + "/reference.txt",
                        {{"vertices", std::to_string(n)},
                         {"final_edges", std::to_string(gen.live_count())}});
}

Status RunUpdateStream(const RunConfig& cfg, Tracer& tracer, Report& report) {
  KeyValues kv;
  UG_RETURN_NOT_OK(ReadKeyValues(cfg.input_dir + "/reference.txt", &kv));
  uint64_t n64 = 0, final_edges = 0;
  UG_RETURN_NOT_OK(GetU64(kv, "vertices", &n64));
  UG_RETURN_NOT_OK(GetU64(kv, "final_edges", &final_edges));
  const auto n = static_cast<VertexId>(n64);
  auto base_or = io::ReadEdgeListFile(cfg.input_dir + "/base.el");
  if (!report.Check(base_or.status(), "io::ReadEdgeListFile")) return base_or.status();
  EdgeList base = std::move(base_or).ValueUnsafe();
  base.EnsureVertices(n);
  std::vector<Batch> batches;
  UG_RETURN_NOT_OK(ReadBatches(cfg.input_dir + "/batches.txt", &batches));
  const bool traced = cfg.trace;

  // ---- Set-up: the live graph plus the three engines on the base edges.
  Samples setup, job;
  int setup_span = -1;
  auto set_up = [&](Engines* e) -> Status {
    const int64_t t0 = NowNs();
    double graph_s = 0, pr_s = 0, cc_s = 0, kcore_s = 0;
    ScopedSpan span(tracer, "setup", "bench");
    setup_span = span.id();
    Status st = Timed(tracer, "graph.dynamic_build", "graph", &graph_s, [&] {
      e->graph = DynamicGraph(n, /*allow_multi_edges=*/false);
      for (const Edge& ed : base.edges()) {
        UG_RETURN_NOT_OK(e->graph.AddEdge(ed.src, ed.dst).status());
      }
      e->graph.EnableDeltaLog();
      return Status::OK();
    });
    if (!report.Check(st, "DynamicGraph::AddEdge (base)")) return st;
    auto pr = Timed(tracer, "stream.pagerank_create", "stream", &pr_s, [&] {
      return stream::IncrementalPageRank::Create(
          base,
          {.tolerance = kTolerance, .max_sweeps = kMaxSweeps, .num_threads = kEngineThreads});
    });
    if (!report.Check(pr.status(), "IncrementalPageRank::Create")) return pr.status();
    e->pagerank.emplace(std::move(pr).ValueUnsafe());
    auto cc = Timed(tracer, "stream.components_create", "stream", &cc_s, [&] {
      return stream::IncrementalComponents::Create(base, {.num_threads = kEngineThreads});
    });
    if (!report.Check(cc.status(), "IncrementalComponents::Create")) return cc.status();
    e->components.emplace(std::move(cc).ValueUnsafe());
    st = Timed(tracer, "stream.kcore_bootstrap", "stream", &kcore_s, [&] {
      e->kcore.emplace(n, stream::IncrementalKCore::Options{.num_threads = kEngineThreads});
      for (const Edge& ed : base.edges()) {
        UG_RETURN_NOT_OK(e->kcore->InsertEdge(ed.src, ed.dst));
      }
      return Status::OK();
    });
    if (!report.Check(st, "IncrementalKCore::InsertEdge (base)")) return st;
    setup["setup_s"].push_back(SecondsSince(t0));
    setup["stream.pagerank_create_s"].push_back(pr_s);
    setup["stream.components_create_s"].push_back(cc_s);
    setup["stream.kcore_bootstrap_s"].push_back(kcore_s);
    return Status::OK();
  };

  // ---- Job: every batch, write -> drain -> apply x3 -> read back.
  std::vector<int> job_spans;
  std::vector<std::vector<double>> latencies;  // per measured cycle
  auto run_job = [&](Engines* e, double* job_s, std::vector<double>* lat) -> Status {
    ScopedSpan span(tracer, "job", "bench");
    if (span.id() >= 0) job_spans.push_back(span.id());
    double rerelaxed = 0, rebuilds = 0, repairs = 0;
    for (size_t b = 0; b < batches.size(); ++b) {
      double batch_s = 0;
      ScopedSpan batch_span(tracer, "batch", "bench", static_cast<int64_t>(b));
      auto deltas = Timed(tracer, "graph.dynamic_apply", "graph", &batch_s, [&] {
        Status st;
        for (const Op& op : batches[b]) {
          st = op.insert ? e->graph.AddEdge(op.src, op.dst).status()
                         : e->graph.RemoveEdgeBetween(op.src, op.dst);
          if (!st.ok()) break;
        }
        return std::make_pair(st, e->graph.TakeDeltas());
      });
      if (!report.Check(deltas.first, "DynamicGraph mutation")) return deltas.first;
      const std::vector<GraphDelta>& d = deltas.second;
      auto pr = Timed(tracer, "stream.pagerank_apply", "stream", &batch_s,
                      [&] { return e->pagerank->ApplyBatch(d); });
      if (!report.Check(pr.status(), "IncrementalPageRank::ApplyBatch")) return pr.status();
      auto cc = Timed(tracer, "stream.components_apply", "stream", &batch_s,
                      [&] { return e->components->ApplyBatch(d); });
      if (!report.Check(cc.status(), "IncrementalComponents::ApplyBatch")) return cc.status();
      auto kc = Timed(tracer, "stream.kcore_apply", "stream", &batch_s,
                      [&] { return e->kcore->ApplyBatch(d); });
      if (!report.Check(kc.status(), "IncrementalKCore::ApplyBatch")) return kc.status();
      const auto answer = Timed(tracer, "stream.read_back", "stream", &batch_s, [&] {
        return std::make_tuple(algo::TopK(e->pagerank->scores(), 10),
                               e->components->num_components(), e->kcore->Degeneracy());
      });
      report.Check(pr->converged && std::get<0>(answer).size() == 10,
                   "batch " + std::to_string(b) + " converged with a top-10");
      *job_s += batch_s;
      lat->push_back(batch_s);
      rerelaxed += pr->edges_rerelaxed;
      rebuilds += cc->rebuilds;
      repairs += kc->deletion_repairs;
    }
    if (span.id() >= 0) {
      job["stream.pagerank_edges_rerelaxed"].push_back(rerelaxed);
      job["stream.components_rebuilds"].push_back(rebuilds);
      job["stream.kcore_deletion_repairs"].push_back(repairs);
    }
    return Status::OK();
  };

  // Checks after the last batch of a cycle, against cold recomputes on the
  // live edges (outside every timed region).
  auto check = [&](const Engines& e) {
    const EdgeList live = e.graph.ToEdgeList();
    report.Check(live.num_edges() == final_edges, "live edge count after the stream");
    auto directed = CsrGraph::FromEdges(live, {.build_in_edges = true});
    algo::PageRankOptions cold_opts;
    cold_opts.tolerance = kTolerance;
    cold_opts.max_iterations = kMaxSweeps;
    cold_opts.mode = algo::PageRankMode::kPull;
    auto cold = directed.ok() ? algo::PageRank(*directed, cold_opts)
                              : Result<algo::PageRankResult>(directed.status());
    if (report.Check(cold.status(), "cold kPull PageRank")) {
      double worst = 0;
      const auto& warm = e.pagerank->scores();
      for (VertexId v = 0; v < n; ++v) worst = std::max(worst, std::abs(warm[v] - cold->scores[v]));
      report.Check(cold->converged && worst <= kScoreSlack,
                   "warm PageRank within 1e-10 of cold pull (max gap " + std::to_string(worst) + ")");
      report.Check(e.components->Labels() == algo::WeaklyConnectedComponents(*directed).label,
                   "incremental CC labels equal a fresh CC run");
    }
    auto undirected = CsrGraph::FromEdges(live, {.directed = false});
    if (report.Check(undirected.status(), "undirected CSR of live edges")) {
      report.Check(e.kcore->core_numbers() == algo::CoreDecomposition(*undirected),
                   "incremental core numbers equal CoreDecomposition");
    }
  };

  // Every cycle sets up fresh engines and streams all batches through them.
  // Traced runs alternate untraced and traced cycles, for the overhead.
  const int64_t loop_start = NowNs();
  for (int c = 0; c < (traced ? 2 * kTracedPairs : kMinCycles) ||
                  SecondsSince(loop_start) < cfg.seconds;
       ++c) {
    const bool trace_this = traced && c % 2 == 1;
    tracer.set_enabled(trace_this);
    Engines e;
    UG_RETURN_NOT_OK(set_up(&e));
    if (trace_this) RecordLayerSelf(tracer, setup_span, &setup);
    double job_s = 0;
    std::vector<double> lat;
    const auto before = obs::StatsSnapshot::Capture();
    UG_RETURN_NOT_OK(run_job(&e, &job_s, &lat));
    const auto after = obs::StatsSnapshot::Capture();
    tracer.set_enabled(false);
    check(e);
    if (traced && !trace_this) {
      job["untraced_job_s"].push_back(job_s);
      continue;
    }
    job["job_s"].push_back(job_s);
    latencies.push_back(std::move(lat));
    if (trace_this) RecordTracedJob(tracer, job_spans.back(), before, after, job_s, &job);
  }

  if (!traced) {
    ReportEndToEnd(setup, job, latencies, report);
    return Status::OK();
  }
  for (const char* name : {"stream.kcore_bootstrap_s", "stream.pagerank_create_s",
                           "stream.components_create_s"}) {
    report.Set(name, MedianOf(setup, name), "s");
  }
  for (const char* name : {"graph.dynamic_apply_s", "stream.pagerank_apply_s",
                           "stream.components_apply_s", "stream.kcore_apply_s"}) {
    report.Set(name, MedianOf(job, name), "s");
  }
  for (const char* name : {"stream.pagerank_edges_rerelaxed", "stream.components_rebuilds",
                           "stream.kcore_deletion_repairs"}) {
    report.Set(name, MedianOf(job, name), "count");
  }
  ReportTracedJobs(setup, job, report);
  return Status::OK();
}

}  // namespace e2e
