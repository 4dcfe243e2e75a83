// The benchmark's three workloads. Each has a Prepare step (seeded, run in
// its own process, untimed) that writes its inputs and reference answers
// into a directory, and a Run step that measures set-up and the job through
// the library's public API, checks the outputs and fills a Report.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"
#include "common/random.h"
#include "graph/csr_graph.h"

namespace e2e {

ubigraph::Status PrepareAnalytics(uint64_t seed, const std::string& dir);
ubigraph::Status RunAnalytics(const RunConfig& cfg, Tracer& tracer,
                              Report& report);

ubigraph::Status PrepareOutOfCore(uint64_t seed, const std::string& dir);
ubigraph::Status RunOutOfCore(const RunConfig& cfg, Tracer& tracer,
                              Report& report);

ubigraph::Status PrepareUpdateStream(uint64_t seed, const std::string& dir);
ubigraph::Status RunUpdateStream(const RunConfig& cfg, Tracer& tracer,
                                 Report& report);

/// Adds each layer's self time within span `root` to *samples as
/// "<layer>.self_s".
void RecordLayerSelf(const Tracer& tracer, int root, Samples* samples);

/// Adds one traced job's per-layer samples to *job: the summed seconds of
/// its spans by name ("<span name>_s"), each layer's self time, the pool's
/// busy share and task count from the counter deltas, and the share of the
/// job its layer spans cover. `job_s` is the job's library time (checks
/// excluded).
void RecordTracedJob(const Tracer& tracer, int job_span,
                     const ubigraph::obs::StatsSnapshot& before,
                     const ubigraph::obs::StatsSnapshot& after, double job_s,
                     Samples* job);

/// Sets the medians RecordTracedJob sampled, each layer's self time per
/// set-up plus per job, and the tracing overhead, and checks that layer
/// spans covered at least 90% of every traced job.
void ReportTracedJobs(const Samples& setup, const Samples& job, Report& report);

/// Sets the end-to-end metrics: the medians of setup["setup_s"] and
/// job["job_s"], the latency percentiles and the process's peak RSS.
/// latencies_s[j][i] is operation i's latency in measured job j; every job
/// runs the same operations. The percentiles are taken over the operations'
/// median latencies (RepeatedOpPercentile) and need at least 100 operations,
/// so that p90 has ten beyond it; the run fails otherwise.
void ReportEndToEnd(const Samples& setup, const Samples& job,
                    const std::vector<std::vector<double>>& latencies_s,
                    Report& report);

/// `k` distinct vertices of the largest strongly connected component of
/// `g`, drawn with `rng`, in ascending order. Every one reaches the same
/// vertex set (the component's out-closure), so BFS queries from them are
/// alike instead of bimodal, as uniform sources on RMAT graphs are.
ubigraph::Result<std::vector<ubigraph::VertexId>> GiantSccSources(
    const ubigraph::CsrGraph& g, size_t k, ubigraph::Rng* rng);

}  // namespace e2e
