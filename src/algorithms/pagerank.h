// PageRank (Table 9: "Ranking & Centrality Scores") by power iteration, with
// dangling-vertex handling, convergence reporting, and personalization.
#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/csr_graph.h"

namespace ubigraph {
class CompressedCsrGraph;
}

namespace ubigraph::algo {

/// How one power-iteration sweep traverses edges.
enum class PageRankMode : uint8_t {
  /// Pull when the in-edge index is available, push otherwise.
  kAuto,
  /// Gather over InNeighbors: no atomics, contiguous writes to next[].
  /// Requires in-edges on directed graphs.
  kPull,
  /// Scatter over OutNeighbors. Needs no in-edge index; the parallel path
  /// accumulates into per-worker arrays merged in fixed order, so it stays
  /// deterministic at a fixed thread count.
  kPush,
  /// Pull-based sweeps over a Frontier of still-active vertices: a vertex is
  /// re-gathered only while an in-neighbor's score is still moving (or the
  /// global dangling mass drifts), which skips converged regions entirely.
  /// Requires in-edges on directed graphs. Converges to the same fixpoint
  /// within `tolerance`; intermediate iterates may differ from kPull.
  kDelta,
};

struct PageRankOptions {
  double damping = 0.85;
  /// L1 convergence threshold.
  double tolerance = 1e-9;
  uint32_t max_iterations = 100;
  /// Optional personalization vector (teleport distribution). Empty = uniform.
  /// Must sum to ~1 and have size == num_vertices when provided.
  std::vector<double> personalization;
  /// Optional warm start: when non-empty (size must be num_vertices) the
  /// power iteration begins from these scores instead of the teleport vector.
  /// The incremental engine (src/stream/incremental_pagerank.h) seeds this
  /// with the previous fixpoint so post-update convergence takes a handful of
  /// sweeps instead of a cold run.
  std::vector<double> warm_start;
  /// 0 = hardware_concurrency, 1 = exact serial path (default), >= 2 = that
  /// many workers. Every mode's parallel path uses deterministic reductions
  /// (chunked trees; fixed-order per-worker merges for push), so scores are
  /// bitwise-reproducible at any fixed thread count (and within `tolerance`
  /// of the serial path).
  uint32_t num_threads = 1;
  PageRankMode mode = PageRankMode::kAuto;
};

struct PageRankResult {
  std::vector<double> scores;  // sums to 1
  uint32_t iterations = 0;
  double final_delta = 0.0;    // L1 change in last iteration
  bool converged = false;
  /// The mode actually run (resolves kAuto).
  PageRankMode mode = PageRankMode::kPull;
};

/// Runs power iteration in the selected mode. kPull/kDelta require in-edges
/// for directed graphs and fail with InvalidArgument otherwise; kPush always
/// works; kAuto picks pull when it can.
Result<PageRankResult> PageRank(const CsrGraph& g, PageRankOptions options = {});

/// Same kernel on the varint/delta-gap compressed backend (the two overloads
/// share one implementation through the NeighborRangeGraph seam, so scores
/// are bitwise-identical to the plain-CSR run at the same mode and threads).
Result<PageRankResult> PageRank(const CompressedCsrGraph& g,
                                PageRankOptions options = {});

/// Indices of the k highest-scoring vertices, descending (ties by vertex id).
std::vector<VertexId> TopK(const std::vector<double>& scores, size_t k);

/// HITS (Kleinberg): hub and authority scores by alternating power iteration,
/// L2-normalized each round. The other classic "ranking & centrality"
/// computation of Table 9's web-graph papers. Requires in-edges.
struct HitsResult {
  std::vector<double> hub;
  std::vector<double> authority;
  uint32_t iterations = 0;
  bool converged = false;
};
Result<HitsResult> Hits(const CsrGraph& g, uint32_t max_iterations = 100,
                        double tolerance = 1e-10);

}  // namespace ubigraph::algo
