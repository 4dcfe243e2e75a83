// Shard-at-a-time kernels over a ShardedCsr: PageRank, BFS, and weakly
// connected components that stream segments through the cache instead of
// holding an in-RAM adjacency. All results are reported in ORIGINAL vertex
// ids (translated through the manifest's new_to_old map), so callers compare
// them 1:1 with the src/algorithms kernels.
//
// One schedule, destination-owned dense combine: workers own contiguous
// ascending blocks of DESTINATION shards; each worker scans every (active)
// segment in ascending order and folds the messages aimed at its own
// destinations directly into the dense per-vertex state (next-rank,
// distance + frontier flags, next-label), combining at the destination with
// no message buffering at all. Each destination is owned by exactly one
// worker and sources are visited in globally ascending order, so every
// accumulator sees its contributions in the SERIAL in-RAM push kernel's
// float association — at any thread count and any shard count. Results are
// therefore bitwise-identical across every {threads} x {shards} x
// {encoding} combination. Dangling mass and the L1 delta are straight serial
// O(V) loops for the same reason. Consequences, enforced by
// tests/sharded_test.cc:
//
//   * PageRank under ShardPartitioner::kContiguous (identity relabel) is
//     bitwise-identical to serial push-mode algo::PageRank on the original
//     graph for every threads/shards/encoding combination.
//   * Under kLdg/kBfsGrow the permutation itself depends on the shard count,
//     so the per-configuration anchor is serial push PageRank on the
//     relabeled graph (g.Permute of the same permutation) — still exact.
//   * BFS distances and component labels are unique graph invariants:
//     bitwise-equal to the in-RAM kernels under every partitioner.
//
// Known cost: with W workers every active segment is scanned W times per
// iteration or level (each worker keeps only the arcs aimed at its own
// destinations), and under a small cache budget the W interleaved ascending
// sweeps thrash the LRU. A destination-blocked segment layout, in which each
// worker reads only the sub-segments aimed at its destinations, would remove
// the re-scan (the out-of-core traversal item of ROADMAP.md).
//
// RAM budget: O(V) vertex state; segment bytes bounded by the cache budget;
// zero message bytes. This is what makes the execution fully out-of-core
// rather than semi-external.
#pragma once

#include <cstdint>
#include <vector>

#include "algorithms/connected_components.h"
#include "common/result.h"
#include "shard/sharded_csr.h"

namespace ubigraph::shard {

/// Message-layer counters a kernel run reports (also flushed to the obs
/// registry as shard.msg.combined_edges).
struct MsgStats {
  /// Edge messages folded into a destination's dense state.
  uint64_t combined_edges = 0;
};

/// Message-layer options embedded in every sharded kernel's options struct.
struct MsgOptions {
  /// When non-null, receives the run's message-layer counters.
  MsgStats* stats_out = nullptr;
};

struct ShardedPageRankOptions {
  double damping = 0.85;
  /// L1 convergence threshold; 0 with max_iterations = fixed-work runs.
  double tolerance = 1e-9;
  uint32_t max_iterations = 100;
  /// 0 = hardware_concurrency, 1 = exact serial path (default), >= 2 = that
  /// many workers. Scores are bitwise-identical at every setting.
  uint32_t num_threads = 1;
  /// Message-layer stats out.
  MsgOptions msg;
};

struct ShardedPageRankResult {
  std::vector<double> scores;  // indexed by ORIGINAL vertex id, sums to 1
  uint32_t iterations = 0;
  double final_delta = 0.0;
  bool converged = false;
};

Result<ShardedPageRankResult> ShardedPageRank(
    const ShardedCsr& g, const ShardedPageRankOptions& options = {});

struct ShardedTraversalOptions {
  /// Same convention as ShardedPageRankOptions::num_threads.
  uint32_t num_threads = 1;
  /// Message-layer stats out.
  MsgOptions msg;
};

/// Level-synchronous BFS from `source` (an ORIGINAL vertex id). Returns hop
/// distances indexed by original id, algo::kUnreachable where unreached —
/// the same contract as algo::BfsDistances. Shards with no frontier vertex
/// in a level are skipped without touching their segments.
Result<std::vector<uint32_t>> ShardedBfs(
    const ShardedCsr& g, VertexId source,
    const ShardedTraversalOptions& options = {});

/// Weakly connected components by Jacobi min-label propagation with pointer
/// jumping; edge direction is ignored (each scanned arc also sends its
/// reverse message). Labels match algo::WeaklyConnectedComponents exactly:
/// canonical ids assigned by first appearance in ascending ORIGINAL vertex
/// order.
Result<algo::ComponentResult> ShardedComponents(
    const ShardedCsr& g, const ShardedTraversalOptions& options = {});

}  // namespace ubigraph::shard
