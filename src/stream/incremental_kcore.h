// Incremental k-core maintenance — the computation §4.3's streaming
// participants explicitly named ("incremental or streaming computation of
// ... k-core"). Maintains exact core numbers of an undirected simple graph
// under edge insertions AND deletions using the subcore-repair algorithms of
// Sariyüce et al. (VLDB'13): a single edge change moves core numbers by at
// most one, and only within the K==r-connected subcore around the changed
// edge (r = min of the endpoint cores). Insertions peel promotion candidates
// with a cascade; deletions peel demotion candidates through the shared
// priority-bucket layer (common/buckets.h), popping sub-r buckets in order.
// No update ever falls back to a full recomputation.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "graph/dynamic_graph.h"
#include "graph/edge_list.h"
#include "stream/incremental.h"

namespace ubigraph::stream {

struct IncrementalKCoreOptions {
  /// Accepted for symmetry with the other engines' options. Every update is
  /// a serial local repair, so no code path reads it.
  uint32_t num_threads = 1;
};

class IncrementalKCore {
 public:
  using Options = IncrementalKCoreOptions;

  explicit IncrementalKCore(VertexId num_vertices, Options /*options*/ = {})
      : adjacency_(num_vertices), core_(num_vertices, 0) {}

  /// Inserts an undirected edge and repairs core numbers locally.
  /// Duplicate edges and self-loops are rejected.
  Status InsertEdge(VertexId u, VertexId v);

  /// Removes an edge and repairs core numbers locally.
  Status RemoveEdge(VertexId u, VertexId v);

  /// Applies an ordered batch of deltas (arcs interpreted as undirected
  /// edges). The batch is validated against the batch-adjusted edge set
  /// first and rejected atomically: OutOfRange / Invalid (self-loop) /
  /// AlreadyExists / NotFound. On success flushes stream.incremental.kcore.*
  /// counters (single-edge InsertEdge/RemoveEdge calls do not flush).
  struct BatchResult {
    /// Subcore candidates examined across the batch's repairs.
    uint64_t vertices_reactivated = 0;
    /// Adjacency entries scanned across the batch's repairs.
    uint64_t edges_rerelaxed = 0;
    /// Deletions absorbed by bounded local repair.
    uint64_t deletion_repairs = 0;
  };
  Result<BatchResult> ApplyBatch(std::span<const GraphDelta> deltas);

  VertexId num_vertices() const { return static_cast<VertexId>(core_.size()); }
  uint64_t num_edges() const { return num_edges_; }

  /// Current core number of a vertex.
  uint32_t CoreNumber(VertexId v) const { return core_[v]; }
  const std::vector<uint32_t>& core_numbers() const { return core_; }

  /// Largest core number.
  uint32_t Degeneracy() const;

  /// How many deletions were absorbed by bounded local repair.
  uint64_t deletion_repairs() const { return deletion_repairs_; }

  /// Current edges as an EdgeList (each undirected edge once, u < v).
  EdgeList Snapshot() const;

 private:
  Status InsertEdgeImpl(VertexId u, VertexId v, IncrementalWork* work);
  Status RemoveEdgeImpl(VertexId u, VertexId v, IncrementalWork* work);
  /// Demotes the core==r subcore members around the removed edge that lost
  /// their r-th qualifying neighbor (bucketed peel; see .cc).
  void RepairAfterDeletion(VertexId u, VertexId v, IncrementalWork* work);

  std::vector<std::unordered_set<VertexId>> adjacency_;
  std::vector<uint32_t> core_;
  uint64_t num_edges_ = 0;
  uint64_t deletion_repairs_ = 0;
};

}  // namespace ubigraph::stream
