#include "stream/incremental_kcore.h"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>
#include <utility>

#include "common/buckets.h"

namespace ubigraph::stream {

Status IncrementalKCore::InsertEdge(VertexId u, VertexId v) {
  return InsertEdgeImpl(u, v, nullptr);
}

Status IncrementalKCore::RemoveEdge(VertexId u, VertexId v) {
  return RemoveEdgeImpl(u, v, nullptr);
}

Status IncrementalKCore::InsertEdgeImpl(VertexId u, VertexId v,
                                        IncrementalWork* work) {
  if (u >= core_.size() || v >= core_.size()) {
    return Status::OutOfRange("vertex out of range");
  }
  if (u == v) return Status::Invalid("self-loops not supported");
  if (adjacency_[u].count(v)) {
    return Status::AlreadyExists("edge already present");
  }
  adjacency_[u].insert(v);
  adjacency_[v].insert(u);
  ++num_edges_;

  // Subcore repair (Sariyüce et al.): only vertices with core number
  // r = min(core(u), core(v)) that are K==r-connected to the lower endpoint
  // can be promoted to r+1, and by at most 1.
  uint32_t r = std::min(core_[u], core_[v]);
  VertexId root = core_[u] <= core_[v] ? u : v;

  // Candidate set: BFS from root through vertices with core == r.
  std::vector<VertexId> candidates;
  std::unordered_map<VertexId, uint32_t> cd;  // candidate degree
  std::unordered_set<VertexId> in_candidates;
  std::deque<VertexId> queue{root};
  in_candidates.insert(root);
  uint64_t scanned = 0;
  while (!queue.empty()) {
    VertexId w = queue.front();
    queue.pop_front();
    candidates.push_back(w);
    uint32_t degree = 0;
    scanned += adjacency_[w].size();
    for (VertexId x : adjacency_[w]) {
      if (core_[x] > r) {
        ++degree;
      } else if (core_[x] == r) {
        ++degree;
        if (!in_candidates.count(x)) {
          in_candidates.insert(x);
          queue.push_back(x);
        }
      }
    }
    cd[w] = degree;
  }

  // Peel candidates that cannot be in the (r+1)-core: they need > r
  // qualifying neighbors (core > r, or surviving candidates).
  std::deque<VertexId> evict;
  for (VertexId w : candidates) {
    if (cd[w] <= r) evict.push_back(w);
  }
  std::unordered_set<VertexId> evicted;
  while (!evict.empty()) {
    VertexId w = evict.front();
    evict.pop_front();
    if (evicted.count(w)) continue;
    evicted.insert(w);
    scanned += adjacency_[w].size();
    for (VertexId x : adjacency_[w]) {
      if (in_candidates.count(x) && !evicted.count(x)) {
        if (--cd[x] <= r && !evicted.count(x)) evict.push_back(x);
      }
    }
  }
  for (VertexId w : candidates) {
    if (!evicted.count(w)) core_[w] = r + 1;
  }
  if (work != nullptr) {
    work->vertices_reactivated += candidates.size();
    work->edges_rerelaxed += scanned;
  }
  return Status::OK();
}

Status IncrementalKCore::RemoveEdgeImpl(VertexId u, VertexId v,
                                        IncrementalWork* work) {
  if (u >= core_.size() || v >= core_.size()) {
    return Status::OutOfRange("vertex out of range");
  }
  if (!adjacency_[u].count(v)) return Status::NotFound("edge not present");
  adjacency_[u].erase(v);
  adjacency_[v].erase(u);
  --num_edges_;
  RepairAfterDeletion(u, v, work);
  ++deletion_repairs_;
  return Status::OK();
}

void IncrementalKCore::RepairAfterDeletion(VertexId u, VertexId v,
                                           IncrementalWork* work) {
  // Deletion subcore repair (Sariyüce et al.): with r = min(core(u),
  // core(v)), only vertices with core == r in the subcore of an endpoint
  // whose core IS r can lose their membership in the r-core, and they drop
  // by exactly 1. Vertices of higher core never depended on the demoted
  // ones; vertices of lower core are untouched by the theorem.
  const uint32_t r = std::min(core_[u], core_[v]);
  if (r == 0) return;

  // Candidate set: BFS through core==r vertices from the endpoint(s) at
  // level r (both when the edge joined two level-r subcores).
  std::vector<VertexId> candidates;
  std::unordered_map<VertexId, uint32_t> cd;  // # neighbors with core >= r
  std::unordered_set<VertexId> in_candidates;
  std::deque<VertexId> queue;
  if (core_[u] == r) {
    queue.push_back(u);
    in_candidates.insert(u);
  }
  if (core_[v] == r && !in_candidates.count(v)) {
    queue.push_back(v);
    in_candidates.insert(v);
  }
  uint64_t scanned = 0;
  while (!queue.empty()) {
    VertexId w = queue.front();
    queue.pop_front();
    candidates.push_back(w);
    uint32_t degree = 0;
    scanned += adjacency_[w].size();
    for (VertexId x : adjacency_[w]) {
      if (core_[x] >= r) ++degree;
      if (core_[x] == r && !in_candidates.count(x)) {
        in_candidates.insert(x);
        queue.push_back(x);
      }
    }
    cd[w] = degree;
  }

  // Bucketed peel over the shared priority-bucket layer: every candidate is
  // bucketed by its qualifying degree; buckets below r drain in order and
  // their fresh entries are demoted. A demotion re-inserts each surviving
  // subcore neighbor at its decremented degree (the structure clamps inserts
  // up to the cursor), so the pop-time recheck must test `cd < r` — a
  // clamped entry's bucket index says nothing about its current degree.
  BucketStructure peel(r + 1);
  for (VertexId w : candidates) peel.Insert(cd[w], w);
  std::unordered_set<VertexId> evicted;
  std::vector<VertexId> drained;
  uint64_t bucket;
  while ((bucket = peel.PopNextBucket(&drained)) != BucketStructure::kNoBucket) {
    if (bucket >= r) break;  // everything at >= r keeps its core number
    do {
      for (VertexId w : drained) {
        if (evicted.count(w) || cd[w] >= r) continue;  // stale entry
        evicted.insert(w);
        core_[w] = r - 1;
        scanned += adjacency_[w].size();
        for (VertexId x : adjacency_[w]) {
          if (in_candidates.count(x) && !evicted.count(x)) {
            peel.Insert(--cd[x], x);
          }
        }
      }
    } while (peel.PopSame(bucket, &drained));
  }
  if (work != nullptr) {
    work->vertices_reactivated += candidates.size();
    work->edges_rerelaxed += scanned;
  }
}

Result<IncrementalKCore::BatchResult> IncrementalKCore::ApplyBatch(
    std::span<const GraphDelta> deltas) {
  // Phase 1: validate every delta against the batch-adjusted edge set so a
  // bad batch is rejected before any repair mutates state. Arcs are
  // undirected here: (u, v) and (v, u) address the same edge.
  std::map<std::pair<VertexId, VertexId>, int> present;  // -1/0/+1 vs. base
  for (size_t i = 0; i < deltas.size(); ++i) {
    const GraphDelta& d = deltas[i];
    if (d.src >= core_.size() || d.dst >= core_.size()) {
      return Status::OutOfRange("delta " + std::to_string(i) +
                                " endpoint out of range");
    }
    if (d.src == d.dst) {
      return Status::Invalid("delta " + std::to_string(i) +
                             " is a self-loop (unsupported)");
    }
    auto key = std::minmax(d.src, d.dst);
    int& adj = present[{key.first, key.second}];
    const bool live =
        (adjacency_[d.src].count(d.dst) ? 1 : 0) + adj > 0;
    if (d.kind == GraphDelta::Kind::kInsert) {
      if (live) {
        return Status::AlreadyExists("delta " + std::to_string(i) +
                                     " inserts a duplicate edge");
      }
      ++adj;
    } else {
      if (!live) {
        return Status::NotFound("delta " + std::to_string(i) +
                                " removes a missing edge");
      }
      --adj;
    }
  }

  // Phase 2: apply in order, accumulating work. The per-delta impls cannot
  // fail now (phase 1 mirrored their checks), so Abort on the invariant.
  BatchResult result;
  IncrementalWork work;
  for (const GraphDelta& d : deltas) {
    if (d.kind == GraphDelta::Kind::kInsert) {
      InsertEdgeImpl(d.src, d.dst, &work).Abort();
    } else {
      RemoveEdgeImpl(d.src, d.dst, &work).Abort();
      ++result.deletion_repairs;
    }
  }
  result.vertices_reactivated = work.vertices_reactivated;
  result.edges_rerelaxed = work.edges_rerelaxed;
  FlushIncrementalWork("kcore", work);
  return result;
}

uint32_t IncrementalKCore::Degeneracy() const {
  uint32_t best = 0;
  for (uint32_t c : core_) best = std::max(best, c);
  return best;
}

EdgeList IncrementalKCore::Snapshot() const {
  EdgeList el(num_vertices());
  for (VertexId u = 0; u < num_vertices(); ++u) {
    for (VertexId v : adjacency_[u]) {
      if (u < v) el.Add(u, v);
    }
  }
  el.EnsureVertices(num_vertices());
  return el;
}

}  // namespace ubigraph::stream
