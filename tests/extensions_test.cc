// Tests for the extension features: Yen's k-shortest paths, DeepWalk vertex
// embeddings, and variable-length Cypher relationships.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "algorithms/shortest_path.h"
#include "gen/generators.h"
#include "ml/embeddings.h"
#include "query/cypher_executor.h"
#include "query/cypher_parser.h"

namespace ubigraph {
namespace {

// --------------------------------------------------- k shortest paths -----

CsrGraph YenExampleGraph() {
  // The classic Yen example (C..H renamed 0..5):
  // 0=C, 1=D, 2=E, 3=F, 4=G, 5=H.
  EdgeList el(6);
  el.Add(0, 1, 3);  // C->D
  el.Add(0, 2, 2);  // C->E
  el.Add(1, 3, 4);  // D->F
  el.Add(2, 1, 1);  // E->D
  el.Add(2, 3, 2);  // E->F
  el.Add(2, 4, 3);  // E->G
  el.Add(3, 4, 2);  // F->G
  el.Add(3, 5, 1);  // F->H
  el.Add(4, 5, 2);  // G->H
  return CsrGraph::FromEdges(std::move(el)).ValueOrDie();
}

TEST(KShortestPathsTest, ClassicYenExample) {
  auto g = YenExampleGraph();
  auto paths = algo::KShortestPaths(g, 0, 5, 3).ValueOrDie();
  ASSERT_EQ(paths.size(), 3u);
  // Known answers: C-E-F-H (5), C-E-G-H (7), C-E-F-G-H (8) or C-D-F-H (8).
  EXPECT_DOUBLE_EQ(paths[0].cost, 5.0);
  EXPECT_EQ(paths[0].vertices, (std::vector<VertexId>{0, 2, 3, 5}));
  EXPECT_DOUBLE_EQ(paths[1].cost, 7.0);
  EXPECT_EQ(paths[1].vertices, (std::vector<VertexId>{0, 2, 4, 5}));
  EXPECT_DOUBLE_EQ(paths[2].cost, 8.0);
}

TEST(KShortestPathsTest, CostsNonDecreasingAndPathsDistinct) {
  Rng rng(3);
  EdgeList el(30);
  for (int i = 0; i < 150; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(30));
    VertexId v = static_cast<VertexId>(rng.NextBounded(30));
    if (u != v) el.Add(u, v, 1.0 + rng.NextDouble() * 9);
  }
  el.EnsureVertices(30);
  auto g = CsrGraph::FromEdges(std::move(el)).ValueOrDie();
  auto paths = algo::KShortestPaths(g, 0, 29, 6).ValueOrDie();
  std::set<std::vector<VertexId>> distinct;
  for (size_t i = 0; i < paths.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(paths[i].cost, paths[i - 1].cost - 1e-9);
    }
    distinct.insert(paths[i].vertices);
    // Loopless.
    std::set<VertexId> unique(paths[i].vertices.begin(), paths[i].vertices.end());
    EXPECT_EQ(unique.size(), paths[i].vertices.size());
    // Valid edges.
    for (size_t j = 0; j + 1 < paths[i].vertices.size(); ++j) {
      EXPECT_TRUE(g.HasEdge(paths[i].vertices[j], paths[i].vertices[j + 1]));
    }
  }
  EXPECT_EQ(distinct.size(), paths.size());
}

TEST(KShortestPathsTest, FirstPathMatchesDijkstra) {
  Rng rng(4);
  EdgeList el(25);
  for (int i = 0; i < 120; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(25));
    VertexId v = static_cast<VertexId>(rng.NextBounded(25));
    if (u != v) el.Add(u, v, 1.0 + rng.NextDouble() * 5);
  }
  el.EnsureVertices(25);
  auto g = CsrGraph::FromEdges(std::move(el)).ValueOrDie();
  auto dijkstra = algo::Dijkstra(g, 0).ValueOrDie();
  auto paths = algo::KShortestPaths(g, 0, 20, 1).ValueOrDie();
  if (dijkstra.distance[20] == algo::kInfDistance) {
    EXPECT_TRUE(paths.empty());
  } else {
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_NEAR(paths[0].cost, dijkstra.distance[20], 1e-9);
  }
}

TEST(KShortestPathsTest, FewerPathsThanRequested) {
  // A path graph has exactly one loopless route.
  auto g = CsrGraph::FromEdges(gen::Path(5)).ValueOrDie();
  auto paths = algo::KShortestPaths(g, 0, 4, 5).ValueOrDie();
  EXPECT_EQ(paths.size(), 1u);
}

TEST(KShortestPathsTest, DisconnectedYieldsEmpty) {
  auto g = CsrGraph::FromPairs(4, {{0, 1}}).ValueOrDie();
  EXPECT_TRUE(algo::KShortestPaths(g, 0, 3, 3).ValueOrDie().empty());
}

TEST(KShortestPathsTest, InvalidInputsRejected) {
  auto g = CsrGraph::FromEdges(gen::Path(3)).ValueOrDie();
  EXPECT_FALSE(algo::KShortestPaths(g, 0, 9, 2).ok());
  EXPECT_FALSE(algo::KShortestPaths(g, 0, 2, 0).ok());
  EdgeList neg(2);
  neg.Add(0, 1, -1);
  auto ng = CsrGraph::FromEdges(std::move(neg)).ValueOrDie();
  EXPECT_FALSE(algo::KShortestPaths(ng, 0, 1, 1).ok());
}

// --------------------------------------------------------- embeddings -----

TEST(RandomWalkTest, StaysOnGraphAndRespectsLength) {
  Rng rng(1);
  CsrOptions opts;
  opts.directed = false;
  auto g = CsrGraph::FromEdges(gen::Cycle(10), opts).ValueOrDie();
  auto walk = ml::RandomWalk(g, 3, 20, &rng);
  ASSERT_EQ(walk.size(), 20u);
  EXPECT_EQ(walk[0], 3u);
  for (size_t i = 0; i + 1 < walk.size(); ++i) {
    EXPECT_TRUE(g.HasEdge(walk[i], walk[i + 1]));
  }
}

TEST(RandomWalkTest, StopsAtSink) {
  auto g = CsrGraph::FromPairs(3, {{0, 1}}).ValueOrDie();
  Rng rng(2);
  auto walk = ml::RandomWalk(g, 2, 10, &rng);  // vertex 2 isolated
  EXPECT_EQ(walk.size(), 1u);
}

TEST(EmbeddingsTest, CommunityStructureSeparates) {
  // Two well-separated cliques: intra-clique cosine similarity must exceed
  // inter-clique similarity on average.
  EdgeList el(20);
  for (VertexId u = 0; u < 10; ++u) {
    for (VertexId v = u + 1; v < 10; ++v) el.Add(u, v);
  }
  for (VertexId u = 10; u < 20; ++u) {
    for (VertexId v = u + 1; v < 20; ++v) el.Add(u, v);
  }
  el.Add(9, 10);  // a single bridge
  CsrOptions opts;
  opts.directed = false;
  auto g = CsrGraph::FromEdges(std::move(el), opts).ValueOrDie();

  ml::EmbeddingOptions eopts;
  eopts.dimensions = 16;
  eopts.walks_per_vertex = 8;
  eopts.walk_length = 20;
  eopts.epochs = 3;
  auto emb = ml::VertexEmbeddings::Train(g, eopts).ValueOrDie();

  double intra = 0, inter = 0;
  int intra_n = 0, inter_n = 0;
  for (VertexId a = 0; a < 20; ++a) {
    for (VertexId b = a + 1; b < 20; ++b) {
      if ((a < 10) == (b < 10)) {
        intra += emb.Similarity(a, b);
        ++intra_n;
      } else {
        inter += emb.Similarity(a, b);
        ++inter_n;
      }
    }
  }
  EXPECT_GT(intra / intra_n, inter / inter_n + 0.1);
}

TEST(EmbeddingsTest, MostSimilarPrefersSameClique) {
  EdgeList el(12);
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = u + 1; v < 6; ++v) el.Add(u, v);
  }
  for (VertexId u = 6; u < 12; ++u) {
    for (VertexId v = u + 1; v < 12; ++v) el.Add(u, v);
  }
  CsrOptions opts;
  opts.directed = false;
  auto g = CsrGraph::FromEdges(std::move(el), opts).ValueOrDie();
  ml::EmbeddingOptions eopts;
  eopts.dimensions = 16;
  eopts.epochs = 3;
  auto emb = ml::VertexEmbeddings::Train(g, eopts).ValueOrDie();
  auto similar = emb.MostSimilar(0, 3);
  int same_clique = 0;
  for (VertexId v : similar) {
    if (v < 6) ++same_clique;
  }
  EXPECT_GE(same_clique, 2);
}

TEST(EmbeddingsTest, ShapesAndAccessors) {
  CsrOptions opts;
  opts.directed = false;
  auto g = CsrGraph::FromEdges(gen::Cycle(8), opts).ValueOrDie();
  ml::EmbeddingOptions eopts;
  eopts.dimensions = 12;
  eopts.epochs = 1;
  auto emb = ml::VertexEmbeddings::Train(g, eopts).ValueOrDie();
  EXPECT_EQ(emb.dimensions(), 12u);
  EXPECT_EQ(emb.num_vertices(), 8u);
  EXPECT_EQ(emb.Vector(0).size(), 12u);
  EXPECT_NEAR(emb.Similarity(3, 3), 1.0, 1e-9);
  auto rows = emb.ToRows();
  EXPECT_EQ(rows.size(), 8u);
  EXPECT_EQ(rows[0].size(), 12u);
}

TEST(EmbeddingsTest, InvalidInputsRejected) {
  auto empty = CsrGraph::FromEdges(EdgeList{}).ValueOrDie();
  EXPECT_FALSE(ml::VertexEmbeddings::Train(empty).ok());
  auto g = CsrGraph::FromEdges(gen::Path(3)).ValueOrDie();
  ml::EmbeddingOptions bad;
  bad.dimensions = 0;
  EXPECT_FALSE(ml::VertexEmbeddings::Train(g, bad).ok());
}

// --------------------------------------- variable-length relationships ----

PropertyGraph ChainGraph() {
  PropertyGraph g;
  for (int i = 0; i < 6; ++i) {
    VertexId v = g.AddVertex("Node");
    g.SetVertexProperty(v, "idx", static_cast<int64_t>(i)).Abort();
  }
  for (VertexId i = 0; i + 1 < 6; ++i) g.AddEdge(i, i + 1, "next").ValueOrDie();
  return g;
}

TEST(VarLengthCypherTest, ParserAcceptsBounds) {
  auto q = query::ParseCypher("MATCH (a)-[:next*2..4]->(b) RETURN b").ValueOrDie();
  EXPECT_EQ(q.paths[0].edges[0].min_hops, 2u);
  EXPECT_EQ(q.paths[0].edges[0].max_hops, 4u);
  auto exact = query::ParseCypher("MATCH (a)-[:next*3]->(b) RETURN b").ValueOrDie();
  EXPECT_EQ(exact.paths[0].edges[0].min_hops, 3u);
  EXPECT_EQ(exact.paths[0].edges[0].max_hops, 3u);
  auto unbounded = query::ParseCypher("MATCH (a)-[*]->(b) RETURN b").ValueOrDie();
  EXPECT_EQ(unbounded.paths[0].edges[0].min_hops, 1u);
  EXPECT_EQ(unbounded.paths[0].edges[0].max_hops,
            query::EdgePattern::kMaxVarLength);
}

TEST(VarLengthCypherTest, ParserRejectsBadBounds) {
  EXPECT_FALSE(query::ParseCypher("MATCH (a)-[:x*0]->(b) RETURN b").ok());
  EXPECT_FALSE(query::ParseCypher("MATCH (a)-[:x*3..2]->(b) RETURN b").ok());
  EXPECT_FALSE(query::ParseCypher("MATCH (a)-[:x*1..]->(b) RETURN b").ok());
  EXPECT_FALSE(query::ParseCypher("MATCH (a)-[:x*1..99]->(b) RETURN b").ok());
}

TEST(VarLengthCypherTest, RangeMatchesOnChain) {
  PropertyGraph g = ChainGraph();
  // From vertex 0, nodes 2..4 hops away: idx 2, 3, 4.
  auto r = query::RunCypher(g,
                            "MATCH (a {idx: 0})-[:next*2..4]->(b) RETURN b.idx")
               .ValueOrDie();
  std::set<int64_t> found;
  for (const auto& row : r.rows) found.insert(std::get<int64_t>(row[0]));
  EXPECT_EQ(found, (std::set<int64_t>{2, 3, 4}));
}

TEST(VarLengthCypherTest, ExactHopCount) {
  PropertyGraph g = ChainGraph();
  auto r = query::RunCypher(g, "MATCH (a {idx: 1})-[:next*3]->(b) RETURN b.idx")
               .ValueOrDie();
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(r.rows[0][0]), 4);
}

TEST(VarLengthCypherTest, IncomingDirection) {
  PropertyGraph g = ChainGraph();
  auto r = query::RunCypher(g, "MATCH (a {idx: 4})<-[:next*2]-(b) RETURN b.idx")
               .ValueOrDie();
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(r.rows[0][0]), 2);
}

TEST(VarLengthCypherTest, TypeFilterApplies) {
  PropertyGraph g = ChainGraph();
  g.AddEdge(0, 5, "shortcut").ValueOrDie();
  // Via :next only, idx5 is 5 hops from 0 — outside *1..3.
  auto r = query::RunCypher(
               g, "MATCH (a {idx: 0})-[:next*1..3]->(b {idx: 5}) RETURN b")
               .ValueOrDie();
  EXPECT_TRUE(r.rows.empty());
  // Untyped var-length may use the shortcut.
  auto any = query::RunCypher(
                 g, "MATCH (a {idx: 0})-[*1..3]->(b {idx: 5}) RETURN b")
                 .ValueOrDie();
  EXPECT_EQ(any.rows.size(), 1u);
}

}  // namespace
}  // namespace ubigraph
