// Tests for the distance-label index (Pruned Landmark Labeling), the JGF
// format, and the Cypher-lite ORDER BY clause.
#include <gtest/gtest.h>

#include "algorithms/hop_labels.h"
#include "algorithms/traversal.h"
#include "common/random.h"
#include "gen/generators.h"
#include "io/jgf_io.h"
#include "query/cypher_executor.h"
#include "query/cypher_parser.h"

namespace ubigraph {
namespace {

// --------------------------------------------------------- hop labeling ---

CsrGraph Undirected(EdgeList el) {
  CsrOptions opts;
  opts.directed = false;
  return CsrGraph::FromEdges(std::move(el), opts).ValueOrDie();
}

TEST(HopLabelTest, ExactOnPathAndCycle) {
  auto path = Undirected(gen::Path(8));
  auto idx = algo::HopLabelIndex::Build(path).ValueOrDie();
  for (VertexId u = 0; u < 8; ++u) {
    for (VertexId v = 0; v < 8; ++v) {
      EXPECT_EQ(idx.Distance(u, v), static_cast<uint32_t>(
                                        u > v ? u - v : v - u));
    }
  }
  auto cycle = Undirected(gen::Cycle(9));
  auto cidx = algo::HopLabelIndex::Build(cycle).ValueOrDie();
  EXPECT_EQ(cidx.Distance(0, 4), 4u);
  EXPECT_EQ(cidx.Distance(0, 5), 4u);  // the short way around
}

TEST(HopLabelTest, DisconnectedPairsAreInfinite) {
  auto g = Undirected([] {
    EdgeList el(5);
    el.Add(0, 1);
    el.Add(2, 3);
    return el;
  }());
  auto idx = algo::HopLabelIndex::Build(g).ValueOrDie();
  EXPECT_EQ(idx.Distance(0, 1), 1u);
  EXPECT_EQ(idx.Distance(0, 2), UINT32_MAX);
  EXPECT_EQ(idx.Distance(4, 0), UINT32_MAX);
  EXPECT_EQ(idx.Distance(4, 4), 0u);
}

class HopLabelRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HopLabelRandomTest, MatchesBfsOnRandomGraphs) {
  Rng rng(GetParam());
  auto g = Undirected(gen::ErdosRenyi(80, 200, &rng).ValueOrDie());
  auto idx = algo::HopLabelIndex::Build(g).ValueOrDie();
  for (VertexId s = 0; s < g.num_vertices(); s += 9) {
    auto bfs = algo::BfsDistances(g, s);
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      uint32_t expected = bfs[t] == algo::kUnreachable ? UINT32_MAX : bfs[t];
      ASSERT_EQ(idx.Distance(s, t), expected)
          << "seed=" << GetParam() << " s=" << s << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HopLabelRandomTest,
                         ::testing::Values(201, 202, 203, 204, 205));

TEST(HopLabelTest, MatchesBfsOnScaleFreeGraph) {
  Rng rng(7);
  auto g = Undirected(gen::BarabasiAlbert(150, 2, &rng).ValueOrDie());
  auto idx = algo::HopLabelIndex::Build(g).ValueOrDie();
  auto bfs = algo::BfsDistances(g, 0);
  for (VertexId t = 0; t < g.num_vertices(); ++t) {
    EXPECT_EQ(idx.Distance(0, t), bfs[t]);
  }
  // Pruning must keep labels far below the quadratic worst case.
  EXPECT_LT(idx.AverageLabelSize(), 40.0);
  EXPECT_GT(idx.TotalLabelEntries(), 0u);
}

TEST(HopLabelTest, EmptyAndSingleton) {
  auto empty = CsrGraph::FromEdges(EdgeList{}).ValueOrDie();
  auto idx = algo::HopLabelIndex::Build(empty).ValueOrDie();
  EXPECT_EQ(idx.num_vertices(), 0u);
  EXPECT_EQ(idx.Distance(0, 1), UINT32_MAX);
  auto single = CsrGraph::FromEdges(EdgeList(1)).ValueOrDie();
  auto sidx = algo::HopLabelIndex::Build(single).ValueOrDie();
  EXPECT_EQ(sidx.Distance(0, 0), 0u);
}

// ------------------------------------------------------------------ JGF ---

TEST(JgfTest, RoundTrip) {
  EdgeList el(4);
  el.Add(0, 1, 2.5);
  el.Add(2, 3);
  el.Add(3, 0, -1.0);
  auto doc = io::ParseJgf(io::WriteJgf(el, /*directed=*/true, "test"));
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc->directed);
  EXPECT_EQ(doc->label, "test");
  ASSERT_EQ(doc->edges.num_edges(), 3u);
  EXPECT_EQ(doc->edges.num_vertices(), 4u);
  EdgeList sorted = doc->edges;
  sorted.Sort();
  EXPECT_EQ(sorted.edges()[0].src, 0u);
  EXPECT_DOUBLE_EQ(sorted.edges()[0].weight, 2.5);
}

TEST(JgfTest, RoundTripPreservesIdsBeyondTen) {
  // Zero-padding keeps lexicographic interning aligned with numeric ids.
  Rng rng(5);
  auto el = gen::ErdosRenyi(30, 100, &rng).ValueOrDie();
  auto doc = io::ParseJgf(io::WriteJgf(el)).ValueOrDie();
  EdgeList a = el, b = doc.edges;
  a.Sort();
  b.Sort();
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (size_t i = 0; i < a.edges().size(); ++i) {
    EXPECT_EQ(a.edges()[i].src, b.edges()[i].src);
    EXPECT_EQ(a.edges()[i].dst, b.edges()[i].dst);
  }
}

TEST(JgfTest, WriterOutputIsPinned) {
  // Byte-exact output, including the zero-padded node ids.
  EdgeList el(11);
  el.Add(0, 10, 2.5);
  el.Add(9, 1);
  EXPECT_EQ(io::WriteJgf(el, /*directed=*/true, "pin"),
            "{\n  \"graph\": {\n    \"directed\": true,\n    \"label\": \"pin\",\n"
            "    \"nodes\": {\"n00\": {}, \"n01\": {}, \"n02\": {}, \"n03\": {}, "
            "\"n04\": {}, \"n05\": {}, \"n06\": {}, \"n07\": {}, \"n08\": {}, "
            "\"n09\": {}, \"n10\": {}},\n    \"edges\": [\n"
            "      {\"source\": \"n00\", \"target\": \"n10\", "
            "\"metadata\": {\"weight\": 2.5}},\n"
            "      {\"source\": \"n09\", \"target\": \"n01\"}\n    ]\n  }\n}\n");
  EdgeList wide(1000);
  wide.Add(999, 7);
  EXPECT_NE(io::WriteJgf(wide).find("{\"source\": \"n0999\", \"target\": \"n0007\"}"),
            std::string::npos);
}

TEST(JgfTest, ParsesHandWrittenDocument) {
  const char* doc = R"({
    "graph": {
      "directed": false,
      "nodes": {"alice": {"label": "A"}, "bob": {}},
      "edges": [{"source": "alice", "target": "bob",
                 "metadata": {"weight": 3.5}}]
    }
  })";
  auto parsed = io::ParseJgf(doc).ValueOrDie();
  EXPECT_FALSE(parsed.directed);
  ASSERT_EQ(parsed.edges.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(parsed.edges.edges()[0].weight, 3.5);
}

TEST(JgfTest, MalformedRejected) {
  EXPECT_FALSE(io::ParseJgf("{}").ok());                       // no graph
  EXPECT_FALSE(io::ParseJgf(R"({"graph": []})").ok());         // wrong type
  EXPECT_FALSE(
      io::ParseJgf(R"({"graph": {"nodes": ["a"]}})").ok());    // nodes array
  EXPECT_FALSE(
      io::ParseJgf(R"({"graph": {"edges": [{"source": "a"}]}})").ok());
}

// ------------------------------------------------------------- ORDER BY ---

PropertyGraph People() {
  PropertyGraph g;
  const char* names[] = {"carol", "alice", "bob"};
  int64_t ages[] = {41, 34, 29};
  for (int i = 0; i < 3; ++i) {
    VertexId v = g.AddVertex("Person");
    g.SetVertexProperty(v, "name", std::string(names[i])).Abort();
    g.SetVertexProperty(v, "age", ages[i]).Abort();
  }
  return g;
}

TEST(OrderByTest, AscendingAndDescending) {
  PropertyGraph g = People();
  auto asc = query::RunCypher(
                 g, "MATCH (p:Person) RETURN p.name, p.age ORDER BY p.age")
                 .ValueOrDie();
  ASSERT_EQ(asc.rows.size(), 3u);
  EXPECT_EQ(std::get<std::string>(asc.rows[0][0]), "bob");
  EXPECT_EQ(std::get<std::string>(asc.rows[2][0]), "carol");

  auto desc = query::RunCypher(
                  g, "MATCH (p:Person) RETURN p.age ORDER BY p.age DESC")
                  .ValueOrDie();
  EXPECT_EQ(std::get<int64_t>(desc.rows[0][0]), 41);
}

TEST(OrderByTest, StringOrderingAndLimit) {
  PropertyGraph g = People();
  auto r = query::RunCypher(
               g, "MATCH (p:Person) RETURN p.name ORDER BY p.name ASC LIMIT 2")
               .ValueOrDie();
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(std::get<std::string>(r.rows[0][0]), "alice");
  EXPECT_EQ(std::get<std::string>(r.rows[1][0]), "bob");
}

TEST(OrderByTest, MustReferenceReturnedItem) {
  PropertyGraph g = People();
  EXPECT_FALSE(
      query::RunCypher(g, "MATCH (p:Person) RETURN p.name ORDER BY p.age").ok());
  EXPECT_FALSE(
      query::RunCypher(g, "MATCH (p:Person) RETURN p.name ORDER BY q.name").ok());
}

TEST(OrderByTest, ParserErrors) {
  EXPECT_FALSE(query::ParseCypher("MATCH (a) RETURN a ORDER a").ok());
  EXPECT_FALSE(query::ParseCypher("MATCH (a) RETURN a ORDER BY 5").ok());
}

}  // namespace
}  // namespace ubigraph
