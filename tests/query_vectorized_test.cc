// Differential + planner + plan-cache tests for the vectorized Cypher engine.
//
// The row-at-a-time interpreter (ExecuteCypherInterpreted) is the semantics
// oracle: the vectorized engine must produce bitwise-identical results —
// same columns, same rows, same row ORDER — at every batch size, on every
// query, on every graph shape.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "graph/label_csr.h"
#include "graph/property_graph.h"
#include "obs/metrics.h"
#include "query/cypher_executor.h"
#include "query/cypher_parser.h"
#include "query/eval_common.h"
#include "query/plan.h"
#include "query/plan_cache.h"
#include "query/planner.h"
#include "query/vector_executor.h"

namespace ubigraph::query {
namespace {

// ---------------------------------------------------------------------------
// Differential harness

std::string DescribeRows(const QueryResult& r) {
  std::string out;
  for (const auto& row : r.rows) {
    out += "[";
    for (const PropertyValue& v : row) {
      out += ValueToString(v);
      out += ", ";
    }
    out += "]\n";
  }
  return out;
}

void ExpectIdentical(const PropertyGraph& g, const std::string& text) {
  Result<CypherQuery> parsed = ParseCypher(text);
  if (!parsed.ok()) {
    // Parse errors are shared by both engines; nothing to compare.
    Result<QueryResult> vec = RunCypher(g, text, {.vectorized = true});
    ASSERT_FALSE(vec.ok()) << text;
    return;
  }
  Result<QueryResult> oracle = ExecuteCypherInterpreted(g, *parsed);
  for (size_t batch : {size_t{1}, size_t{7}, size_t{1024}}) {
    Result<QueryResult> vec =
        ExecuteCypher(g, *parsed, {.vectorized = true, .batch_size = batch});
    ASSERT_EQ(oracle.ok(), vec.ok())
        << text << " (batch=" << batch << "): oracle "
        << (oracle.ok() ? "ok" : oracle.status().message()) << ", vectorized "
        << (vec.ok() ? "ok" : vec.status().message());
    if (!oracle.ok()) {
      EXPECT_EQ(oracle.status().message(), vec.status().message()) << text;
      continue;
    }
    EXPECT_EQ(oracle->columns, vec->columns) << text;
    EXPECT_EQ(oracle->rows, vec->rows)
        << text << " (batch=" << batch << ")\noracle:\n"
        << DescribeRows(*oracle) << "vectorized:\n"
        << DescribeRows(*vec);
  }
}

// The same five-vertex social/product graph query_test.cc uses.
PropertyGraph SampleGraph() {
  PropertyGraph g;
  VertexId alice = g.AddVertex("Person");
  VertexId bob = g.AddVertex("Person");
  VertexId carol = g.AddVertex("Person");
  VertexId laptop = g.AddVertex("Product");
  VertexId phone = g.AddVertex("Product");
  g.SetVertexProperty(alice, "name", std::string("alice")).Abort();
  g.SetVertexProperty(alice, "age", static_cast<int64_t>(34)).Abort();
  g.SetVertexProperty(bob, "name", std::string("bob")).Abort();
  g.SetVertexProperty(bob, "age", static_cast<int64_t>(29)).Abort();
  g.SetVertexProperty(carol, "name", std::string("carol")).Abort();
  g.SetVertexProperty(carol, "age", static_cast<int64_t>(41)).Abort();
  g.SetVertexProperty(laptop, "name", std::string("laptop")).Abort();
  g.SetVertexProperty(laptop, "price", 1200.0).Abort();
  g.SetVertexProperty(phone, "name", std::string("phone")).Abort();
  g.SetVertexProperty(phone, "price", 800.0).Abort();
  g.AddEdge(alice, bob, "knows").ValueOrDie();
  g.AddEdge(bob, carol, "knows").ValueOrDie();
  g.AddEdge(alice, laptop, "bought").ValueOrDie();
  g.AddEdge(bob, laptop, "bought").ValueOrDie();
  g.AddEdge(carol, phone, "bought").ValueOrDie();
  return g;
}

// Every executor query from query_test.cc, plus shapes that stress the
// planner's join reordering, direction flipping, and fallback paths.
const char* const kCorpus[] = {
    // --- query_test.cc coverage ---
    "MATCH (p:Person) RETURN p.name",
    "MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name, b.name",
    "MATCH (a:Person)<-[:knows]-(b:Person) RETURN a.name, b.name",
    "MATCH (a:Person)-[:knows]-(b:Person) RETURN a.name, b.name",
    "MATCH (p:Person) WHERE p.age > 30 RETURN p.name",
    "MATCH (p:Person) WHERE p.name = 'bob' RETURN p.age",
    "MATCH (p:Person) WHERE p.age <> 29 RETURN p.name",
    "MATCH (p:Person {age: 29}) RETURN p.name",
    "MATCH (a:Person)-[:knows]->(b:Person)-[:knows]->(c:Person) "
    "RETURN a.name, c.name",
    "MATCH (p:Person)-[:bought]->(x:Product) RETURN count(*)",
    "MATCH (p:Person) RETURN p.name, p.age ORDER BY p.age DESC",
    "MATCH (p:Person) RETURN p.name ORDER BY p.name LIMIT 2",
    "MATCH (p:Person) WHERE p.age > 29.5 RETURN p.name",
    "MATCH (p:Product) WHERE p.price < 1000 RETURN p.name",
    "MATCH (p:Ghost) RETURN p.name",
    // --- planner stress ---
    "MATCH (a:Person {name: 'alice'})-[:knows*1..3]->(b) RETURN b.name",
    "MATCH (a)-[:knows*1..3]->(b:Product) RETURN a.name",
    "MATCH (a)-[:knows*1..2]->(b:Person {name: 'carol'}) RETURN a.name",
    "MATCH (a:Person)-[:knows*2..2]->(c) RETURN a.name, c.name",
    "MATCH (a:Person)-[*1..2]-(b:Product) RETURN a.name, b.name",
    "MATCH (a)-[:knows]->(a) RETURN a",
    "MATCH (a:Person), (b:Product) RETURN count(*)",
    "MATCH (a:Person), (b:Product) WHERE a.age > 30 RETURN a.name, b.name",
    "MATCH (p:Person)-[:bought]->(x)<-[:bought]-(q:Person) "
    "WHERE p.name < q.name RETURN p.name, q.name, x.name",
    "MATCH (a:Person)-[:knows]->(b)-[:bought]->(x:Product) "
    "RETURN a.name, x.name ORDER BY x.name DESC",
    "MATCH (p:Person) RETURN p.name, count(*)",
    "MATCH (p:Person) RETURN p",
    "MATCH (p) RETURN count(*)",
    "MATCH (p:Person) RETURN p.name LIMIT 0",
    "MATCH (p:Person) RETURN p.age ORDER BY p.age LIMIT 0",
    "MATCH (p:Person) RETURN p.name LIMIT 1",
    "MATCH (p:Person) WHERE p.age > 25 RETURN count(*) LIMIT 1",
    "MATCH (p:Person) WHERE p.nosuchkey = 1 RETURN p.name",
    "MATCH (p:Person) RETURN p.nosuchkey",
    "MATCH (p:Person)-[:nosuchtype]->(q) RETURN p.name",
    "MATCH (p:Person {name: 30}) RETURN p.name",  // exact-variant: no match
    "MATCH (p:Person) WHERE p.age = 34.0 RETURN p.name",  // numeric compare
    "MATCH (p:Person) WHERE 1 < 2 RETURN p.name",  // literal-only WHERE
    "MATCH (p:Person) WHERE p.name > p.age RETURN p.name",  // incomparable
    "MATCH (a:Person)-[:knows]->(b) WHERE a.age > b.age RETURN a.name",
};

TEST(VectorizedDifferential, SampleGraphCorpus) {
  PropertyGraph g = SampleGraph();
  for (const char* text : kCorpus) {
    ExpectIdentical(g, text);
  }
}

TEST(VectorizedDifferential, SharedErrors) {
  PropertyGraph g = SampleGraph();
  // Validation errors must be byte-identical between engines.
  ExpectIdentical(g, "MATCH (p:Person) WHERE q.age > 1 RETURN p");
  ExpectIdentical(g, "MATCH (p:Person) RETURN q.name");
  ExpectIdentical(g, "MATCH (p:Person) RETURN p.name ORDER BY p.age");
}

// Deterministic labels/properties over a generated topology: label L0/L1/L2
// by vertex id mod 3, integer property "w" = v * 7 % 50, edge types t0/t1 by
// edge index parity.
PropertyGraph FromEdgeList(const EdgeList& el) {
  PropertyGraph g;
  for (VertexId v = 0; v < el.num_vertices(); ++v) {
    std::string label = "L";
    label += std::to_string(v % 3);
    VertexId id = g.AddVertex(label);
    g.SetVertexProperty(id, "w", static_cast<int64_t>(v * 7 % 50)).Abort();
  }
  size_t i = 0;
  for (const Edge& e : el.edges()) {
    g.AddEdge(e.src, e.dst, i++ % 2 == 0 ? "t0" : "t1").ValueOrDie();
  }
  return g;
}

const char* const kShapeCorpus[] = {
    "MATCH (a:L0)-[:t0]->(b:L1) RETURN count(*)",
    "MATCH (a:L0)-[:t0]->(b)-[:t1]->(c:L2) WHERE a.w < 20 RETURN count(*)",
    "MATCH (a:L1)-[]-(b:L1) RETURN count(*)",
    "MATCH (a:L2 {w: 14})-[:t0*1..2]->(b) RETURN b ORDER BY b",
    "MATCH (a)-[:t1]->(a) RETURN count(*)",
    "MATCH (a:L0) WHERE a.w >= 28 RETURN a.w ORDER BY a.w DESC LIMIT 5",
};

TEST(VectorizedDifferential, RmatShape) {
  Rng rng(42);
  EdgeList el = gen::Rmat(/*scale=*/6, /*num_edges=*/256, &rng).ValueOrDie();
  PropertyGraph g = FromEdgeList(el);
  for (const char* text : kShapeCorpus) ExpectIdentical(g, text);
}

TEST(VectorizedDifferential, PathShape) {
  PropertyGraph g = FromEdgeList(gen::Path(40));
  for (const char* text : kShapeCorpus) ExpectIdentical(g, text);
  // Long chains exercise the var-length BFS hop window.
  ExpectIdentical(g, "MATCH (a:L0)-[*2..4]->(b) RETURN count(*)");
}

TEST(VectorizedDifferential, BipartiteSkewedShape) {
  Rng rng(7);
  EdgeList el =
      gen::BipartiteSkewed(/*left=*/8, /*right=*/60, /*num_edges=*/200,
                           /*skew=*/1.2, &rng)
          .ValueOrDie();
  PropertyGraph g = FromEdgeList(el);
  for (const char* text : kShapeCorpus) ExpectIdentical(g, text);
}

TEST(VectorizedDifferential, EmptyGraph) {
  PropertyGraph g;
  ExpectIdentical(g, "MATCH (p) RETURN count(*)");
  ExpectIdentical(g, "MATCH (p:Person)-[:knows]->(q) RETURN p.name");
}

// ---------------------------------------------------------------------------
// Planner unit tests

TEST(Planner, StartsFromRareLabelAndExpandsTowardHub) {
  // 100 Hub vertices, 2 Rare vertices, edges Rare -> Hub: the cheap plan
  // scans Rare and expands forward, never scanning all Hubs.
  PropertyGraph g;
  std::vector<VertexId> hubs;
  for (int i = 0; i < 100; ++i) hubs.push_back(g.AddVertex("Hub"));
  for (int i = 0; i < 2; ++i) {
    VertexId r = g.AddVertex("Rare");
    for (int j = 0; j < 10; ++j) {
      g.AddEdge(r, hubs[(i * 10 + j) % hubs.size()], "links").ValueOrDie();
    }
  }
  LabelCsrView view = LabelCsrView::Build(g);
  CypherQuery q =
      ParseCypher("MATCH (h:Hub)<-[:links]-(r:Rare) RETURN count(*)")
          .ValueOrDie();
  PlannedQuery planned = PlanQuery(g, view.stats(), q).ValueOrDie();
  EXPECT_EQ(planned.plan.DebugString(), "Scan(r) Expand(r->h)");
  // And the reverse phrasing picks the same join order.
  CypherQuery q2 =
      ParseCypher("MATCH (r:Rare)-[:links]->(h:Hub) RETURN count(*)")
          .ValueOrDie();
  PlannedQuery planned2 = PlanQuery(g, view.stats(), q2).ValueOrDie();
  EXPECT_EQ(planned2.plan.DebugString(), "Scan(r) Expand(r->h)");
}

TEST(Planner, PropertyFilterMakesScanCheaper) {
  // Equal label counts, but a property filter shrinks one side's estimate.
  PropertyGraph g;
  for (int i = 0; i < 20; ++i) g.AddVertex("A");
  for (int i = 0; i < 20; ++i) g.AddVertex("B");
  g.AddEdge(0, 20, "e").ValueOrDie();
  LabelCsrView view = LabelCsrView::Build(g);
  CypherQuery q =
      ParseCypher("MATCH (a:A)-[:e]->(b:B {name: 'x'}) RETURN count(*)")
          .ValueOrDie();
  PlannedQuery planned = PlanQuery(g, view.stats(), q).ValueOrDie();
  EXPECT_EQ(planned.plan.DebugString(), "Scan(b) Expand(b->a)");
}

TEST(Planner, MissingLabelPlansToZeroRows) {
  PropertyGraph g = SampleGraph();
  LabelCsrView view = LabelCsrView::Build(g);
  CypherQuery q =
      ParseCypher("MATCH (p:Ghost)-[:knows]->(q:Person) RETURN count(*)")
          .ValueOrDie();
  PlannedQuery planned = PlanQuery(g, view.stats(), q).ValueOrDie();
  ASSERT_FALSE(planned.plan.steps.empty());
  // The unknown label resolves to the no-match sentinel, not an error.
  EXPECT_EQ(planned.plan.steps[0].label_id, kNoSuchId);
  QueryResult r =
      ExecutePlan(g, view, planned.plan, planned.params, 1024).ValueOrDie();
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(r.rows[0][0]), 0);
}

TEST(Planner, EmptyGraphPlansGracefully) {
  PropertyGraph g;
  LabelCsrView view = LabelCsrView::Build(g);
  CypherQuery q =
      ParseCypher("MATCH (a:X)-[:y*1..3]->(b) RETURN count(*)").ValueOrDie();
  PlannedQuery planned = PlanQuery(g, view.stats(), q).ValueOrDie();
  QueryResult r =
      ExecutePlan(g, view, planned.plan, planned.params, 1024).ValueOrDie();
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(r.rows[0][0]), 0);
}

TEST(Planner, ReversedVarLengthIsNotDrivenBackward) {
  // Var-length edges are forward-only: when only the destination is bound,
  // the planner must not emit a backward VarExpand (BFS direction is not
  // symmetric over the hop window). It may scan + pair-check instead; the
  // differential corpus pins the results, here we pin the plan shape.
  PropertyGraph g = SampleGraph();
  LabelCsrView view = LabelCsrView::Build(g);
  CypherQuery q =
      ParseCypher("MATCH (a)-[:knows*1..3]->(b:Product {name: 'phone'}) "
                  "RETURN a.name")
          .ValueOrDie();
  PlannedQuery planned = PlanQuery(g, view.stats(), q).ValueOrDie();
  for (const PlanStep& step : planned.plan.steps) {
    if (step.kind != PlanStep::Kind::kVarExpand) continue;
    // Any VarExpand present must drive from the pattern's `from` side.
    EXPECT_EQ(planned.plan.slot_names[step.from_slot], "a");
  }
}

// ---------------------------------------------------------------------------
// Normalizer unit tests

TEST(NormalizeCypher, LiteralsBecomeParams) {
  NormalizedQuery a =
      NormalizeCypher("MATCH (p:Person {name: 'alice'}) WHERE p.age > 30 "
                      "RETURN p.name LIMIT 5")
          .ValueOrDie();
  NormalizedQuery b =
      NormalizeCypher("MATCH (p:Person {name: 'bob'}) WHERE p.age > 99 "
                      "RETURN p.name LIMIT 2")
          .ValueOrDie();
  EXPECT_EQ(a.key, b.key);
  ASSERT_EQ(a.params.size(), 3u);
  EXPECT_EQ(std::get<std::string>(a.params[0]), "alice");
  EXPECT_EQ(std::get<int64_t>(a.params[1]), 30);
  EXPECT_EQ(std::get<int64_t>(a.params[2]), 5);
  EXPECT_EQ(std::get<std::string>(b.params[0]), "bob");
}

TEST(NormalizeCypher, HopBoundsStayInKey) {
  NormalizedQuery a =
      NormalizeCypher("MATCH (a)-[:k*1..2]->(b) RETURN b").ValueOrDie();
  NormalizedQuery b =
      NormalizeCypher("MATCH (a)-[:k*1..3]->(b) RETURN b").ValueOrDie();
  EXPECT_NE(a.key, b.key);
  EXPECT_TRUE(a.params.empty());
}

TEST(NormalizeCypher, BooleansParameterizedOnlyInLiteralPositions) {
  // Literal positions: property-map value, comparator operand.
  NormalizedQuery lit =
      NormalizeCypher("MATCH (p {active: true}) WHERE p.flag = false RETURN p")
          .ValueOrDie();
  ASSERT_EQ(lit.params.size(), 2u);
  EXPECT_EQ(std::get<bool>(lit.params[0]), true);
  EXPECT_EQ(std::get<bool>(lit.params[1]), false);
  // Identifier positions: `true` as a variable/label stays in the key.
  NormalizedQuery ident =
      NormalizeCypher("MATCH (true:Person) RETURN true").ValueOrDie();
  EXPECT_TRUE(ident.params.empty());
  EXPECT_NE(ident.key.find("true"), std::string::npos);
}

TEST(NormalizeCypher, IdentifiersAreCaseSensitiveKeywordsAreNot) {
  // Keyword case differences produce different keys (no folding — correct
  // over clever), so they simply cache as separate shapes.
  NormalizedQuery upper = NormalizeCypher("MATCH (n) RETURN n").ValueOrDie();
  NormalizedQuery lower = NormalizeCypher("match (n) return n").ValueOrDie();
  EXPECT_NE(upper.key, lower.key);
  // Variable case differences MUST key separately.
  NormalizedQuery var_upper = NormalizeCypher("MATCH (N) RETURN N").ValueOrDie();
  EXPECT_NE(upper.key, var_upper.key);
}

TEST(NormalizeCypher, WhitespaceInsensitive) {
  NormalizedQuery a =
      NormalizeCypher("MATCH (p:Person) RETURN p.name").ValueOrDie();
  NormalizedQuery b =
      NormalizeCypher("  MATCH   (p:Person)\n\tRETURN p.name  ").ValueOrDie();
  EXPECT_EQ(a.key, b.key);
}

// ---------------------------------------------------------------------------
// QueryEngine: plan cache, rebinding, invalidation

std::vector<std::string> Names(const QueryResult& r) {
  std::vector<std::string> out;
  for (const auto& row : r.rows) out.push_back(std::get<std::string>(row[0]));
  return out;
}

TEST(QueryEngine, CacheHitRebindsParameters) {
  PropertyGraph g = SampleGraph();
  QueryEngine engine(g);
  QueryResult r1 =
      engine
          .Run("MATCH (p:Person {name: 'alice'})-[:knows]->(q) RETURN q.name")
          .ValueOrDie();
  EXPECT_EQ(Names(r1), std::vector<std::string>{"bob"});
  EXPECT_EQ(engine.stats().cache_misses, 1u);
  EXPECT_EQ(engine.stats().cache_hits, 0u);
  // Same shape, different literal: must hit and return the OTHER answer.
  QueryResult r2 =
      engine.Run("MATCH (p:Person {name: 'bob'})-[:knows]->(q) RETURN q.name")
          .ValueOrDie();
  EXPECT_EQ(Names(r2), std::vector<std::string>{"carol"});
  EXPECT_EQ(engine.stats().cache_hits, 1u);
  EXPECT_EQ(engine.cache_size(), 1u);
}

TEST(QueryEngine, CacheHitDoesZeroParseAndPlanWork) {
  PropertyGraph g = SampleGraph();
  QueryEngine engine(g);
  engine.Run("MATCH (p:Person) WHERE p.age > 30 RETURN p.name LIMIT 2")
      .ValueOrDie();
  const int64_t parses = obs::CounterValue("query.plan.parses");
  const int64_t plans = obs::CounterValue("query.plan.plans");
  const int64_t hits = obs::CounterValue("query.plan.cache_hits");
  // Different literals, same shape: the hit path must not parse or plan.
  engine.Run("MATCH (p:Person) WHERE p.age > 28 RETURN p.name LIMIT 1")
      .ValueOrDie();
  EXPECT_EQ(obs::CounterValue("query.plan.parses"), parses);
  EXPECT_EQ(obs::CounterValue("query.plan.plans"), plans);
  EXPECT_EQ(obs::CounterValue("query.plan.cache_hits"), hits + 1);
}

TEST(QueryEngine, LimitRebindsThroughCache) {
  PropertyGraph g = SampleGraph();
  QueryEngine engine(g);
  QueryResult r1 =
      engine.Run("MATCH (p:Person) RETURN p.name ORDER BY p.name LIMIT 1")
          .ValueOrDie();
  QueryResult r2 =
      engine.Run("MATCH (p:Person) RETURN p.name ORDER BY p.name LIMIT 3")
          .ValueOrDie();
  EXPECT_EQ(engine.stats().cache_hits, 1u);
  EXPECT_EQ(r1.rows.size(), 1u);
  EXPECT_EQ(r2.rows.size(), 3u);
}

TEST(QueryEngine, MatchesOneShotExecutionOnCorpus) {
  PropertyGraph g = SampleGraph();
  QueryEngine engine(g);
  for (const char* text : kCorpus) {
    Result<QueryResult> direct = RunCypher(g, text);
    Result<QueryResult> cached = engine.Run(text);
    ASSERT_EQ(direct.ok(), cached.ok()) << text;
    if (!direct.ok()) continue;
    EXPECT_EQ(direct->rows, cached->rows) << text;
  }
  // Second pass: everything cacheable now hits, results unchanged.
  const uint64_t misses = engine.stats().cache_misses;
  for (const char* text : kCorpus) {
    Result<QueryResult> direct = RunCypher(g, text);
    Result<QueryResult> cached = engine.Run(text);
    ASSERT_EQ(direct.ok(), cached.ok()) << text;
    if (!direct.ok()) continue;
    EXPECT_EQ(direct->rows, cached->rows) << text;
  }
  EXPECT_EQ(engine.stats().cache_misses, misses);
  EXPECT_GT(engine.stats().cache_hits, 0u);
}

TEST(QueryEngine, AddEdgeInvalidatesStalePlan) {
  PropertyGraph g = SampleGraph();
  QueryEngine engine(g);
  const std::string q =
      "MATCH (a:Person {name: 'carol'})-[:knows]->(b) RETURN b.name";
  EXPECT_TRUE(engine.Run(q).ValueOrDie().rows.empty());
  // Mutate: carol now knows alice. A stale plan (or stale CSR view) would
  // keep returning zero rows.
  g.AddEdge(2, 0, "knows").ValueOrDie();
  EXPECT_EQ(Names(engine.Run(q).ValueOrDie()),
            std::vector<std::string>{"alice"});
  EXPECT_EQ(engine.stats().stats_rebuilds, 2u);
  EXPECT_EQ(engine.stats().cache_hits, 0u);  // cache was dropped
}

TEST(QueryEngine, SetPropertyInvalidatesStalePlan) {
  PropertyGraph g = SampleGraph();
  QueryEngine engine(g);
  const std::string q = "MATCH (p:Person) WHERE p.age > 40 RETURN p.name";
  EXPECT_EQ(Names(engine.Run(q).ValueOrDie()),
            std::vector<std::string>{"carol"});
  g.SetVertexProperty(1, "age", static_cast<int64_t>(50)).Abort();
  QueryResult r = engine.Run(q).ValueOrDie();
  EXPECT_EQ(Names(r), (std::vector<std::string>{"bob", "carol"}));
}

TEST(QueryEngine, NewLabelAfterCachedPlanIsPickedUp) {
  // A plan compiled while "Ghost" was unknown resolves the label to the
  // no-match sentinel. Once a Ghost vertex exists the old plan would be
  // wrong — invalidation must recompile, not rebind.
  PropertyGraph g = SampleGraph();
  QueryEngine engine(g);
  const std::string q = "MATCH (p:Ghost) RETURN count(*)";
  EXPECT_EQ(std::get<int64_t>(engine.Run(q).ValueOrDie().rows[0][0]), 0);
  g.AddVertex("Ghost");
  EXPECT_EQ(std::get<int64_t>(engine.Run(q).ValueOrDie().rows[0][0]), 1);
}

TEST(QueryEngine, InterpreterModePassesThrough) {
  PropertyGraph g = SampleGraph();
  QueryEngine engine(g, {.vectorized = false});
  QueryResult r =
      engine.Run("MATCH (p:Person) RETURN p.name ORDER BY p.name").ValueOrDie();
  EXPECT_EQ(Names(r), (std::vector<std::string>{"alice", "bob", "carol"}));
  // No caching in interpreter mode.
  engine.Run("MATCH (p:Person) RETURN p.name ORDER BY p.name").ValueOrDie();
  EXPECT_EQ(engine.stats().cache_hits, 0u);
  EXPECT_EQ(engine.cache_size(), 0u);
}

TEST(QueryEngine, ErrorsMatchRunCypher) {
  PropertyGraph g = SampleGraph();
  QueryEngine engine(g);
  for (const char* text :
       {"MATCH", "MATCH (p RETURN p", "MATCH (p) RETURN q",
        "MATCH (p) WHERE z.x > 1 RETURN p", "RETURN 1", ""}) {
    Result<QueryResult> direct = RunCypher(g, text);
    Result<QueryResult> cached = engine.Run(text);
    ASSERT_FALSE(direct.ok()) << text;
    ASSERT_FALSE(cached.ok()) << text;
    EXPECT_EQ(direct.status().message(), cached.status().message()) << text;
  }
}

TEST(QueryEngine, CacheIsBounded) {
  PropertyGraph g = SampleGraph();
  QueryEngine engine(g);
  for (size_t i = 0; i < QueryEngine::kMaxCachedPlans + 10; ++i) {
    // Distinct shapes: variable names stay in the key.
    std::string q =
        "MATCH (v" + std::to_string(i) + ":Person) RETURN count(*)";
    ASSERT_TRUE(engine.Run(q).ok()) << q;
  }
  EXPECT_LE(engine.cache_size(), QueryEngine::kMaxCachedPlans);
}

// ---------------------------------------------------------------------------
// LabelCsrView statistics

TEST(LabelCsr, StatsCountLabelsAndDegrees) {
  PropertyGraph g = SampleGraph();
  LabelCsrView view = LabelCsrView::Build(g);
  const LabelCsrView::Stats& s = view.stats();
  auto person = g.labels().Lookup("Person");
  auto product = g.labels().Lookup("Product");
  auto knows = g.labels().Lookup("knows");
  ASSERT_TRUE(person && product && knows);
  EXPECT_EQ(s.LabelCount(*person), 3u);
  EXPECT_EQ(s.LabelCount(*product), 2u);
  EXPECT_EQ(s.LabelCount(LabelCsrView::kAnyLabel), 5u);
  // alice->bob, bob->carol: 2 knows arcs leaving 3 Persons.
  EXPECT_NEAR(s.AvgDegree(*person, *knows, /*out=*/true), 2.0 / 3.0, 1e-9);
  EXPECT_EQ(s.AvgDegree(*product, *knows, /*out=*/true), 0.0);
  EXPECT_EQ(s.LabelCount(kNoSuchId), 0u);
}

TEST(LabelCsr, ParallelEdgesDeduplicated) {
  PropertyGraph g;
  VertexId a = g.AddVertex("A");
  VertexId b = g.AddVertex("A");
  g.AddEdge(a, b, "e").ValueOrDie();
  g.AddEdge(a, b, "e").ValueOrDie();  // parallel duplicate
  g.AddEdge(a, b, "e").ValueOrDie();
  LabelCsrView view = LabelCsrView::Build(g);
  auto e = g.labels().Lookup("e");
  ASSERT_TRUE(e);
  EXPECT_EQ(view.OutNeighbors(a, *e).size(), 1u);
  EXPECT_EQ(view.InNeighbors(b, *e).size(), 1u);
  // Distinct neighbor tuples, so the homomorphism count is 1 either way.
  QueryResult r = RunCypher(g, "MATCH (x)-[:e]->(y) RETURN count(*)",
                            {.vectorized = true})
                      .ValueOrDie();
  QueryResult ri = RunCypher(g, "MATCH (x)-[:e]->(y) RETURN count(*)",
                             {.vectorized = false})
                       .ValueOrDie();
  EXPECT_EQ(r.rows, ri.rows);
}

}  // namespace
}  // namespace ubigraph::query
