#include <gtest/gtest.h>

#include <algorithm>

#include "rdf/ntriples.h"
#include "rdf/triple_store.h"

namespace ubigraph::rdf {
namespace {

TripleStore FamilyStore() {
  TripleStore store;
  store.Add("alice", "knows", "bob");
  store.Add("bob", "knows", "carol");
  store.Add("alice", "knows", "carol");
  store.Add("alice", "age", "\"34\"");
  store.Add("bob", "age", "\"29\"");
  store.Add("carol", "worksAt", "acme");
  return store;
}

TEST(TripleStoreTest, AddAndContains) {
  TripleStore store;
  EXPECT_TRUE(store.Add("s", "p", "o"));
  EXPECT_FALSE(store.Add("s", "p", "o"));  // duplicate
  EXPECT_EQ(store.num_triples(), 1u);
  EXPECT_TRUE(store.Contains("s", "p", "o"));
  EXPECT_FALSE(store.Contains("s", "p", "x"));
}

TEST(TripleStoreTest, RemoveTriple) {
  TripleStore store = FamilyStore();
  EXPECT_TRUE(store.Remove("alice", "knows", "bob"));
  EXPECT_FALSE(store.Remove("alice", "knows", "bob"));
  EXPECT_FALSE(store.Contains("alice", "knows", "bob"));
  EXPECT_EQ(store.num_triples(), 5u);
  // Other triples untouched.
  EXPECT_TRUE(store.Contains("bob", "knows", "carol"));
}

TEST(TripleStoreTest, MatchBySubject) {
  TripleStore store = FamilyStore();
  TriplePattern p;
  p.subject = *store.Lookup("alice");
  auto results = store.Match(p);
  EXPECT_EQ(results.size(), 3u);
  for (const Triple& t : results) EXPECT_EQ(t.subject, p.subject);
}

TEST(TripleStoreTest, MatchByPredicateAndObject) {
  TripleStore store = FamilyStore();
  TriplePattern by_pred;
  by_pred.predicate = *store.Lookup("knows");
  EXPECT_EQ(store.Match(by_pred).size(), 3u);

  TriplePattern by_obj;
  by_obj.object = *store.Lookup("carol");
  EXPECT_EQ(store.Match(by_obj).size(), 2u);

  TriplePattern sp;
  sp.subject = *store.Lookup("alice");
  sp.predicate = *store.Lookup("knows");
  EXPECT_EQ(store.Match(sp).size(), 2u);
}

TEST(TripleStoreTest, FullScanReturnsAll) {
  TripleStore store = FamilyStore();
  EXPECT_EQ(store.Match(TriplePattern{}).size(), store.num_triples());
}

TEST(TripleStoreTest, DistinctPredicates) {
  TripleStore store = FamilyStore();
  auto preds = store.DistinctPredicates();
  EXPECT_EQ(preds.size(), 3u);  // knows, age, worksAt
}

TEST(TripleStoreQueryTest, SingleVariable) {
  TripleStore store = FamilyStore();
  std::vector<std::string> vars;
  auto rows =
      store.Query({{"alice", "knows", "?who"}}, &vars).ValueOrDie();
  ASSERT_EQ(vars.size(), 1u);
  EXPECT_EQ(vars[0], "?who");
  EXPECT_EQ(rows.size(), 2u);
}

TEST(TripleStoreQueryTest, JoinTwoPatterns) {
  TripleStore store = FamilyStore();
  std::vector<std::string> vars;
  // Friend-of-friend: alice knows ?x, ?x knows ?y.
  auto rows = store.Query({{"alice", "knows", "?x"}, {"?x", "knows", "?y"}}, &vars)
                  .ValueOrDie();
  ASSERT_EQ(rows.size(), 1u);  // only bob knows someone (carol)
  EXPECT_EQ(store.TermName(rows[0][0]), "bob");
  EXPECT_EQ(store.TermName(rows[0][1]), "carol");
}

TEST(TripleStoreQueryTest, RepeatedVariableMustUnify) {
  TripleStore store;
  store.Add("a", "likes", "a");
  store.Add("a", "likes", "b");
  std::vector<std::string> vars;
  // ?x likes ?x: only the self-loop.
  auto rows = store.Query({{"?x", "likes", "?x"}}, &vars).ValueOrDie();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(store.TermName(rows[0][0]), "a");
}

TEST(TripleStoreQueryTest, UnknownConstantYieldsEmpty) {
  TripleStore store = FamilyStore();
  std::vector<std::string> vars;
  auto rows = store.Query({{"zeus", "knows", "?x"}}, &vars).ValueOrDie();
  EXPECT_TRUE(rows.empty());
}

TEST(TripleStoreQueryTest, EmptyPatternRejected) {
  TripleStore store = FamilyStore();
  EXPECT_FALSE(store.Query({}, nullptr).ok());
}

TEST(TripleStoreQueryTest, TriangleJoin) {
  TripleStore store;
  store.Add("a", "e", "b");
  store.Add("b", "e", "c");
  store.Add("c", "e", "a");
  store.Add("a", "e", "c");  // extra chord
  std::vector<std::string> vars;
  auto rows = store.Query(
      {{"?x", "e", "?y"}, {"?y", "e", "?z"}, {"?z", "e", "?x"}}, &vars);
  ASSERT_TRUE(rows.ok());
  // Directed triangles: (a,b,c), (b,c,a), (c,a,b) -> 3 solutions.
  EXPECT_EQ(rows->size(), 3u);
}

TEST(NTriplesTest, RoundTrip) {
  TripleStore store = FamilyStore();
  std::string text = WriteNTriples(store);
  TripleStore parsed;
  auto added = ParseNTriples(text, &parsed);
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, store.num_triples());
  EXPECT_TRUE(parsed.Contains("alice", "knows", "bob"));
  EXPECT_TRUE(parsed.Contains("alice", "age", "\"34\""));
}

TEST(NTriplesTest, ParsesIrisAndLiterals) {
  TripleStore store;
  auto n = ParseNTriples(
      "<http://ex.org/a> <http://ex.org/p> \"hello world\" .\n"
      "# comment\n"
      "<http://ex.org/a> <http://ex.org/q> <http://ex.org/b> .\n",
      &store);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2u);
  EXPECT_TRUE(store.Contains("http://ex.org/a", "http://ex.org/p",
                             "\"hello world\""));
}

TEST(NTriplesTest, LiteralEscapesAndDatatype) {
  TripleStore store;
  auto n = ParseNTriples(
      "<s> <p> \"line\\nbreak\"^^<http://www.w3.org/2001/XMLSchema#string> .\n",
      &store);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(store.num_triples(), 1u);
  EXPECT_TRUE(store.Contains("s", "p", "\"line\nbreak\""));
}

TEST(NTriplesTest, MalformedRejected) {
  TripleStore store;
  EXPECT_FALSE(ParseNTriples("<s> <p> .\n", &store).ok());      // missing term
  EXPECT_FALSE(ParseNTriples("<s> <p> <o>\n", &store).ok());    // missing dot
  EXPECT_FALSE(ParseNTriples("<s <p> <o> .\n", &store).ok());   // bad IRI
  EXPECT_FALSE(ParseNTriples("<s> <p> \"x .\n", &store).ok());  // bad literal
  EXPECT_FALSE(ParseNTriples("x", nullptr).ok());
}

TEST(NTriplesTest, DuplicatesNotDoubleCounted) {
  TripleStore store;
  auto n = ParseNTriples("<s> <p> <o> .\n<s> <p> <o> .\n", &store);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  EXPECT_EQ(store.num_triples(), 1u);
}

TEST(TripleStoreScaleTest, ManyTriplesIndexedConsistently) {
  TripleStore store;
  for (int i = 0; i < 500; ++i) {
    std::string s = "s", p = "p", o = "o";
    s += std::to_string(i % 50);
    p += std::to_string(i % 5);
    o += std::to_string(i);
    store.Add(s, p, o);
  }
  EXPECT_EQ(store.num_triples(), 500u);
  TriplePattern p;
  p.predicate = *store.Lookup("p0");
  EXPECT_EQ(store.Match(p).size(), 100u);
  TriplePattern s;
  s.subject = *store.Lookup("s7");
  EXPECT_EQ(store.Match(s).size(), 10u);
}

}  // namespace
}  // namespace ubigraph::rdf
