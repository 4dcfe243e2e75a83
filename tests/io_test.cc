#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "common/random.h"
#include "gen/generators.h"
#include "io/binary_io.h"
#include "io/csv_io.h"
#include "io/edge_list_io.h"
#include "io/gml_io.h"
#include "io/graphml_io.h"
#include "io/json_io.h"
#include "io/mmio.h"

#include "graph/csr_graph.h"

namespace ubigraph::io {
namespace {

EdgeList SampleEdges() {
  EdgeList el(5);
  el.Add(0, 1, 2.5);
  el.Add(1, 2);
  el.Add(4, 0, -1.25);
  return el;
}

void ExpectSameEdges(const EdgeList& a, const EdgeList& b) {
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EdgeList sa = a, sb = b;
  sa.Sort();
  sb.Sort();
  for (size_t i = 0; i < sa.edges().size(); ++i) {
    EXPECT_EQ(sa.edges()[i].src, sb.edges()[i].src);
    EXPECT_EQ(sa.edges()[i].dst, sb.edges()[i].dst);
    EXPECT_DOUBLE_EQ(sa.edges()[i].weight, sb.edges()[i].weight);
  }
}

// ------------------------------------------------------------ edge list ---

TEST(EdgeListIoTest, RoundTrip) {
  EdgeList el = SampleEdges();
  auto parsed = ParseEdgeListText(WriteEdgeListText(el));
  ASSERT_TRUE(parsed.ok());
  ExpectSameEdges(el, *parsed);
}

TEST(EdgeListIoTest, CommentsAndBlanksIgnored) {
  auto parsed = ParseEdgeListText("# header\n\n0 1\n   \n2 3 4.5\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_edges(), 2u);
  EXPECT_DOUBLE_EQ(parsed->edges()[1].weight, 4.5);
}

TEST(EdgeListIoTest, MalformedLinesRejected) {
  EXPECT_FALSE(ParseEdgeListText("0\n").ok());
  EXPECT_FALSE(ParseEdgeListText("0 1 2 3\n").ok());
  EXPECT_FALSE(ParseEdgeListText("a b\n").ok());
  EXPECT_FALSE(ParseEdgeListText("-1 2\n").ok());
  EXPECT_FALSE(ParseEdgeListText("0 1 notaweight\n").ok());
}

TEST(EdgeListIoTest, ReservedVertexIdRejected) {
  // 4294967295 is kInvalidVertex; accepting it wrapped num_vertices to 0.
  std::string path = std::filesystem::temp_directory_path() /
                     ("ug_el_reserved_" + std::to_string(::getpid()));
  ASSERT_TRUE(WriteStringToFile("0 1\n4294967295 0\n", path).ok());
  auto read = ReadEdgeListFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(read.status().IsParseError());
  EXPECT_EQ(read.status().message(), "line 2: invalid vertex id");
  EXPECT_TRUE(ParseEdgeListText("0 4294967295\n").status().IsParseError());
  auto largest = ParseEdgeListText("4294967294 0\n");
  ASSERT_TRUE(largest.ok());
  EXPECT_EQ(largest->num_vertices(), 4294967295u);
}

TEST(EdgeListIoTest, FileRoundTrip) {
  std::string path = std::filesystem::temp_directory_path() / "ug_el_test.txt";
  EdgeList el = SampleEdges();
  ASSERT_TRUE(WriteEdgeListFile(el, path).ok());
  auto back = ReadEdgeListFile(path);
  ASSERT_TRUE(back.ok());
  ExpectSameEdges(el, *back);
  std::remove(path.c_str());
}

TEST(EdgeListIoTest, MissingFileIsIOError) {
  EXPECT_TRUE(ReadEdgeListFile("/nonexistent/nope.txt").status().IsIOError());
}

// ------------------------------------------------------- ReadFileToString ---

std::string TempPath(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         ("ug_read_" + name + "_" + std::to_string(::getpid()));
}

Result<std::string> WriteAndReadBack(const std::string& content,
                                     const std::string& name) {
  const std::string path = TempPath(name);
  Status written = WriteStringToFile(content, path);
  if (!written.ok()) return written;
  Result<std::string> back = ReadFileToString(path);
  std::remove(path.c_str());
  return back;
}

TEST(ReadFileToStringTest, EmptyFileGivesEmptyString) {
  auto back = WriteAndReadBack("", "empty");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->empty());
}

TEST(ReadFileToStringTest, NulBytesRoundTrip) {
  const std::string content("\0a\0\0b\n\0", 7);
  auto back = WriteAndReadBack(content, "nul");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, content);
}

TEST(ReadFileToStringTest, MultiMegabyteFileRoundTrips) {
  // Every byte value, at a size that is no multiple of any read chunk.
  Rng rng(17);
  std::string content((5 << 20) + 4099, '\0');
  for (char& c : content) c = static_cast<char>(rng.NextBounded(256));
  auto back = WriteAndReadBack(content, "big");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == content);
}

TEST(ReadFileToStringTest, DirectoryAndMissingPathAreIOErrors) {
  auto dir = ReadFileToString(std::filesystem::temp_directory_path().string());
  EXPECT_TRUE(dir.status().IsIOError()) << dir.status().ToString();
  auto missing = ReadFileToString("/nonexistent/nope.txt");
  EXPECT_TRUE(missing.status().IsIOError()) << missing.status().ToString();
}

TEST(ReadFileToStringTest, UnsizedFileIsReadToTheEnd) {
  // procfs files report st_size 0, so they take the streaming path.
  if (!std::filesystem::exists("/proc/self/status")) GTEST_SKIP();
  auto back = ReadFileToString("/proc/self/status");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->rfind("Name:", 0), 0u);
  EXPECT_NE(back->find("\nVmRSS:"), std::string::npos);
}

// ------------------------------------------------------------------- CSV ---

TEST(CsvIoTest, RoundTrip) {
  EdgeList el = SampleEdges();
  auto parsed = ParseCsvEdges(WriteCsvEdges(el));
  ASSERT_TRUE(parsed.ok());
  ExpectSameEdges(el, *parsed);
}

TEST(CsvIoTest, QuotedFieldsAndCrLf) {
  auto parsed = ParseCsvEdges("source,target,weight\r\n\"0\",1,2.0\r\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_edges(), 1u);
  EXPECT_DOUBLE_EQ(parsed->edges()[0].weight, 2.0);
}

TEST(CsvIoTest, CustomColumnNamesAndSeparator) {
  CsvOptions opts;
  opts.source_column = "from";
  opts.target_column = "to";
  opts.separator = ';';
  auto parsed = ParseCsvEdges("from;to\n3;4\n", opts);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->edges()[0].src, 3u);
}

TEST(CsvIoTest, MissingColumnsRejected) {
  EXPECT_FALSE(ParseCsvEdges("a,b\n1,2\n").ok());
  EXPECT_FALSE(ParseCsvEdges("").ok());
}

TEST(CsvIoTest, ReservedVertexIdRejected) {
  EXPECT_TRUE(ParseCsvEdges("source,target\n4294967295,0\n").status().IsParseError());
  EXPECT_TRUE(ParseCsvEdges("source,target\n4294967294,0\n").ok());
}

TEST(CsvIoTest, MissingWeightDefaultsToOne) {
  auto parsed = ParseCsvEdges("source,target\n0,1\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->edges()[0].weight, 1.0);
}

TEST(CsvRecordTest, QuoteHandling) {
  auto fields = SplitCsvRecord("a,\"b,c\",\"d\"\"e\"", ',').ValueOrDie();
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "b,c");
  EXPECT_EQ(fields[2], "d\"e");
  EXPECT_FALSE(SplitCsvRecord("\"unterminated", ',').ok());
}

// --------------------------------------------------------------- GraphML ---

TEST(GraphMlTest, RoundTrip) {
  EdgeList el = SampleEdges();
  auto parsed = ParseGraphMl(WriteGraphMl(el, /*directed=*/true));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->directed);
  ExpectSameEdges(el, parsed->edges);
}

TEST(GraphMlTest, UndirectedFlagParsed) {
  auto parsed = ParseGraphMl(WriteGraphMl(SampleEdges(), /*directed=*/false));
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->directed);
}

TEST(GraphMlTest, ForeignDocumentWithStringIds) {
  const char* doc = R"(<?xml version="1.0"?>
<graphml><graph edgedefault="directed">
  <node id="alice"/><node id="bob"/>
  <edge source="alice" target="bob"/>
  <edge source="bob" target="alice"/>
</graph></graphml>)";
  auto parsed = ParseGraphMl(doc);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->edges.num_vertices(), 2u);
  EXPECT_EQ(parsed->edges.num_edges(), 2u);
}

TEST(GraphMlTest, MalformedRejected) {
  EXPECT_FALSE(ParseGraphMl("<graphml></graphml>").ok());  // no <graph>
  EXPECT_FALSE(
      ParseGraphMl("<graphml><graph><node/></graph></graphml>").ok());
  EXPECT_FALSE(
      ParseGraphMl("<graphml><graph><edge source=\"a\"/></graph></graphml>")
          .ok());
}

// ------------------------------------------------------------------- GML ---

TEST(GmlTest, RoundTrip) {
  EdgeList el = SampleEdges();
  auto parsed = ParseGml(WriteGml(el, /*directed=*/true));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->directed);
  ExpectSameEdges(el, parsed->edges);
}

TEST(GmlTest, HandlesCommentsLabelsAndNesting) {
  const char* doc = R"(
# a comment
graph [
  directed 0
  node [ id 10 label "ten" graphics [ x 1 y 2 ] ]
  node [ id 20 ]
  edge [ source 10 target 20 value 3.5 ]
]
)";
  auto parsed = ParseGml(doc);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->directed);
  EXPECT_EQ(parsed->edges.num_vertices(), 2u);
  ASSERT_EQ(parsed->edges.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(parsed->edges.edges()[0].weight, 3.5);
}

TEST(GmlTest, MalformedRejected) {
  EXPECT_FALSE(ParseGml("nothing here").ok());
  EXPECT_FALSE(ParseGml("graph [ node [ ] ]").ok());            // node sans id
  EXPECT_FALSE(ParseGml("graph [ edge [ source 1 ] ]").ok());   // no target
  EXPECT_FALSE(ParseGml("graph [ node [ id 1 ]").ok());         // unterminated
}

// ------------------------------------------------------------------ JSON ---

TEST(JsonIoTest, RoundTrip) {
  EdgeList el = SampleEdges();
  auto parsed = ParseJsonGraph(WriteJsonGraph(el, /*directed=*/true));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->directed);
  ExpectSameEdges(el, parsed->edges);
}

TEST(JsonIoTest, NodeLinkWithStringIds) {
  const char* doc = R"({
    "directed": false,
    "nodes": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
    "links": [{"source": "a", "target": "c", "weight": 2}]
  })";
  auto parsed = ParseJsonGraph(doc);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->directed);
  EXPECT_EQ(parsed->edges.num_vertices(), 3u);
  EXPECT_DOUBLE_EQ(parsed->edges.edges()[0].weight, 2.0);
}

TEST(JsonIoTest, AcceptsEdgesKeyAlias) {
  const char* doc =
      R"({"nodes": [{"id": 0}, {"id": 1}], "edges": [{"source": 0, "target": 1}]})";
  auto parsed = ParseJsonGraph(doc);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->edges.num_edges(), 1u);
}

TEST(JsonIoTest, MalformedRejected) {
  EXPECT_FALSE(ParseJsonGraph("[1,2]").ok());  // not an object
  EXPECT_FALSE(ParseJsonGraph("{").ok());
  EXPECT_FALSE(ParseJsonGraph(R"({"links": [{"source": 0}]})").ok());
  EXPECT_FALSE(ParseJsonGraph(R"({"nodes": [{"noid": 1}]})").ok());
}

TEST(JsonIoTest, EscapesInStrings) {
  const char* doc =
      R"({"nodes": [{"id": "a\nb"}, {"id": "c"}], "links": [{"source": "a\nb", "target": "c"}]})";
  auto parsed = ParseJsonGraph(doc);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->edges.num_edges(), 1u);
}

// ---------------------------------------------------------------- binary ---

TEST(BinaryIoTest, RoundTripWeighted) {
  EdgeList el = SampleEdges();
  auto parsed = ParseBinaryGraph(WriteBinaryGraph(el));
  ASSERT_TRUE(parsed.ok());
  ExpectSameEdges(el, *parsed);
}

TEST(BinaryIoTest, UnitWeightsElided) {
  EdgeList el(3);
  el.Add(0, 1);
  el.Add(1, 2);
  std::string weighted = WriteBinaryGraph(SampleEdges());
  std::string unit = WriteBinaryGraph(el);
  // Two-edge unit-weight file must be much smaller than 3-edge weighted one.
  EXPECT_LT(unit.size(), weighted.size());
  auto parsed = ParseBinaryGraph(unit);
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->edges()[0].weight, 1.0);
}

TEST(BinaryIoTest, CorruptionDetected) {
  std::string data = WriteBinaryGraph(SampleEdges());
  data[data.size() / 2] ^= 0xFF;
  auto parsed = ParseBinaryGraph(data);
  EXPECT_TRUE(parsed.status().IsCorruption());
}

TEST(BinaryIoTest, BadMagicAndTruncation) {
  std::string data = WriteBinaryGraph(SampleEdges());
  std::string bad_magic = data;
  bad_magic[0] = 'X';
  EXPECT_TRUE(ParseBinaryGraph(bad_magic).status().IsCorruption());
  EXPECT_TRUE(ParseBinaryGraph("short").status().IsCorruption());
  std::string truncated = data.substr(0, data.size() - 9);
  EXPECT_FALSE(ParseBinaryGraph(truncated).ok());
}

TEST(BinaryIoTest, FileRoundTrip) {
  std::string path = std::filesystem::temp_directory_path() / "ug_bin_test.ubgf";
  EdgeList el = SampleEdges();
  ASSERT_TRUE(WriteBinaryFile(el, path).ok());
  auto back = ReadBinaryFile(path);
  ASSERT_TRUE(back.ok());
  ExpectSameEdges(el, *back);
  std::remove(path.c_str());
}

// ------------------------------------------------- MatrixMarket / TSV ---

TEST(MmioTest, GoldenFileParses) {
  // Golden document covering the supported grammar in one file: banner,
  // '%' comments interleaved everywhere, and integer values.
  const char* golden =
      "%%MatrixMarket matrix coordinate integer general\n"
      "% GraphChallenge-style adjacency\n"
      "\n"
      "% size follows\n"
      "4 4 3\n"
      "1 2 1\n"
      "% mid-data comment\n"
      "2 3 5\n"
      "4 1 2\n";
  auto el = ParseMatrixMarket(golden).ValueOrDie();
  EXPECT_EQ(el.num_vertices(), 4u);
  ASSERT_EQ(el.num_edges(), 3u);
  EXPECT_EQ(el.edges()[0].src, 0u);
  EXPECT_EQ(el.edges()[0].dst, 1u);
  EXPECT_DOUBLE_EQ(el.edges()[1].weight, 5.0);
  EXPECT_EQ(el.edges()[2].src, 3u);
  EXPECT_EQ(el.edges()[2].dst, 0u);
}

TEST(MmioTest, RoundTrip) {
  EdgeList el = SampleEdges();
  ExpectSameEdges(el, ParseMatrixMarket(WriteMatrixMarket(el)).ValueOrDie());
}

TEST(MmioTest, PatternRoundTripDropsWeights) {
  EdgeList el = SampleEdges();
  auto parsed = ParseMatrixMarket(WriteMatrixMarket(el, /*pattern=*/true))
                    .ValueOrDie();
  ASSERT_EQ(parsed.num_edges(), el.num_edges());
  for (const Edge& e : parsed.edges()) EXPECT_DOUBLE_EQ(e.weight, 1.0);
}

TEST(MmioTest, SymmetricMirrorsOffDiagonal) {
  const char* doc =
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n"
      "2 1 1.5\n"
      "3 3 2.0\n";
  auto el = ParseMatrixMarket(doc).ValueOrDie();
  // Off-diagonal entry mirrored, diagonal (self-loop) stored once.
  ASSERT_EQ(el.num_edges(), 3u);
  EXPECT_EQ(el.edges()[0].src, 1u);
  EXPECT_EQ(el.edges()[0].dst, 0u);
  EXPECT_EQ(el.edges()[1].src, 0u);
  EXPECT_EQ(el.edges()[1].dst, 1u);
  EXPECT_EQ(el.edges()[2].src, el.edges()[2].dst);
}

TEST(MmioTest, RectangularBecomesBipartite) {
  const char* doc =
      "%%MatrixMarket matrix coordinate real general\n"
      "2 3 2\n"
      "1 1 1.0\n"
      "2 3 1.0\n";
  auto el = ParseMatrixMarket(doc).ValueOrDie();
  EXPECT_EQ(el.num_vertices(), 5u);  // 2 row vertices + 3 column vertices
  ASSERT_EQ(el.num_edges(), 2u);
  EXPECT_EQ(el.edges()[0].dst, 2u);  // column 1 -> vertex rows + 0
  EXPECT_EQ(el.edges()[1].src, 1u);
  EXPECT_EQ(el.edges()[1].dst, 4u);
}

TEST(MmioTest, HostileDocumentsRejectedCleanly) {
  const char* kBad[] = {
      "",                                                  // empty
      "%%MatrixMarket matrix array real general\n1 1 1\n", // unsupported kind
      "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 2\n",
      "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
      "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1\n",
      "%%MatrixMarket matrix coordinate real general\n% only comments\n",
      "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n",  // short
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n2 2 1\n",
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n",  // range
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n",  // 0-based
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",    // no val
      "%%MatrixMarket matrix coordinate real general\n-2 2 1\n",
      "not a matrix market file\n",
  };
  for (const char* doc : kBad) {
    auto result = ParseMatrixMarket(doc);
    EXPECT_FALSE(result.ok()) << "accepted: " << doc;
    EXPECT_FALSE(result.status().message().empty());
  }
}

TEST(MmioTest, DuplicateEntriesSurviveToCsrDedup) {
  // MMIO files from the wild sometimes repeat entries; the parser keeps
  // them (its job is faithful triples) and CsrOptions.deduplicate collapses
  // them downstream.
  const char* doc =
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 3\n"
      "1 2 1.0\n"
      "1 2 1.0\n"
      "2 3 1.0\n";
  auto el = ParseMatrixMarket(doc).ValueOrDie();
  EXPECT_EQ(el.num_edges(), 3u);
  CsrOptions opts;
  opts.deduplicate = true;
  auto g = CsrGraph::FromEdges(std::move(el), opts).ValueOrDie();
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(MmioTest, FileRoundTrip) {
  EdgeList el = SampleEdges();
  std::string path =
      (std::filesystem::temp_directory_path() / "ubigraph_mmio_test.mtx")
          .string();
  ASSERT_TRUE(WriteMatrixMarketFile(el, path).ok());
  auto back = ReadMatrixMarketFile(path);
  std::remove(path.c_str());
  ExpectSameEdges(el, back.ValueOrDie());
}

TEST(TsvTriplesTest, RoundTrip) {
  EdgeList el = SampleEdges();
  ExpectSameEdges(el, ParseTsvTriples(WriteTsvTriples(el)).ValueOrDie());
}

TEST(TsvTriplesTest, HostileLinesRejected) {
  EXPECT_FALSE(ParseTsvTriples("1\t2\n").ok());          // missing weight
  EXPECT_FALSE(ParseTsvTriples("0\t2\t1.0\n").ok());     // ids are 1-based
  EXPECT_FALSE(ParseTsvTriples("1\tx\t1.0\n").ok());     // non-numeric id
  EXPECT_FALSE(ParseTsvTriples("1\t2\t1.0\t9\n").ok());  // extra field
  EXPECT_TRUE(ParseTsvTriples("").ValueOrDie().edges().empty());
}

// -------------------------------------------------- cross-format property ---

class FormatRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FormatRoundTripTest, AllFormatsPreserveRandomGraphs) {
  Rng rng(GetParam());
  auto el = gen::ErdosRenyi(30, 120, &rng).ValueOrDie();
  ExpectSameEdges(el, ParseEdgeListText(WriteEdgeListText(el)).ValueOrDie());
  ExpectSameEdges(el, ParseCsvEdges(WriteCsvEdges(el)).ValueOrDie());
  ExpectSameEdges(el, ParseGraphMl(WriteGraphMl(el)).ValueOrDie().edges);
  ExpectSameEdges(el, ParseGml(WriteGml(el)).ValueOrDie().edges);
  ExpectSameEdges(el, ParseJsonGraph(WriteJsonGraph(el)).ValueOrDie().edges);
  ExpectSameEdges(el, ParseBinaryGraph(WriteBinaryGraph(el)).ValueOrDie());
  ExpectSameEdges(el, ParseMatrixMarket(WriteMatrixMarket(el)).ValueOrDie());
  ExpectSameEdges(el, ParseTsvTriples(WriteTsvTriples(el)).ValueOrDie());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormatRoundTripTest,
                         ::testing::Values(101, 102, 103, 104));

}  // namespace
}  // namespace ubigraph::io
