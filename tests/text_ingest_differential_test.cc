// Differential test of the single-pass text readers against the getline +
// SplitWhitespace oracles in text_ingest_oracle.cc. On every input, hand
// cases for each line-level rule plus the fuzz corpus of all three formats,
// the library parser must agree with its oracle exactly: same ok(), the same
// Status message byte for byte, the same vertex count and the same edges,
// with weights compared by bit pattern so NaN weights are checked too.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "fuzz_corpus.h"
#include "gen/generators.h"
#include "io/edge_list_io.h"
#include "io/mmio.h"
#include "text_ingest_oracle.h"

namespace ubigraph {
namespace {

using ParseFn = Result<EdgeList> (*)(const std::string&);

/// The document with non-printable bytes escaped, for failure messages.
std::string Printable(const std::string& doc) {
  std::string out;
  for (unsigned char c : doc) {
    if (c >= 0x20 && c < 0x7f && c != '\\') {
      out += static_cast<char>(c);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", c);
      out += buf;
    }
  }
  return out;
}

uint64_t WeightBits(double w) {
  uint64_t bits = 0;
  std::memcpy(&bits, &w, sizeof(bits));
  return bits;
}

::testing::AssertionResult SameResult(ParseFn parse, ParseFn oracle,
                                      const std::string& doc) {
  const Result<EdgeList> got = parse(doc);
  const Result<EdgeList> want = oracle(doc);
  auto fail = [&]() {
    return ::testing::AssertionFailure() << "on \"" << Printable(doc) << "\": ";
  };
  if (got.ok() != want.ok()) {
    return fail() << "ok " << got.ok() << " vs oracle " << want.ok() << " ("
                  << (got.ok() ? want.status() : got.status()).ToString() << ")";
  }
  if (!want.ok()) {
    if (got.status().code() != want.status().code() ||
        got.status().message() != want.status().message()) {
      return fail() << "status '" << got.status().ToString() << "' vs oracle '"
                    << want.status().ToString() << "'";
    }
    return ::testing::AssertionSuccess();
  }
  if (got->num_vertices() != want->num_vertices()) {
    return fail() << "num_vertices " << got->num_vertices() << " vs oracle "
                  << want->num_vertices();
  }
  if (got->num_edges() != want->num_edges()) {
    return fail() << "num_edges " << got->num_edges() << " vs oracle "
                  << want->num_edges();
  }
  for (size_t i = 0; i < want->num_edges(); ++i) {
    const Edge& a = got->edges()[i];
    const Edge& b = want->edges()[i];
    if (a.src != b.src || a.dst != b.dst ||
        WeightBits(a.weight) != WeightBits(b.weight)) {
      return fail() << "edge " << i << " differs: " << a.src << "->" << a.dst
                    << " w=" << a.weight << " vs oracle " << b.src << "->"
                    << b.dst << " w=" << b.weight;
    }
  }
  return ::testing::AssertionSuccess();
}

/// The fuzz-smoke corpora of all three formats (same seeds as
/// fuzz_smoke_test.cc), so every parser also sees the others' documents.
std::vector<std::string> FuzzDocs() {
  const EdgeList seed = test::SeedEdges();
  std::vector<std::string> docs;
  for (auto [valid, rng_seed] :
       {std::pair{io::WriteEdgeListText(seed), uint64_t{1}},
        std::pair{io::WriteMatrixMarket(seed), uint64_t{11}},
        std::pair{io::WriteTsvTriples(seed), uint64_t{12}}}) {
    for (std::string& doc : test::FuzzCorpus(valid, rng_seed)) {
      docs.push_back(std::move(doc));
    }
  }
  return docs;
}

void ExpectAgreesOnAll(ParseFn parse, ParseFn oracle,
                       const std::vector<std::string>& docs) {
  for (const std::string& doc : docs) EXPECT_TRUE(SameResult(parse, oracle, doc));
}

// -------------------------------------------------------------- edge list ---

TEST(TextIngestDifferentialTest, EdgeListHandCases) {
  const std::vector<std::string> cases = {
      // Line endings, separators and blanks.
      "0 1\r\n1 2\r\n", "0\t1\t2.5\n", "  0 1  \n\t2 3\t\n", "0 1\r2 3\n",
      "0 1 2.5 \r\n", "\r\n", "\r", "\v\f\n0 1\n", "0 1\n\n\n",
      // Comments: '#' only as the first non-space character.
      "   # comment\n0 1\n", "#\n", "# only", "0 # 1\n", "0 1 #c\n", "\t#x y z w\n",
      // Numbering counts blank and comment lines; no trailing newline.
      "\n\n0 1\n\nx\n", "# h\n\n0 1\n   \n1\n", "0 1", "0 1\n2", "",
      "\n",
      // Embedded NUL bytes.
      std::string("0 1\0\n", 5), std::string("0\0 1\n", 5),
      std::string("\0\n0 1\n", 6), std::string("0 1 2\0\n", 7),
      std::string("0 1 \0\n", 6),
      // Id syntax and range: '+', -0, 2^32 - 2, 2^32 - 1, 2^32, 2^63 - 1, 2^63.
      "+1 2\n", "-0 1\n", "-1 2\n", "1 -2\n", "4294967295 0\n", "4294967296 1\n",
      "1 4294967296\n", "0 4294967295\n", "4294967294 0\n", "9223372036854775807 1\n", "9223372036854775808 1\n",
      "0x10 1\n", "1.0 2\n", "007 8\n",
      // Weights.
      "0 1 inf\n", "0 1 -inf\n", "0 1 nan\n", "0 1 -nan\n", "0 1 nan(123)\n",
      "0 1 INFINITY\n", "0 1 0x1p3\n", "0 1 1e400\n", "0 1 1e-400\n", "0 1 +2.5\n",
      "0 1 .5\n", "0 1 5.\n", "0 1 1e\n", "0 1 --1\n",
      // Field counts: 1, 4 and 5.
      "7\n", "0 1 2 3\n", "0 1 2 3 4\n", "0 1 2\n3\n",
      // Bytes outside the C-locale space set.
      "0 1\xa0\n", "0\xa0" "1\n", "0 1 \x85\n",
  };
  ExpectAgreesOnAll(io::ParseEdgeListText, test::OracleParseEdgeListText, cases);
}

TEST(TextIngestDifferentialTest, EdgeListFuzzCorpus) {
  ExpectAgreesOnAll(io::ParseEdgeListText, test::OracleParseEdgeListText,
                    FuzzDocs());
}

TEST(TextIngestDifferentialTest, EdgeListGeneratedGraph) {
  Rng rng(5);
  EdgeList el = gen::Rmat(10, 8 << 10, &rng).ValueOrDie();
  for (size_t i = 0; i < el.num_edges(); i += 3) {
    el.mutable_edges()[i].weight = rng.NextDouble() - 0.5;
  }
  ExpectAgreesOnAll(io::ParseEdgeListText, test::OracleParseEdgeListText,
                    {io::WriteEdgeListText(el)});
}

// ----------------------------------------------------------- Matrix Market ---

TEST(TextIngestDifferentialTest, MatrixMarketHandCases) {
  const std::string kReal = "%%MatrixMarket matrix coordinate real general\n";
  const std::vector<std::string> cases = {
      kReal + "3 3 2\n1 2 1.5\n3 1 -2\n",
      kReal + "3 3 2\r\n1 2 1.5\r\n3 1 -2\r\n",
      kReal + "% c\n\n  % indented comment\n3\t3\t2\n1\t2\t1.5\n\n% mid\n3 1 -2",
      kReal + "3 3 2\n1 2 1.5\n",
      kReal + "3 3 1\n1 2 1.5\n2 3 1\n",
      kReal + "3 3 1\n1 2 1.5 9\n",
      kReal + "3 3 1\n1 2\n",
      kReal + "3 3 1\n1 2 inf\n",
      kReal + "3 3 1\n1 2 nan\n",
      kReal + "3 3 1\n1 2 0x1p3\n",
      kReal + "3 3 1\n1 2 1e400\n",
      kReal + "3 3 1\n+1 2 1\n",
      kReal + "3 3 1\n0 2 1\n",
      kReal + "3 3 1\n4 2 1\n",
      kReal + std::string("3 3 1\n1 2\0 1\n", 12),
      kReal + "3 3\n",
      kReal + "3 3 1 1\n",
      kReal + "-3 3 1\n",
      kReal + "2 5 2\n1 5 1\n2 1 2\n",
      kReal + "9223372036854775807 9223372036854775807 1\n",
      kReal + "4294967295 4294967295 0\n",
      kReal + "4294967295 1 0\n",
      kReal + "0 0 0\n",
      kReal + "0 0 3\n1 1 1\n",
      kReal + "3 3 999999999999999\n1 2 1.0\n",
      kReal,
      "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 2 1\n2 2 4\n",
      "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 2 1\n",
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 9223372036854775807\n1 2 1.0\n",
      "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n2 3\n",
      "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 2 1.0\n",
      "%%matrixmarket MATRIX Coordinate INTEGER General\n2 2 1\n1 2 7\n",
      "  %%MatrixMarket\tmatrix coordinate double general extra words\r\n"
      "2 2 1\n1 1 3\n",
      "%%MatrixMarket matrix coordinate complex general\n2 2 0\n",
      "%%MatrixMarket matrix coordinate real hermitian\n2 2 0\n",
      "%%MatrixMarket matrix array real general\n2 2\n",
      "%%MatrixMarket matrix coordinate\n",
      "%%NotMatrixMarket matrix coordinate real general\n",
      "", "\n", "\n%%MatrixMarket matrix coordinate real general\n1 1 0\n",
  };
  ExpectAgreesOnAll(io::ParseMatrixMarket, test::OracleParseMatrixMarket, cases);
}

TEST(TextIngestDifferentialTest, MatrixMarketFuzzCorpus) {
  ExpectAgreesOnAll(io::ParseMatrixMarket, test::OracleParseMatrixMarket,
                    FuzzDocs());
}

// --------------------------------------------------------------------- TSV ---

TEST(TextIngestDifferentialTest, TsvHandCases) {
  const std::vector<std::string> cases = {
      "1\t2\t3\n2\t3\t1\n", "1 2 3\r\n", "  1\t2\t3  \n", "\n\n1\t2\n",
      "1\t2\t3", "0\t1\t1\n", "1\t0\t1\n", "1\t2\tnan\n", "1\t2\t-inf\n",
      "1\t2\t0x1p3\n", "1\t2\t1e400\n", "# 1 2 3\n", "1\t2\t3\t4\n", "1\n",
      "4294967295\t1\t1\n", "4294967296\t1\t1\n", "9223372036854775808\t1\t1\n",
      "+1\t2\t3\n", std::string("1\t2\t3\0\n", 7), std::string("\0\n", 2), "",
      "\n\n", "\r\n",
  };
  ExpectAgreesOnAll(io::ParseTsvTriples, test::OracleParseTsvTriples, cases);
}

TEST(TextIngestDifferentialTest, TsvFuzzCorpus) {
  ExpectAgreesOnAll(io::ParseTsvTriples, test::OracleParseTsvTriples, FuzzDocs());
}

}  // namespace
}  // namespace ubigraph
