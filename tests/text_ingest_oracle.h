// Reference parsers for the line-oriented text readers (edge-list text,
// Matrix Market, GraphChallenge TSV): the straightforward std::getline +
// SplitWhitespace loops that src/io's single-pass scanner replaced. Only
// tests use them, as oracles: text_ingest_differential_test.cc asserts the
// library parsers return the same Status message and bitwise-equal edges on
// hand cases and the fuzz corpus. They record no io.* counters.
#pragma once

#include <string>

#include "common/result.h"
#include "graph/edge_list.h"

namespace ubigraph::test {

Result<EdgeList> OracleParseEdgeListText(const std::string& text);
Result<EdgeList> OracleParseMatrixMarket(const std::string& text);
Result<EdgeList> OracleParseTsvTriples(const std::string& text);

}  // namespace ubigraph::test
