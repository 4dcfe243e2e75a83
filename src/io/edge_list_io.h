// Plain-text edge list IO ("CSV / Text files" in Table 17): one edge per
// line, "src dst [weight]", '#' comments, blank lines ignored.
#pragma once

#include <string>

#include "common/result.h"
#include "graph/edge_list.h"

namespace ubigraph::io {

/// Parses edge-list text. Vertex ids must be non-negative integers.
Result<EdgeList> ParseEdgeListText(const std::string& text);

/// Serializes an edge list (weights written only when != 1).
std::string WriteEdgeListText(const EdgeList& edges);

/// File wrappers.
Result<EdgeList> ReadEdgeListFile(const std::string& path);
Status WriteEdgeListFile(const EdgeList& edges, const std::string& path);

/// Shared helpers for the other IO modules. ReadFileToString returns the
/// file's bytes exactly; a missing path or a directory is an IOError.
Result<std::string> ReadFileToString(const std::string& path);
Status WriteStringToFile(const std::string& content, const std::string& path);

}  // namespace ubigraph::io
