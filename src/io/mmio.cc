#include "io/mmio.h"

#include <algorithm>
#include <cctype>
#include <string_view>

#include "common/strings.h"
#include "io/edge_list_io.h"
#include "io/parse_metrics.h"
#include "io/record_scanner.h"

namespace ubigraph::io {

namespace {

std::string Lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

Result<EdgeList> ParseMatrixMarketImpl(std::string_view text) {
  internal::RecordScanner scan(text);

  // Banner.
  std::string_view line;
  if (!scan.NextLine(&line)) return Status::ParseError("empty document");
  std::vector<std::string> banner = SplitWhitespace(line);
  if (banner.size() < 4 || Lower(banner[0]) != "%%matrixmarket") {
    return scan.Error("expected '%%MatrixMarket' banner");
  }
  if (Lower(banner[1]) != "matrix" || Lower(banner[2]) != "coordinate") {
    return scan.Error("only 'matrix coordinate' files are supported");
  }
  const std::string field = Lower(banner[3]);
  const bool pattern = field == "pattern";
  if (!pattern && field != "real" && field != "integer" && field != "double") {
    return scan.Error("unsupported field type '" + banner[3] + "'");
  }
  const std::string symmetry = banner.size() >= 5 ? Lower(banner[4]) : "general";
  const bool symmetric = symmetry == "symmetric";
  if (!symmetric && symmetry != "general") {
    return scan.Error("unsupported symmetry '" + symmetry + "'");
  }

  // Size line: first non-comment, non-blank line.
  if (!scan.NextRecord('%')) return Status::ParseError("missing size line");
  int64_t rows = 0, cols = 0, nnz = 0;
  if (scan.num_fields() != 3 || !scan.FieldInt64(0, &rows) ||
      !scan.FieldInt64(1, &cols) || !scan.FieldInt64(2, &nnz)) {
    return scan.Error("expected size line 'rows cols nnz'");
  }
  if (rows < 0 || cols < 0 || nnz < 0) {
    return scan.Error("negative dimension");
  }
  if (symmetric && rows != cols) {
    return scan.Error("symmetric matrix must be square");
  }
  const bool bipartite = rows != cols;
  // Bounding each side first keeps rows + cols from overflowing.
  if (rows > UINT32_MAX || cols > UINT32_MAX) return scan.Error("dimensions overflow");
  const int64_t num_vertices = bipartite ? rows + cols : rows;
  if (num_vertices > UINT32_MAX) return scan.Error("dimensions overflow");
  if (nnz > 0 && (rows == 0 || cols == 0)) {
    return scan.Error("entries declared for an empty matrix");
  }

  EdgeList el(static_cast<VertexId>(num_vertices));
  // nnz is untrusted: reserve no more entries than the rest of the text can
  // hold.
  const size_t entries = std::min(static_cast<size_t>(nnz),
                                  internal::RecordCapacity(scan.rest()));
  el.Reserve(symmetric ? 2 * entries : entries);
  const size_t want = pattern ? 2 : 3;
  int64_t read = 0;
  while (scan.NextRecord('%')) {
    if (read == nnz) return scan.Error("more entries than declared nnz");
    if (scan.num_fields() != want) {
      return scan.Error(pattern ? "expected 'i j'" : "expected 'i j value'");
    }
    int64_t i = 0, j = 0;
    if (!scan.FieldInt64(0, &i) || !scan.FieldInt64(1, &j)) {
      return scan.Error("invalid index");
    }
    if (i < 1 || i > rows || j < 1 || j > cols) {
      return scan.Error("index out of range");
    }
    double value = 1.0;
    if (!pattern && !ParseDouble(scan.field(2), &value)) {
      return scan.Error("invalid value");
    }
    const VertexId src = static_cast<VertexId>(i - 1);
    const VertexId dst =
        static_cast<VertexId>(bipartite ? rows + (j - 1) : j - 1);
    el.Add(src, dst, value);
    if (symmetric && src != dst) el.Add(dst, src, value);
    ++read;
  }
  if (read != nnz) {
    return Status::ParseError("truncated: " + std::to_string(read) + " of " +
                              std::to_string(nnz) + " declared entries");
  }
  el.EnsureVertices(static_cast<VertexId>(num_vertices));
  return el;
}

Result<EdgeList> ParseTsvTriplesImpl(std::string_view text) {
  EdgeList el;
  el.Reserve(internal::RecordCapacity(text));
  internal::RecordScanner scan(text);
  while (scan.NextRecord(internal::RecordScanner::kNoComment)) {
    if (scan.num_fields() != 3) {
      return scan.Error("expected 'src\\tdst\\tweight'");
    }
    int64_t src = 0, dst = 0;
    double weight = 1.0;
    if (!scan.FieldInt64(0, &src) || !scan.FieldInt64(1, &dst) ||
        !ParseDouble(scan.field(2), &weight)) {
      return scan.Error("invalid triple");
    }
    if (src < 1 || dst < 1 || src > UINT32_MAX || dst > UINT32_MAX) {
      return scan.Error("vertex id out of range (ids are 1-based)");
    }
    el.Add(static_cast<VertexId>(src - 1), static_cast<VertexId>(dst - 1), weight);
  }
  return el;
}

}  // namespace

Result<EdgeList> ParseMatrixMarket(const std::string& text) {
  Result<EdgeList> result = ParseMatrixMarketImpl(text);
  internal::FlushParseStats("mmio", text.size(), result.ok(),
                            result.ok() ? result->num_edges() : 0);
  return result;
}

std::string WriteMatrixMarket(const EdgeList& edges, bool pattern) {
  std::string out = "%%MatrixMarket matrix coordinate ";
  out += pattern ? "pattern" : "real";
  out += " general\n";
  out += "% written by ubigraph\n";
  const std::string n = std::to_string(edges.num_vertices());
  out += n + ' ' + n + ' ' + std::to_string(edges.num_edges()) + '\n';
  for (const Edge& e : edges.edges()) {
    out += std::to_string(e.src + 1);
    out += ' ';
    out += std::to_string(e.dst + 1);
    if (!pattern) {
      out += ' ';
      out += FormatDouble(e.weight, 17);
    }
    out += '\n';
  }
  return out;
}

Result<EdgeList> ParseTsvTriples(const std::string& text) {
  Result<EdgeList> result = ParseTsvTriplesImpl(text);
  internal::FlushParseStats("tsv", text.size(), result.ok(),
                            result.ok() ? result->num_edges() : 0);
  return result;
}

std::string WriteTsvTriples(const EdgeList& edges) {
  std::string out;
  for (const Edge& e : edges.edges()) {
    out += std::to_string(e.src + 1);
    out += '\t';
    out += std::to_string(e.dst + 1);
    out += '\t';
    out += FormatDouble(e.weight, 17);
    out += '\n';
  }
  return out;
}

Result<EdgeList> ReadMatrixMarketFile(const std::string& path) {
  UG_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return ParseMatrixMarket(text);
}

Status WriteMatrixMarketFile(const EdgeList& edges, const std::string& path,
                             bool pattern) {
  return WriteStringToFile(WriteMatrixMarket(edges, pattern), path);
}

}  // namespace ubigraph::io
