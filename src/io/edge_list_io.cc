#include "io/edge_list_io.h"

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string_view>

#include "common/strings.h"
#include "io/parse_metrics.h"
#include "io/record_scanner.h"

namespace ubigraph::io {

namespace {

Result<EdgeList> ParseEdgeListTextImpl(std::string_view text) {
  EdgeList el;
  el.Reserve(internal::RecordCapacity(text));
  internal::RecordScanner scan(text);
  while (scan.NextRecord('#')) {
    const size_t num_fields = scan.num_fields();
    if (num_fields < 2 || num_fields > 3) {
      return scan.Error("expected 'src dst [weight]'");
    }
    // UINT32_MAX is kInvalidVertex, and num_vertices (max id + 1) must fit.
    int64_t src = 0, dst = 0;
    if (!scan.FieldInt64(0, &src) || !scan.FieldInt64(1, &dst) ||
        src < 0 || dst < 0 || src >= UINT32_MAX || dst >= UINT32_MAX) {
      return scan.Error("invalid vertex id");
    }
    double weight = 1.0;
    if (num_fields == 3 && !ParseDouble(scan.field(2), &weight)) {
      return scan.Error("invalid weight");
    }
    el.Add(static_cast<VertexId>(src), static_cast<VertexId>(dst), weight);
  }
  return el;
}

}  // namespace

Result<EdgeList> ParseEdgeListText(const std::string& text) {
  Result<EdgeList> result = ParseEdgeListTextImpl(text);
  internal::FlushParseStats("edge_list", text.size(), result.ok(),
                            result.ok() ? result->num_edges() : 0);
  return result;
}

std::string WriteEdgeListText(const EdgeList& edges) {
  std::string out;
  out += "# ubigraph edge list: " + std::to_string(edges.num_vertices()) +
         " vertices, " + std::to_string(edges.num_edges()) + " edges\n";
  for (const Edge& e : edges.edges()) {
    out += std::to_string(e.src);
    out += ' ';
    out += std::to_string(e.dst);
    if (e.weight != 1.0) {
      out += ' ';
      out += FormatDouble(e.weight, 17);
    }
    out += '\n';
  }
  return out;
}

Result<std::string> ReadFileToString(const std::string& path) {
  struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };
  std::unique_ptr<std::FILE, FileCloser> file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) return Status::IOError("cannot open " + path);
  struct stat st {};
  if (::fstat(::fileno(file.get()), &st) != 0 || S_ISDIR(st.st_mode)) {
    return Status::IOError("cannot read " + path);
  }
  // A regular file is read with one fread into a buffer of its size. Streams
  // that report no size (pipes, procfs files) and a file that grew meanwhile
  // are drained in chunks after it.
  std::string out(S_ISREG(st.st_mode) ? static_cast<size_t>(st.st_size) : 0, '\0');
  out.resize(std::fread(out.data(), 1, out.size(), file.get()));
  char chunk[1 << 16];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), file.get())) > 0) out.append(chunk, n);
  if (std::ferror(file.get())) return Status::IOError("read failed: " + path);
  return out;
}

Status WriteStringToFile(const std::string& content, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<EdgeList> ReadEdgeListFile(const std::string& path) {
  UG_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return ParseEdgeListText(text);
}

Status WriteEdgeListFile(const EdgeList& edges, const std::string& path) {
  return WriteStringToFile(WriteEdgeListText(edges), path);
}

}  // namespace ubigraph::io
