#include "io/csv_io.h"

#include <sstream>

#include "common/strings.h"
#include "io/edge_list_io.h"
#include "io/parse_metrics.h"

namespace ubigraph::io {

Result<std::vector<std::string>> SplitCsvRecord(const std::string& line,
                                                char separator) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      if (!cur.empty()) {
        return Status::ParseError("quote in the middle of an unquoted field");
      }
      in_quotes = true;
    } else if (c == separator) {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (in_quotes) return Status::ParseError("unterminated quoted field");
  fields.push_back(std::move(cur));
  return fields;
}

namespace {

Result<EdgeList> ParseCsvEdgesImpl(const std::string& text, CsvOptions options) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) return Status::ParseError("empty CSV document");
  if (!line.empty() && line.back() == '\r') line.pop_back();

  UG_ASSIGN_OR_RETURN(std::vector<std::string> header,
                      SplitCsvRecord(line, options.separator));
  int src_col = -1, dst_col = -1, w_col = -1;
  for (size_t i = 0; i < header.size(); ++i) {
    std::string name = ToLower(Trim(header[i]));
    if (name == ToLower(options.source_column)) src_col = static_cast<int>(i);
    else if (name == ToLower(options.target_column)) dst_col = static_cast<int>(i);
    else if (name == ToLower(options.weight_column)) w_col = static_cast<int>(i);
  }
  if (src_col < 0 || dst_col < 0) {
    return Status::ParseError("CSV header missing source/target columns");
  }

  EdgeList el;
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (Trim(line).empty()) continue;
    UG_ASSIGN_OR_RETURN(std::vector<std::string> fields,
                        SplitCsvRecord(line, options.separator));
    if (static_cast<int>(fields.size()) <= std::max(src_col, dst_col)) {
      return Status::ParseError("line " + std::to_string(line_no) +
                                ": too few fields");
    }
    int64_t src = 0, dst = 0;
    if (!ParseInt64(fields[src_col], &src) || !ParseInt64(fields[dst_col], &dst) ||
        src < 0 || dst < 0 || src >= UINT32_MAX || dst >= UINT32_MAX) {
      return Status::ParseError("line " + std::to_string(line_no) +
                                ": invalid vertex id");
    }
    double weight = 1.0;
    if (w_col >= 0 && w_col < static_cast<int>(fields.size()) &&
        !Trim(fields[w_col]).empty()) {
      if (!ParseDouble(fields[w_col], &weight)) {
        return Status::ParseError("line " + std::to_string(line_no) +
                                  ": invalid weight");
      }
    }
    el.Add(static_cast<VertexId>(src), static_cast<VertexId>(dst), weight);
  }
  return el;
}

}  // namespace

Result<EdgeList> ParseCsvEdges(const std::string& text, CsvOptions options) {
  Result<EdgeList> result = ParseCsvEdgesImpl(text, std::move(options));
  internal::FlushParseStats("csv", text.size(), result.ok(),
                            result.ok() ? result->num_edges() : 0);
  return result;
}

std::string WriteCsvEdges(const EdgeList& edges, CsvOptions options) {
  std::string out = options.source_column;
  out += options.separator;
  out += options.target_column;
  out += options.separator;
  out += options.weight_column;
  out += '\n';
  for (const Edge& e : edges.edges()) {
    out += std::to_string(e.src);
    out += options.separator;
    out += std::to_string(e.dst);
    out += options.separator;
    out += FormatDouble(e.weight, 17);
    out += '\n';
  }
  return out;
}

Result<EdgeList> ReadCsvFile(const std::string& path, CsvOptions options) {
  UG_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return ParseCsvEdges(text, options);
}

Status WriteCsvFile(const EdgeList& edges, const std::string& path,
                    CsvOptions options) {
  return WriteStringToFile(WriteCsvEdges(edges, options), path);
}

}  // namespace ubigraph::io
