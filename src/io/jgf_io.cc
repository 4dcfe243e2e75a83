#include "io/jgf_io.h"

#include <map>
#include <string>

#include "common/strings.h"
#include "io/edge_list_io.h"
#include "io/json_value.h"
#include "io/parse_metrics.h"

namespace ubigraph::io {

namespace {

Result<JgfDocument> ParseJgfImpl(const std::string& text) {
  UG_ASSIGN_OR_RETURN(auto root, ParseJsonValue(text));
  const JsonValue* graph = root->Get("graph");
  if (graph == nullptr || graph->kind != JsonValue::kObject) {
    return Status::ParseError("JGF document must contain a \"graph\" object");
  }
  JgfDocument doc;
  const JsonValue* dir = graph->Get("directed");
  if (dir != nullptr && dir->kind == JsonValue::kBool) doc.directed = dir->boolean;
  const JsonValue* label = graph->Get("label");
  if (label != nullptr && label->kind == JsonValue::kString) {
    doc.label = label->string;
  }

  std::map<std::string, VertexId> id_map;
  auto intern = [&](const std::string& id) {
    auto [it, inserted] = id_map.emplace(id, static_cast<VertexId>(id_map.size()));
    if (inserted) doc.edges.EnsureVertices(static_cast<VertexId>(id_map.size()));
    return it->second;
  };

  // JGF nodes are an object keyed by node id.
  const JsonValue* nodes = graph->Get("nodes");
  if (nodes != nullptr) {
    if (nodes->kind != JsonValue::kObject) {
      return Status::ParseError("JGF \"nodes\" must be an object keyed by id");
    }
    for (const auto& [id, body] : nodes->object) {
      (void)body;
      intern(id);
    }
  }

  const JsonValue* edges = graph->Get("edges");
  if (edges != nullptr) {
    if (edges->kind != JsonValue::kArray) {
      return Status::ParseError("JGF \"edges\" must be an array");
    }
    for (const auto& edge : edges->array) {
      if (edge->kind != JsonValue::kObject) {
        return Status::ParseError("JGF edge must be an object");
      }
      const JsonValue* s = edge->Get("source");
      const JsonValue* t = edge->Get("target");
      if (s == nullptr || t == nullptr || s->kind != JsonValue::kString ||
          t->kind != JsonValue::kString) {
        return Status::ParseError("JGF edge needs string source/target");
      }
      double weight = 1.0;
      const JsonValue* meta = edge->Get("metadata");
      if (meta != nullptr) {
        const JsonValue* w = meta->Get("weight");
        if (w != nullptr && w->kind == JsonValue::kNumber) weight = w->number;
      }
      doc.edges.Add(intern(s->string), intern(t->string), weight);
    }
  }
  return doc;
}

}  // namespace

Result<JgfDocument> ParseJgf(const std::string& text) {
  Result<JgfDocument> result = ParseJgfImpl(text);
  internal::FlushParseStats("jgf", text.size(), result.ok(),
                            result.ok() ? result->edges.num_edges() : 0);
  return result;
}

std::string WriteJgf(const EdgeList& edges, bool directed,
                     const std::string& label) {
  // Node ids are zero-padded so the JGF nodes object (which readers iterate
  // in lexicographic key order) round-trips to the same dense numbering.
  const size_t width = std::to_string(edges.num_vertices()).size();
  auto node_id = [width](VertexId v) {
    const std::string digits = std::to_string(v);
    std::string id = "n";
    if (digits.size() < width) id.append(width - digits.size(), '0');
    return id + digits;
  };
  std::string out = "{\n  \"graph\": {\n    \"directed\": ";
  out += directed ? "true" : "false";
  out += ",\n    \"label\": \"" + JsonEscape(label) + "\",\n    \"nodes\": {";
  for (VertexId v = 0; v < edges.num_vertices(); ++v) {
    if (v) out += ", ";
    out += '"';
    out += node_id(v);
    out += "\": {}";
  }
  out += "},\n    \"edges\": [\n";
  bool first = true;
  for (const Edge& e : edges.edges()) {
    if (!first) out += ",\n";
    first = false;
    out += "      {\"source\": \"" + node_id(e.src) + "\", \"target\": \"" +
           node_id(e.dst) + "\"";
    if (e.weight != 1.0) {
      out += ", \"metadata\": {\"weight\": " + FormatDouble(e.weight, 17) + "}";
    }
    out += "}";
  }
  out += "\n    ]\n  }\n}\n";
  return out;
}

Result<JgfDocument> ReadJgfFile(const std::string& path) {
  UG_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return ParseJgf(text);
}

Status WriteJgfFile(const EdgeList& edges, const std::string& path,
                    bool directed) {
  return WriteStringToFile(WriteJgf(edges, directed), path);
}

}  // namespace ubigraph::io
