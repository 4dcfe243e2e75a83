// Storage-format serialization/parsing (Table 17 formats). Binary should
// dominate the text formats — the shape the survey's scalability complaints
// about "inefficient loading" predict. BM_ReadEdgeListFile times the whole
// file -> EdgeList ingest (read + parse) that the end-to-end analytics
// workload starts with, and is part of the ci/perf_smoke.sh gate.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "common/random.h"
#include "gen/generators.h"
#include "io/binary_io.h"
#include "io/csv_io.h"
#include "io/edge_list_io.h"
#include "io/gml_io.h"
#include "io/graphml_io.h"
#include "io/json_io.h"
#include "perf_common.h"
#include "perf_obs.h"

namespace ubigraph {
namespace {

EdgeList BenchEdges() {
  Rng rng(11);
  return gen::ErdosRenyi(1 << 12, 8 << 12, &rng).ValueOrDie();
}

void BM_WriteEdgeListText(benchmark::State& state) {
  EdgeList el = BenchEdges();
  for (auto _ : state) benchmark::DoNotOptimize(io::WriteEdgeListText(el));
  state.SetLabel("kernel=io mode=write_edge_list graph=er12");
  bench::SetWorkItems(state, static_cast<double>(el.num_edges()));
}
BENCHMARK(BM_WriteEdgeListText);

void BM_ParseEdgeListText(benchmark::State& state) {
  const EdgeList el = BenchEdges();
  std::string text = io::WriteEdgeListText(el);
  for (auto _ : state) benchmark::DoNotOptimize(io::ParseEdgeListText(text));
  state.SetBytesProcessed(state.iterations() * text.size());
  state.SetLabel("kernel=io mode=parse_edge_list graph=er12");
  bench::SetWorkItems(state, static_cast<double>(el.num_edges()));
}
BENCHMARK(BM_ParseEdgeListText);

// Args = {scale, threads}: an RMAT edge list at 2^scale vertices and 8 edges
// per vertex, written to a temporary file once, then read and parsed per
// iteration. The reader is serial, so threads is always 1. work_items is
// the io.edge_list.records count per iteration: the records parsed.
void BM_ReadEdgeListFile(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  Rng rng(scale * 1000003ULL + 17);
  const EdgeList el =
      gen::Rmat(scale, static_cast<uint64_t>(8) << scale, &rng).ValueOrDie();
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ubigraph_perf_io_" + std::to_string(::getpid()) + ".txt"))
          .string();
  if (!io::WriteEdgeListFile(el, path).ok()) {
    state.SkipWithError(("cannot write " + path).c_str());
    return;
  }
  const bench::WorkProbe probe({"io.edge_list.records"});
  for (auto _ : state) benchmark::DoNotOptimize(io::ReadEdgeListFile(path));
  probe.Flush(state);
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(el.num_edges()));
  state.SetLabel("kernel=io mode=read_edge_list graph=rmat" + std::to_string(scale));
  state.counters["threads"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_ReadEdgeListFile)->Args({12, 1});

void BM_ParseCsv(benchmark::State& state) {
  std::string text = io::WriteCsvEdges(BenchEdges());
  for (auto _ : state) benchmark::DoNotOptimize(io::ParseCsvEdges(text));
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_ParseCsv);

void BM_ParseGraphMl(benchmark::State& state) {
  std::string text = io::WriteGraphMl(BenchEdges());
  for (auto _ : state) benchmark::DoNotOptimize(io::ParseGraphMl(text));
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_ParseGraphMl);

void BM_ParseGml(benchmark::State& state) {
  std::string text = io::WriteGml(BenchEdges());
  for (auto _ : state) benchmark::DoNotOptimize(io::ParseGml(text));
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_ParseGml);

void BM_ParseJson(benchmark::State& state) {
  std::string text = io::WriteJsonGraph(BenchEdges());
  for (auto _ : state) benchmark::DoNotOptimize(io::ParseJsonGraph(text));
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_ParseJson);

void BM_ParseBinary(benchmark::State& state) {
  std::string data = io::WriteBinaryGraph(BenchEdges());
  for (auto _ : state) benchmark::DoNotOptimize(io::ParseBinaryGraph(data));
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_ParseBinary);

void BM_WriteBinary(benchmark::State& state) {
  EdgeList el = BenchEdges();
  for (auto _ : state) benchmark::DoNotOptimize(io::WriteBinaryGraph(el));
}
BENCHMARK(BM_WriteBinary);

}  // namespace
}  // namespace ubigraph

UBIGRAPH_BENCHMARK_MAIN_WITH_OBS()
