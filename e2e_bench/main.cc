// e2e_driver: the benchmark's measuring program.
//
//   e2e_driver prepare --workload W --seed N --dir D
//       Writes W's seeded inputs and reference answers into D (untimed).
//   e2e_driver run --workload W --input D --seconds S --trace 0|1 --out O
//       Measures W on the inputs in D and prints one JSON line:
//       {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
//       --trace 1 records spans (written to O/trace_W.json) and reports the
//       per-layer metrics instead of the end-to-end ones.
//
// Exits 0 only when every operation and output check succeeded.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "workloads.h"

namespace {

using e2e::Report;
using e2e::RunConfig;
using e2e::Tracer;
using ubigraph::Status;

struct Workload {
  Status (*prepare)(uint64_t, const std::string&);
  Status (*run)(const RunConfig&, Tracer&, Report&);
};

const std::map<std::string, Workload>& Workloads() {
  static const std::map<std::string, Workload> kWorkloads = {
      {"analytics", {e2e::PrepareAnalytics, e2e::RunAnalytics}},
      {"out-of-core", {e2e::PrepareOutOfCore, e2e::RunOutOfCore}},
      {"update-stream", {e2e::PrepareUpdateStream, e2e::RunUpdateStream}},
  };
  return kWorkloads;
}

int Usage(const std::string& why) {
  std::cerr << "e2e_driver: " << why
            << "\nusage: e2e_driver prepare --workload W --seed N --dir D\n"
               "       e2e_driver run --workload W --input D --seconds S "
               "--trace 0|1 --out O\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc % 2 != 0) return Usage("bad arguments");
  const std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  auto it = Workloads().find(flags["--workload"]);
  if (it == Workloads().end()) return Usage("unknown workload");

  if (mode == "prepare") {
    const std::string& dir = flags["--dir"];
    if (dir.empty() || flags["--seed"].empty()) return Usage("prepare needs --dir and --seed");
    std::filesystem::create_directories(dir);
    const Status st = it->second.prepare(std::strtoull(flags["--seed"].c_str(), nullptr, 10), dir);
    if (!st.ok()) {
      std::cerr << "prepare failed: " << st.ToString() << "\n";
      return 1;
    }
    return 0;
  }
  if (mode != "run") return Usage("unknown mode " + mode);

  RunConfig cfg;
  cfg.workload = it->first;
  cfg.input_dir = flags["--input"];
  cfg.out_dir = flags["--out"];
  cfg.seconds = std::strtod(flags["--seconds"].c_str(), nullptr);
  cfg.trace = flags["--trace"] == "1";
  if (cfg.input_dir.empty() || cfg.out_dir.empty() || !(cfg.seconds > 0)) {
    return Usage("run needs --input, --out and --seconds > 0");
  }

  Tracer tracer;
  Report report;
  const Status st = it->second.run(cfg, tracer, report);
  report.Check(st, "workload " + cfg.workload);
  if (cfg.trace) {
    std::filesystem::create_directories(cfg.out_dir);
    const std::string path = cfg.out_dir + "/trace_" + cfg.workload + ".json";
    report.Check(tracer.WriteChromeJson(path), "write " + path);
  }
  std::cout << report.ToJson() << std::endl;
  return report.failed() == 0 ? 0 : 1;
}
