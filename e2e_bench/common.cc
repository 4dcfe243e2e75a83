#include "common.h"

#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

namespace e2e {

bool Report::Check(bool ok, std::string_view what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "FAILED: " << what << "\n";
  }
  return ok;
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    // Shortest round-trip form: every digit the measurement has, no more.
    char num[64];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    *std::to_chars(num, num + sizeof(num) - 1, v).ptr = '\0';
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << num
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

bool ResetStagePeak() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double StagePeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

uint64_t Digest(const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

ubigraph::Status WriteKeyValues(const std::string& path, const KeyValues& kv) {
  std::ofstream out(path);
  for (const auto& [k, v] : kv) out << k << " " << v << "\n";
  out.flush();
  if (!out) return ubigraph::Status::IOError("cannot write " + path);
  return ubigraph::Status::OK();
}

ubigraph::Status ReadKeyValues(const std::string& path, KeyValues* kv) {
  std::ifstream in(path);
  if (!in) return ubigraph::Status::IOError("cannot read " + path);
  std::string line;
  while (std::getline(in, line)) {
    const size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    (*kv)[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return ubigraph::Status::OK();
}

ubigraph::Status GetU64(const KeyValues& kv, const std::string& key,
                        uint64_t* out) {
  auto it = kv.find(key);
  if (it == kv.end()) {
    return ubigraph::Status::Invalid("reference lacks key " + key);
  }
  const std::string& s = it->second;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return ubigraph::Status::Invalid("bad number for " + key + ": " + s);
  }
  return ubigraph::Status::OK();
}

}  // namespace e2e
