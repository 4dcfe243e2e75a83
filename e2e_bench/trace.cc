#include "trace.h"

#include <cstdio>
#include <fstream>
#include <utility>

#include "stats.h"

namespace e2e {

int Tracer::Begin(std::string name, std::string layer, int64_t group) {
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.parent = open_.empty() ? -1 : open_.back();
  s.group = group >= 0 || s.parent < 0 ? group : spans_[s.parent].group;
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  spans_[id].end_ns = NowNs();
  // Spans close in LIFO order (ScopedSpan); tolerate a skipped level anyway.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

std::vector<int> Tracer::Children(int id) const {
  std::vector<int> out;
  // Spans are stored in start order, so no child starts after `id` ends.
  for (int i = id + 1; i < static_cast<int>(spans_.size()) &&
                       spans_[i].start_ns <= spans_[id].end_ns;
       ++i) {
    if (spans_[i].parent == id) out.push_back(i);
  }
  return out;
}

std::vector<int> Tracer::Descendants(int id) const {
  std::vector<int> out;
  std::vector<int> todo = Children(id);
  while (!todo.empty()) {
    const int c = todo.back();
    todo.pop_back();
    out.push_back(c);
    for (int cc : Children(c)) todo.push_back(cc);
  }
  return out;
}

std::map<std::string, int64_t> Tracer::LayerSelfNs(int root) const {
  std::map<std::string, int64_t> out;
  std::vector<int> all = Descendants(root);
  all.push_back(root);
  for (int id : all) {
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (int c : Children(id)) iv.emplace_back(spans_[c].start_ns, spans_[c].end_ns);
    out[spans_[id].layer] +=
        SelfNs(spans_[id].start_ns, spans_[id].end_ns, std::move(iv));
  }
  return out;
}

std::map<std::string, int64_t> Tracer::NameNs(int root) const {
  std::map<std::string, int64_t> out;
  for (int d : Descendants(root)) out[spans_[d].name] += spans_[d].end_ns - spans_[d].start_ns;
  return out;
}

double Tracer::LayerCoverage(int root) const {
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (int d : Descendants(root)) {
    if (spans_[d].layer != "bench") iv.emplace_back(spans_[d].start_ns, spans_[d].end_ns);
  }
  const Span& r = spans_[root];
  return SafeRatio(static_cast<double>(CoveredNs(iv, r.start_ns, r.end_ns)),
                   static_cast<double>(r.end_ns - r.start_ns));
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                  "\"dur\": %.3f",
                  (s.start_ns - origin) / 1e3, (s.end_ns - s.start_ns) / 1e3);
    out << "  {\"name\": \"" << s.name << "\", \"cat\": \"" << s.layer
        << "\", " << buf << ", \"args\": {\"id\": " << i
        << ", \"parent\": " << s.parent << ", \"group\": " << s.group << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace e2e
