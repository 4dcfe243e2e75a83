#include "common/histogram.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ubigraph {

BandedHistogram::BandedHistogram(std::vector<int64_t> boundaries)
    : boundaries_(std::move(boundaries)), counts_(boundaries_.size() + 1, 0) {
  assert(std::is_sorted(boundaries_.begin(), boundaries_.end()));
}

BandedHistogram BandedHistogram::PowersOfTen(int lo_exponent, int hi_exponent) {
  std::vector<int64_t> b;
  int64_t v = 1;
  for (int e = 0; e <= hi_exponent; ++e) {
    if (e >= lo_exponent) b.push_back(v);
    v *= 10;
  }
  return BandedHistogram(std::move(b));
}

size_t BandedHistogram::BandOf(int64_t value) const {
  // First boundary strictly greater than value determines the band.
  auto it = std::upper_bound(boundaries_.begin(), boundaries_.end(), value);
  return static_cast<size_t>(it - boundaries_.begin());
}

void BandedHistogram::Add(int64_t value, int64_t count) {
  counts_[BandOf(value)] += count;
}

int64_t BandedHistogram::total() const {
  int64_t t = 0;
  for (int64_t c : counts_) t += c;
  return t;
}

std::string HumanCount(int64_t value) {
  if (value < 0) {
    std::string out = "-";
    out += HumanCount(-value);
    return out;
  }
  struct Unit {
    int64_t scale;
    const char* suffix;
  };
  static const Unit kUnits[] = {
      {1000000000000LL, "T"}, {1000000000LL, "B"}, {1000000LL, "M"}, {1000LL, "K"}};
  for (const Unit& u : kUnits) {
    if (value >= u.scale) {
      double scaled = static_cast<double>(value) / static_cast<double>(u.scale);
      char buf[32];
      if (scaled >= 100 || scaled == std::floor(scaled)) {
        std::snprintf(buf, sizeof(buf), "%.0f%s", scaled, u.suffix);
      } else {
        std::snprintf(buf, sizeof(buf), "%.1f%s", scaled, u.suffix);
      }
      return buf;
    }
  }
  return std::to_string(value);
}

std::string BandedHistogram::BandLabel(size_t band) const {
  if (boundaries_.empty()) return "all";
  std::string label;
  if (band == 0) {
    label = "<";
    label += HumanCount(boundaries_.front());
  } else if (band == boundaries_.size()) {
    label = ">";
    label += HumanCount(boundaries_.back());
  } else {
    label = HumanCount(boundaries_[band - 1]);
    label += " - ";
    label += HumanCount(boundaries_[band]);
  }
  return label;
}

void RunningStats::Add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace ubigraph
