// Lightweight measurement utilities: summary statistics with exact
// percentiles and equal-width histograms, and a periodic sampler. Used by
// tests, benches and examples to reproduce the paper's plots as printed
// tables.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_loop.h"

namespace mptcp {

/// Summary statistics over a bag of values (no time dimension).
class Distribution {
 public:
  void add(double v) { values_.push_back(v); }
  size_t count() const { return values_.size(); }

  double mean() const {
    if (values_.empty()) return 0.0;
    double s = 0;
    for (double v : values_) s += v;
    return s / static_cast<double>(values_.size());
  }

  double min() const {
    return values_.empty()
               ? 0.0
               : *std::min_element(values_.begin(), values_.end());
  }

  double max() const {
    return values_.empty()
               ? 0.0
               : *std::max_element(values_.begin(), values_.end());
  }

  /// p in [0,1]; nearest-rank percentile.
  double percentile(double p) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const size_t idx = std::min(
        sorted.size() - 1,
        static_cast<size_t>(p * static_cast<double>(sorted.size())));
    return sorted[idx];
  }

  /// Normalized histogram (fractions summing to ~1) with `bins` equal bins
  /// over [lo, hi); out-of-range values are clamped into the edge bins.
  std::vector<double> histogram(double lo, double hi, size_t bins) const {
    std::vector<double> h(bins, 0.0);
    if (values_.empty() || bins == 0 || hi <= lo) return h;
    for (double v : values_) {
      double f = (v - lo) / (hi - lo);
      size_t b = f <= 0.0 ? 0
                 : f >= 1.0
                     ? bins - 1
                     : static_cast<size_t>(f * static_cast<double>(bins));
      h[std::min(b, bins - 1)] += 1.0;
    }
    for (double& x : h) x /= static_cast<double>(values_.size());
    return h;
  }

 private:
  std::vector<double> values_;
};

/// Invokes a callback every `period` until stopped or the loop drains.
class PeriodicSampler {
 public:
  PeriodicSampler(EventLoop& loop, SimTime period,
                  std::function<void(SimTime)> fn)
      : loop_(loop),
        period_(period),
        fn_(std::move(fn)),
        timer_(loop, [this] { tick(); }) {
    timer_.arm_in(period_);
  }

  void stop() { timer_.cancel(); }

 private:
  void tick() {
    fn_(loop_.now());
    timer_.arm_in(period_);
  }

  EventLoop& loop_;
  SimTime period_;
  std::function<void(SimTime)> fn_;
  Timer timer_;
};

}  // namespace mptcp
