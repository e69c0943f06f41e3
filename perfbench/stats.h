// Measurement arithmetic of the repository benchmark, kept free of any
// cluster code so perfbench_selftest can check it in isolation:
//   - nearest-rank percentiles with the reporting rule that a percentile is
//     only printable when at least kMinBeyond samples lie beyond it;
//   - the open-loop Poisson arrival schedule (seeded, mean rate exact in
//     expectation);
//   - span self time: a span's duration minus the part of its interval its
//     children cover, so the self times of one op's tree partition its root;
//   - which windows of a run a time metric is taken over, given how much
//     CPU time the hypervisor stole from the host in each.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"

namespace perfbench {

// A printed percentile needs at least this many samples above it.
inline constexpr std::size_t kMinBeyond = 10;

// Samples strictly above the nearest-rank `pct` percentile of `n` samples.
std::size_t SamplesBeyond(std::size_t n, double pct);
bool Printable(std::size_t n, double pct);

// Nearest-rank percentile of `values` (sorted in place). 0 when empty.
double Percentile(std::vector<double>& values, double pct);

// Seeded Poisson arrivals: exponential gaps with mean 1/rate.
class PoissonSchedule {
 public:
  PoissonSchedule(double rate_per_s, std::uint64_t seed)
      : mean_gap_s_(1.0 / rate_per_s), rng_(seed) {}

  std::chrono::nanoseconds NextGap();

 private:
  double mean_gap_s_;
  glider::SplitMix64 rng_;
};

// A window is quiet when the hypervisor stole at most this share of the
// host's CPU time (stolen / all clock ticks, idle ones included). Counted
// over all ticks, not busy ones, so the program's own load barely moves it.
inline constexpr double kQuietSteal = 0.03;

// Indices, ascending, of the windows a time metric is taken over: every
// window whose steal share is at most `limit` or, when those are fewer than
// half of all windows, the quietest half (ties go to the earlier window).
std::vector<std::size_t> QuietWindows(const std::vector<double>& steal_share,
                                      double limit = kQuietSteal);

// One benchmark span: [start_ns, end_ns) on the steady clock. `parent` is
// an index into the same op's span vector (-1 for the op's root).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
};

// Self time of every span of one op (same order as `spans`): its duration
// minus the union of its children's intervals clamped to its own window.
// Siblings may overlap (concurrent children); the union counts overlap once.
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench
