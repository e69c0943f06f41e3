#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

namespace {

// 1-based nearest rank of the `pct` percentile among `n` samples.
std::size_t Rank(std::size_t n, double pct) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

std::size_t SamplesBeyond(std::size_t n, double pct) {
  return n == 0 ? 0 : n - Rank(n, pct);
}

bool Printable(std::size_t n, double pct) {
  return SamplesBeyond(n, pct) >= kMinBeyond;
}

double Percentile(std::vector<double>& values, double pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[Rank(values.size(), pct) - 1];
}

std::chrono::nanoseconds PoissonSchedule::NextGap() {
  // Inverse-CDF exponential draw; 1 - u is in (0, 1], so log() is finite.
  const double u = rng_.NextDouble();
  const double gap_s = -std::log(1.0 - u) * mean_gap_s_;
  return std::chrono::nanoseconds(static_cast<std::int64_t>(gap_s * 1e9));
}

std::vector<std::size_t> QuietWindows(const std::vector<double>& steal_share,
                                      double limit) {
  std::vector<std::size_t> order(steal_share.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return steal_share[a] < steal_share[b];
  });
  std::size_t keep = (order.size() + 1) / 2;
  while (keep < order.size() && steal_share[order[keep]] <= limit) ++keep;
  order.resize(keep);
  std::sort(order.begin(), order.end());
  return order;
}

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max<std::int64_t>(0, spans[i].end_ns - spans[i].start_ns) -
              covered;
  }
  return self;
}

}  // namespace perfbench
