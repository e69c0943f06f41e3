// Self-tests of the benchmark's measurement arithmetic (stats.h). Run with
// `python3 perfbench/run.py --selftest`; exits non-zero on the first
// failed check.
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    ++failures;
  }
}

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  Check(Percentile(v, 50) == 50, "p50 of 1..100 is 50");
  Check(Percentile(v, 90) == 90, "p90 of 1..100 is 90");
  Check(Percentile(v, 100) == 100, "p100 is the max");
  Check(Percentile(v, 0) == 1, "p0 is the min");
  std::vector<double> one = {7};
  Check(Percentile(one, 99) == 7, "one sample is every percentile");
  std::vector<double> none;
  Check(Percentile(none, 50) == 0, "no samples read 0");

  // Printable only with at least kMinBeyond samples above the rank.
  Check(SamplesBeyond(100, 90) == 10, "100 samples leave 10 beyond p90");
  Check(Printable(100, 90), "p90 of 100 samples is printable");
  Check(!Printable(99, 90), "p90 of 99 samples is not");
  Check(!Printable(999, 99), "p99 of 999 samples is not");
  Check(Printable(1000, 99), "p99 of 1000 samples is");
  Check(Printable(20, 50), "p50 of 20 samples is");
  Check(!Printable(19, 50), "p50 of 19 samples is not");
  Check(!Printable(0, 50), "nothing is printable without samples");
}

void TestPoissonRate() {
  for (const double rate : {100.0, 4000.0}) {
    PoissonSchedule schedule(rate, 42);
    const int n = 200000;
    double total_s = 0, sq = 0;
    for (int i = 0; i < n; ++i) {
      const double gap = static_cast<double>(schedule.NextGap().count()) / 1e9;
      Check(gap >= 0, "gaps are never negative");
      total_s += gap;
      sq += gap * gap;
    }
    const double mean = total_s / n;
    // Exponential gaps: sd == mean, so the mean of n gaps is within 1% of
    // 1/rate with overwhelming probability (4.5 standard errors).
    Check(std::abs(mean * rate - 1) < 0.01,
          "mean Poisson rate within 1% at " + std::to_string(rate) + "/s");
    const double sd = std::sqrt(sq / n - mean * mean);
    Check(std::abs(sd / mean - 1) < 0.02, "Poisson gaps have sd == mean");
  }
  PoissonSchedule a(1000, 7), b(1000, 7), c(1000, 8);
  bool same = true, differs = false;
  for (int i = 0; i < 100; ++i) {
    const auto ga = a.NextGap(), gb = b.NextGap(), gc = c.NextGap();
    same &= ga == gb;
    differs |= ga != gc;
  }
  Check(same, "a seed fixes the schedule");
  Check(differs, "another seed changes it");
}

void TestSelfTimes() {
  // root [0,100): wait [0,10), a [10,40) with child [15,25), b [50,90).
  const std::vector<Span> op = {
      {"op.write", 0, 100, -1}, {"loadgen.wait", 0, 10, 0},
      {"a", 10, 40, 0},         {"a.inner", 15, 25, 2},
      {"b", 50, 90, 0},
  };
  const std::vector<std::int64_t> self = SelfTimes(op);
  Check(self[0] == 20, "root self time is what no child covers");
  Check(self[1] == 10 && self[2] == 20 && self[3] == 10 && self[4] == 40,
        "each child's self time excludes its own children");
  Check(std::accumulate(self.begin(), self.end(), std::int64_t{0}) == 100,
        "self times partition the root");

  // Overlapping siblings count their overlap once; a child sticking out of
  // its parent is clamped to the parent's window.
  const std::vector<Span> overlap = {
      {"op.pull", 0, 50, -1}, {"x", 5, 30, 0}, {"y", 20, 60, 0}};
  Check(SelfTimes(overlap)[0] == 5, "overlapping children covered once");

  const std::vector<Span> leaf = {{"op.read", 3, 9, -1}};
  Check(SelfTimes(leaf)[0] == 6, "a childless root is all self time");
}

void TestQuietWindows() {
  using Index = std::vector<std::size_t>;
  Check(QuietWindows({0, 0.01, 0.02, 0}) == Index({0, 1, 2, 3}),
        "every window under the limit is kept");
  Check(QuietWindows({0.2, 0, 0.1, 0.01, 0.3, 0.05}, 0.03) == Index({1, 3, 5}),
        "too few quiet windows: the quietest half is kept");
  Check(QuietWindows({0.1, 0, 0.5, 0.02, 0, 0.2}, 0.03) == Index({1, 3, 4}),
        "quiet windows beyond half are all kept");
  Check(QuietWindows({0.4, 0.4, 0.4}, 0.03) == Index({0, 1}),
        "ties go to the earlier window; an odd count rounds the half up");
  Check(QuietWindows({}).empty(), "no windows, none kept");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentiles();
  perfbench::TestPoissonRate();
  perfbench::TestSelfTimes();
  perfbench::TestQuietWindows();
  if (perfbench::failures != 0) {
    std::printf("%d self-test check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
